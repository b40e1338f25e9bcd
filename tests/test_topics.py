"""Tests for piece topic vectors and per-piece influence-graph derivation."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.datasets import TEST_GRAPH
from repro.graphs.generator import social_graph, social_graph_pandas
from repro.graphs.topics import edges_by_piece, one_hot_pieces, piece_prob_col, uniform_piece
from repro.oracle import assert_equivalent


@pytest.mark.parametrize("n_topics,n_pieces", [(5, 3), (20, 5), (9, 1), (3, 3)])
def test_one_hot_pieces_shape(n_topics, n_pieces):
    p = one_hot_pieces(n_topics, n_pieces, seed=0)
    assert p.shape == (n_pieces, n_topics)
    assert np.all(p.sum(axis=1) == 1.0)
    assert np.all((p == 0) | (p == 1))


def test_one_hot_pieces_distinct_topics():
    p = one_hot_pieces(20, 5, seed=3)
    topics = p.argmax(axis=1)
    assert len(set(topics.tolist())) == 5


def test_one_hot_pieces_replacement_fallback():
    """No fallback to sampling topics with replacement: ℓ > |Z| raises."""
    with pytest.raises(ValueError):
        one_hot_pieces(2, 5, seed=0)  # more pieces than topics


def test_one_hot_deterministic():
    assert np.array_equal(one_hot_pieces(10, 4, seed=9), one_hot_pieces(10, 4, seed=9))


def test_uniform_piece():
    u = uniform_piece(8)
    assert np.allclose(u, 1 / 8)
    assert np.isclose(u.sum(), 1.0)


def test_piece_prob_matches_numpy_dot(spark, ex1_edges_df):
    """Catalyst zip_with/aggregate == numpy dot for p(t, e)."""
    t = np.array([0.3, 0.7])
    got = ex1_edges_df.select("src", "dst", piece_prob_col(t).alias("p")).toPandas()
    probs = np.stack([np.asarray(p) for p in ex1_edges_df.toPandas()["probs"]])
    want = probs @ t
    merged = got.sort_values(["src", "dst"]).reset_index(drop=True)
    base = ex1_edges_df.toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
    probs_sorted = np.stack([np.asarray(p) for p in base["probs"]])
    assert np.allclose(merged["p"].to_numpy(), probs_sorted @ t)


def test_piece_prob_oracle(spark):
    """p(t,e) derivation cross-checked in DuckDB over exploded topic columns."""
    pdf = social_graph_pandas(TEST_GRAPH)
    t = np.zeros(TEST_GRAPH.n_topics)
    t[2] = 1.0
    df = spark.createDataFrame(
        pd.DataFrame(
            {"src": pdf["src"], "dst": pdf["dst"], "probs": pdf["probs"].map(list)}
        )
    )
    got = df.select("src", "dst", piece_prob_col(t).alias("p"))
    flat = pd.DataFrame(
        {
            "src": pdf["src"],
            "dst": pdf["dst"],
            "p2": [float(p[2]) for p in pdf["probs"]],
        }
    )
    assert_equivalent(
        got, "SELECT src, dst, p2 AS p FROM flat", flat=flat
    )


def test_edges_by_piece_drops_zero_edges(spark, ex1_edges_df):
    pieces = np.array([[1.0, 0.0], [0.0, 1.0]])
    ebp = edges_by_piece(ex1_edges_df, pieces)
    counts = {r["piece"]: r["count"] for r in ebp.groupBy("piece").count().collect()}
    assert counts == {0: 3, 1: 3}  # three edges per topic in Example 1
    assert ebp.where(F.col("p") <= 0).count() == 0


def test_edges_by_piece_probability_values(spark, ex1_edges_df):
    pieces = np.array([[1.0, 0.0]])
    rows = edges_by_piece(ex1_edges_df, pieces).collect()
    assert all(r["p"] == 1.0 for r in rows)
    assert sorted((r["src"], r["dst"]) for r in rows) == [(0, 1), (1, 2), (2, 3)]


def test_edges_by_piece_uniform_is_mean(spark, ex1_edges_df):
    """The IM baseline's uniform piece collapses each edge to mean_z p(e|z)."""
    ebp = edges_by_piece(ex1_edges_df, np.array([uniform_piece(2)]))
    rows = ebp.collect()
    assert len(rows) == 6
    assert all(np.isclose(r["p"], 0.5) for r in rows)
