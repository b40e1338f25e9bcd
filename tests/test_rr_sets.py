"""Tests for the one-pass Spark RR/MRR sampler (§V-A).

Deterministic cases (edge probabilities 0/1) are checked exactly against
analytic reachability; the numpy coins and the whole sketch are checked
exactly against Spark's own ``xxhash64``; probabilistic cases are validated
statistically against the forward Monte-Carlo simulator.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.diffusion.mrr import build_index
from repro.diffusion.rr_sets import (
    _coin,
    sample_mrr_sets,
    sample_roots,
    sample_rr_sets,
    spread_estimate,
)
from repro.diffusion.simulate import ForwardSimulator
from repro.graphs.datasets import TEST_GRAPH
from repro.graphs.generator import EDGE_SCHEMA, social_graph
from repro.graphs.topics import edges_by_piece, one_hot_pieces, uniform_piece

from .conftest import EX1_ANC, EX1_PIECES


@pytest.fixture(scope="module")
def ex1_mrr(spark, ex1_edges_df):
    """MRR sets over Example 1 with one root per vertex — deterministic."""
    roots = spark.createDataFrame(
        pd.DataFrame({"sample_id": range(5), "vertex": range(5)}),
        schema="sample_id int, vertex int",
    )
    ebp = edges_by_piece(ex1_edges_df, EX1_PIECES)
    return sample_mrr_sets(spark, ebp, roots, 2, seed=1)


def test_roots_deterministic(spark):
    a = sample_roots(spark, n=100, theta=50, seed=3).toPandas()
    b = sample_roots(spark, n=100, theta=50, seed=3).toPandas()
    pd.testing.assert_frame_equal(a, b)
    assert a["vertex"].between(0, 99).all()
    assert sorted(a["sample_id"]) == list(range(50))


def test_mrr_exact_on_deterministic_graph(ex1_mrr):
    """Every RR set equals the analytic ancestor set (probabilities are 0/1)."""
    rows = ex1_mrr.collect()
    got: dict[tuple[int, int], set[int]] = {}
    for r in rows:
        got.setdefault((r["piece"], r["sample_id"]), set()).add(r["vertex"])
    for j in (0, 1):
        for root in range(5):
            assert got[(j, root)] == EX1_ANC[j][root], (j, root)


def test_mrr_contains_root(spark, ex1_edges_df):
    roots = sample_roots(spark, n=5, theta=20, seed=9)
    ebp = edges_by_piece(ex1_edges_df, EX1_PIECES)
    mrr = sample_mrr_sets(spark, ebp, roots, 2, seed=2)
    joined = roots.join(mrr, on=["sample_id", "vertex"], how="left_anti")
    # every (sample, root) must appear in every piece's RR set
    assert joined.count() == 0


def test_sampler_deterministic_in_seed(spark, ex1_edges_df):
    pdf = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 2], "probs": [[0.5], [0.5]]}
    )
    from repro.graphs.generator import EDGE_SCHEMA

    edges = spark.createDataFrame(pdf, schema=EDGE_SCHEMA)
    ebp = edges_by_piece(edges, np.array([[1.0]]))
    roots = sample_roots(spark, n=3, theta=40, seed=0)
    a = sample_mrr_sets(spark, ebp, roots, 1, seed=7).toPandas()
    b = sample_mrr_sets(spark, ebp, roots, 1, seed=7).toPandas()
    key = ["piece", "sample_id", "vertex"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )
    c = sample_mrr_sets(spark, ebp, roots, 1, seed=8).toPandas()
    assert len(c) != len(a) or not a.sort_values(key).reset_index(drop=True).equals(
        c.sort_values(key).reset_index(drop=True)
    )


def test_zero_probability_edges_never_transmit(spark):
    pdf = pd.DataFrame({"src": [0], "dst": [1], "probs": [[0.0]]})
    from repro.graphs.generator import EDGE_SCHEMA

    edges = spark.createDataFrame(pdf, schema=EDGE_SCHEMA)
    ebp = edges_by_piece(edges, np.array([[1.0]]))
    roots = sample_roots(spark, n=2, theta=30, seed=1)
    mrr = sample_mrr_sets(spark, ebp, roots, 1, seed=3)
    # RR sets contain only the roots themselves.
    assert mrr.count() == 30


def test_rr_single_graph_wrapper(spark, ex1_edges_df):
    edges_p0 = edges_by_piece(ex1_edges_df, EX1_PIECES).where(
        F.col("piece") == 0
    ).select("src", "dst", "p")
    roots = spark.createDataFrame(
        pd.DataFrame({"sample_id": [0, 1], "vertex": [3, 0]}),
        schema="sample_id int, vertex int",
    )
    rr = sample_rr_sets(spark, edges_p0, roots, seed=5)
    got = {
        r["sample_id"]: set()
        for r in rr.collect()
    }
    for r in rr.collect():
        got[r["sample_id"]].add(r["vertex"])
    assert got[0] == {0, 1, 2, 3}
    assert got[1] == {0}


def test_spread_estimate_matches_forward_sim(spark):
    """RR estimator ≈ forward Monte-Carlo on a small probabilistic graph."""
    g = np.random.default_rng(4)
    n, m = 30, 90
    src = g.integers(0, n, m)
    dst = (src + 1 + g.integers(0, n - 1, m)) % n
    pdf = pd.DataFrame(
        {"src": src, "dst": dst, "probs": [[p] for p in g.uniform(0.05, 0.3, m)]}
    ).drop_duplicates(["src", "dst"])
    from repro.graphs.generator import EDGE_SCHEMA

    edges = spark.createDataFrame(
        pdf.assign(probs=pdf["probs"].map(list)), schema=EDGE_SCHEMA
    )
    piece = np.array([[1.0]])
    theta = 3000
    roots = sample_roots(spark, n=n, theta=theta, seed=6)
    ebp = edges_by_piece(edges, piece)
    rr = sample_mrr_sets(spark, ebp, roots, 1, seed=11).select("sample_id", "vertex")
    seeds = [0, 7, 13]
    est = spread_estimate(rr, seeds, n, theta)
    sim = ForwardSimulator(pdf.reset_index(drop=True), piece, n)
    truth = sim.spread(seeds, 0, trials=1500, seed=12)
    assert abs(est - truth) / truth < 0.12, (est, truth)


def test_estimated_au_matches_forward_sim(spark, ex1_edges_df):
    """End-to-end: MRR-estimated AU ≈ forward-simulated AU on a
    probabilistic variant of the Example-1 graph."""
    from repro.core.adoption import LogisticModel, estimate_au

    pdf = pd.DataFrame(
        {
            "src": [0, 1, 2, 4, 3, 2],
            "dst": [1, 2, 3, 3, 2, 1],
            "probs": [
                [0.8, 0.0],
                [0.8, 0.0],
                [0.8, 0.0],
                [0.0, 0.8],
                [0.0, 0.8],
                [0.0, 0.8],
            ],
        }
    )
    from repro.graphs.generator import EDGE_SCHEMA

    edges = spark.createDataFrame(
        pdf.assign(probs=pdf["probs"].map(list)), schema=EDGE_SCHEMA
    )
    theta = 4000
    roots = sample_roots(spark, n=5, theta=theta, seed=21)
    mrr = sample_mrr_sets(spark, edges_by_piece(edges, EX1_PIECES), roots, 2, seed=22)
    idx = build_index(
        mrr, n_vertices=5, theta=theta, n_pieces=2, promoter_pool=np.arange(5)
    )
    m = LogisticModel(alpha=3.0, beta=1.0)
    plan = {0: {0}, 1: {4}}
    est = estimate_au(idx, plan, m)
    sim = ForwardSimulator(pdf.reset_index(drop=True), EX1_PIECES, 5)
    truth = sim.adoption_utility({0: [0], 1: [4]}, alpha=3.0, beta=1.0, trials=3000, seed=23)
    assert abs(est - truth) / truth < 0.10, (est, truth)


def _spark_coin(seed: int):
    """The coin as a Spark column: the oracle for the numpy port."""
    h = F.xxhash64(F.lit(seed), "piece", "sample_id", "src", "dst")
    return F.pmod(h, F.lit(1 << 24)).cast("double") / float(1 << 24)


def test_coin_matches_spark_xxhash64(spark):
    g = np.random.default_rng(5)
    i32 = np.iinfo(np.int32)
    edge = np.array([0, -1, i32.max, i32.min], dtype=np.int32)
    # every combination of the edge values, then random int32 tuples
    grid = np.stack(np.meshgrid(edge, edge, edge, edge), axis=-1).reshape(-1, 4)
    rand = g.integers(i32.min, i32.max, size=(3000, 4), endpoint=True, dtype=np.int32)
    keys = pd.DataFrame(
        np.vstack([grid, rand]), columns=["piece", "sample_id", "src", "dst"]
    )
    df = spark.createDataFrame(
        keys, schema="piece int, sample_id int, src int, dst int"
    )
    for seed in (0, 11101, -1, int(i32.max), int(i32.min)):
        want = df.select(_spark_coin(seed).alias("c")).toPandas()["c"].to_numpy()
        got = _coin(seed, *(keys[c].to_numpy() for c in keys.columns))
        assert np.array_equal(got, want), seed


@pytest.mark.parametrize("seed", [1 << 31, -(1 << 31) - 1])
def test_coin_seed_outside_int32_raises(spark, seed):
    """Spark would hash such a seed as a long (hashLong): refuse it."""
    with pytest.raises(ValueError):
        _coin(seed, 0, 0, 0, 1)
    edges = spark.createDataFrame([(0, 0, 1, 0.5)], "piece int, src int, dst int, p double")
    roots = sample_roots(spark, n=2, theta=3, seed=0)
    with pytest.raises(ValueError):
        sample_mrr_sets(spark, edges, roots, 1, seed=seed)


def test_sketch_equals_bfs_over_spark_live_edges(spark):
    """The whole sketch equals a plain BFS per (piece, sample) over the live
    edges Spark's own xxhash64 selects."""
    n_pieces, theta, seed = 3, 30, 5123
    pieces = np.vstack(
        [one_hot_pieces(TEST_GRAPH.n_topics, n_pieces, 4), uniform_piece(TEST_GRAPH.n_topics)]
    )
    ebp = edges_by_piece(social_graph(spark, TEST_GRAPH), pieces)
    roots = sample_roots(spark, n=TEST_GRAPH.n, theta=theta, seed=6)
    live = (
        ebp.crossJoin(roots.select("sample_id"))
        .where(_spark_coin(seed) < F.col("p"))
        .select("piece", "sample_id", "src", "dst")
        .collect()
    )
    parents: dict[tuple[int, int, int], list[int]] = {}
    for r in live:
        parents.setdefault((r["piece"], r["sample_id"], r["dst"]), []).append(r["src"])
    want = set()
    for r in roots.collect():
        for j in range(n_pieces + 1):
            seen, todo = {r["vertex"]}, [r["vertex"]]
            while todo:
                v = todo.pop()
                for u in parents.get((j, r["sample_id"], v), []):
                    if u not in seen:
                        seen.add(u)
                        todo.append(u)
            want |= {(j, r["sample_id"], v) for v in seen}
    rows = sample_mrr_sets(spark, ebp, roots, n_pieces + 1, seed=seed).collect()
    got = [(r["piece"], r["sample_id"], r["vertex"]) for r in rows]
    assert len(got) == len(set(got))
    assert set(got) == want
    assert len(want) > (n_pieces + 1) * theta  # some RR set grew past its root


def test_long_chain_not_truncated(spark):
    """A 100-vertex chain with p=1: the tail's RR set is the whole chain,
    however many BFS levels that takes."""
    n = 100
    pdf = pd.DataFrame(
        {"src": range(n - 1), "dst": range(1, n), "probs": [[1.0]] * (n - 1)}
    )
    edges = spark.createDataFrame(pdf, schema=EDGE_SCHEMA)
    roots = spark.createDataFrame([(0, n - 1)], schema="sample_id int, vertex int")
    mrr = sample_mrr_sets(spark, edges_by_piece(edges, np.array([[1.0]])), roots, 1, seed=3)
    assert sorted(r["vertex"] for r in mrr.collect()) == list(range(n))
