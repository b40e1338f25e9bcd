"""Tests for the MRR index (collection/pivot of the sampled sketch)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.diffusion.mrr import build_index, index_from_sets
from repro.oracle import assert_equivalent

from .conftest import random_index


def test_index_from_sets_roundtrip():
    rr = {0: [{1, 2}, {2}, set()], 1: [{0}, {0, 1}, {2}]}
    idx = index_from_sets(rr, n_vertices=3)
    assert idx.theta == 3 and idx.n_pieces == 2 and idx.n_vertices == 3
    assert idx.covered_by(0, 2).tolist() == [0, 1]
    assert idx.covered_by(0, 1).tolist() == [0]
    assert idx.covered_by(0, 0).tolist() == []
    assert idx.covered_by(1, 0).tolist() == [0, 1]


def test_index_promoter_pool_restriction():
    rr = {0: [{0, 1, 2}]}
    idx = index_from_sets(rr, n_vertices=3, promoter_pool=np.array([1]))
    assert idx.covered_by(0, 1).tolist() == [0]
    assert idx.covered_by(0, 0).tolist() == []  # outside the pool


def test_index_subset():
    idx = random_index(n_pieces=4)
    sub = idx.subset([0, 2])
    assert sub.n_pieces == 2
    assert np.array_equal(sub.pieces[0].samples, idx.pieces[0].samples)
    assert np.array_equal(sub.pieces[1].samples, idx.pieces[2].samples)


def test_index_subset_renumbers_rows():
    idx = random_index(n_pieces=4, seed=5)
    sub = idx.subset([0, 2])
    old_rows = np.r_[idx.piece_ptr[0] : idx.piece_ptr[1], idx.piece_ptr[2] : idx.piece_ptr[3]]
    assert sub.n_rows == len(old_rows)
    assert np.array_equal(sub.piece, np.where(idx.piece[old_rows] == 0, 0, 1))
    assert np.array_equal(sub.vertex, idx.vertex[old_rows])
    for r, old in enumerate(old_rows):
        assert np.array_equal(
            sub.samples[sub.indptr[r] : sub.indptr[r + 1]],
            idx.samples[idx.indptr[old] : idx.indptr[old + 1]],
        )
    assert np.array_equal(sub.keys, np.repeat(sub.piece, np.diff(sub.indptr)) * sub.theta + sub.samples)
    assert sub.piece_ptr.tolist() == [0, len(idx.pieces[0].promoters), sub.n_rows]
    for j in (0, 1):  # piece views agree with the per-piece coverage
        want = idx.pieces[2 * j]
        assert np.array_equal(sub.pieces[j].promoters, want.promoters)
        assert np.array_equal(sub.pieces[j].indptr, want.indptr)


def test_pair_csr_layout():
    """Rows sorted by (piece, vertex), none empty; pieces are views."""
    idx = random_index(seed=4)
    assert len(idx.indptr) == idx.n_rows + 1 and idx.indptr[-1] == len(idx.samples)
    assert np.all(np.diff(idx.indptr) > 0)
    pair = idx.piece.astype(np.int64) * idx.n_vertices + idx.vertex
    assert np.all(np.diff(pair) > 0)
    assert np.shares_memory(idx.pieces[1].samples, idx.samples)
    assert np.shares_memory(idx.pieces[1].promoters, idx.vertex)


def test_rows_of_and_plan_of_roundtrip():
    idx = random_index(seed=6)
    plan = {0: {int(idx.pieces[0].promoters[2])}, 2: set(idx.pieces[2].promoters[:3].tolist())}
    # pairs without a row are dropped; an out-of-range vertex must not
    # alias into the next piece's rows
    rows = idx.rows_of(plan | {1: {idx.n_vertices + int(idx.pieces[2].promoters[0])}})
    assert len(rows) == 4
    assert idx.plan_of(rows) == plan


def test_csr_layout_consistency():
    idx = random_index(seed=3)
    for cov in idx.pieces:
        assert len(cov.indptr) == len(cov.promoters) + 1
        assert cov.indptr[-1] == len(cov.samples)
        assert np.all(np.diff(cov.indptr) >= 0)
        # per-promoter sample lists are sorted and unique
        for i in range(len(cov.promoters)):
            seg = cov.samples[cov.indptr[i] : cov.indptr[i + 1]]
            assert np.all(np.diff(seg) > 0)


def test_plan_counts_matches_bruteforce():
    idx = random_index(seed=7)
    g = np.random.default_rng(1)
    plan = {
        j: set(
            g.choice(idx.pieces[j].promoters, size=3, replace=False).tolist()
        )
        for j in range(idx.n_pieces)
    }
    counts = idx.plan_counts(plan)
    # brute force from the CSR itself
    want = np.zeros(idx.theta, dtype=int)
    for j, seeds in plan.items():
        cov = np.zeros(idx.theta, dtype=bool)
        for v in seeds:
            cov[idx.covered_by(j, v)] = True
        want += cov
    assert np.array_equal(counts, want)


def test_build_index_matches_from_sets(spark):
    """Spark pivot == direct construction on the same membership table."""
    rr = {
        0: [{1, 5}, {2}, {1, 2, 5}, set()],
        1: [{0}, {0, 5}, set(), {2}],
    }
    rows = [
        (j, i, v) for j, sets in rr.items() for i, s in enumerate(sets) for v in s
    ]
    mrr_df = spark.createDataFrame(rows, schema="piece int, sample_id int, vertex int")
    pool = np.array([0, 1, 2, 5])
    got = build_index(mrr_df, n_vertices=6, theta=4, n_pieces=2, promoter_pool=pool)
    want = index_from_sets(rr, n_vertices=6, promoter_pool=pool)
    for j in range(2):
        assert np.array_equal(got.pieces[j].promoters, want.pieces[j].promoters)
        for v in got.pieces[j].promoters:
            assert np.array_equal(got.covered_by(j, v), want.covered_by(j, v))


def test_build_index_coverage_counts_oracle(spark):
    """Per-(piece, promoter) coverage counts: Spark aggregation vs DuckDB."""
    rr = {0: [{1, 2}, {2, 3}, {1}], 1: [{3}, {1, 3}, set()]}
    rows = [
        (j, i, v) for j, sets in rr.items() for i, s in enumerate(sets) for v in s
    ]
    mrr = pd.DataFrame(rows, columns=["piece", "sample_id", "vertex"])
    mrr_df = spark.createDataFrame(mrr)
    from pyspark.sql import functions as F

    got = mrr_df.groupBy("piece", "vertex").agg(
        F.countDistinct("sample_id").alias("n_cov")
    )
    assert_equivalent(
        got,
        "SELECT piece, vertex, COUNT(DISTINCT sample_id) AS n_cov "
        "FROM mrr GROUP BY piece, vertex",
        mrr=mrr,
    )


def test_index_mismatched_theta_raises():
    with pytest.raises(ValueError):
        index_from_sets({0: [{1}], 1: [{1}, {2}]}, n_vertices=3)
