"""Integration tests: the experiment harness on the tiny test graph."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, estimate_au_spark
from repro.experiments.harness import ALL_METHODS, prepare, run_methods
from repro.graphs.datasets import TEST_GRAPH


def test_prepare_shapes(prepared_test_graph):
    prep = prepared_test_graph
    assert prep.index.n_pieces == 3
    assert prep.index.theta == 300
    assert prep.pieces.shape == (3, TEST_GRAPH.n_topics)
    assert prep.edge_count > 0
    assert prep.sample_seconds > 0 and prep.index_seconds > 0
    assert len(prep.im_cov.promoters) > 0


def test_prepare_cached(spark, prepared_test_graph):
    again = prepare(spark, TEST_GRAPH, n_pieces=3, theta=300, seed=77)
    assert again is prepared_test_graph


def test_prepare_cache_keys_on_config(spark):
    """A changed config under the same name is prepared afresh."""
    small = dataclasses.replace(TEST_GRAPH, m=300)
    a = prepare(spark, TEST_GRAPH, n_pieces=2, theta=20, seed=3)
    b = prepare(spark, small, n_pieces=2, theta=20, seed=3)
    assert a is not b
    assert b.graph_cfg == small and b.edge_count < a.edge_count
    assert prepare(spark, small, n_pieces=2, theta=20, seed=3) is b


def test_index_restricted_to_pool(prepared_test_graph):
    from repro.graphs.generator import promoter_pool

    pool = set(promoter_pool(TEST_GRAPH).tolist())
    for cov in prepared_test_graph.index.pieces:
        assert set(cov.promoters.tolist()) <= pool


def test_run_methods_rows(prepared_test_graph):
    rows = run_methods(prepared_test_graph, k=5, max_pops=20)
    assert [r["method"] for r in rows] == list(ALL_METHODS)
    for r in rows:
        assert r["utility"] >= 0
        assert r["seconds"] >= 0
        assert r["assignments"] <= 5
        assert r["dataset"] == "test_graph"
        assert r["k"] == 5 and r["l"] == 3
        want = {"gap", "exhausted", "max_pops"} if r["method"].startswith("BAB") else {""}
        assert r["stop_reason"] in want


def test_bab_at_least_baselines(prepared_test_graph):
    """§VI: BAB/BAB-P must dominate IM and TIM on any instance — TIM's plan
    is inside BAB's search space."""
    rows = run_methods(prepared_test_graph, k=6, max_pops=40)
    u = {r["method"]: r["utility"] for r in rows}
    assert u["BAB"] >= u["TIM"] - 1e-6
    assert u["BAB"] >= u["IM"] - 1e-6
    assert u["BAB-P"] >= 0.9 * u["BAB"]


def test_utility_monotone_in_k_integration(prepared_test_graph):
    us = [
        run_methods(prepared_test_graph, k=k, methods=("BAB-P",), max_pops=20)[0][
            "utility"
        ]
        for k in (2, 5, 8)
    ]
    assert us[0] <= us[1] + 1e-9 <= us[2] + 2e-9


def test_utility_monotone_in_ratio(prepared_test_graph):
    us = [
        run_methods(prepared_test_graph, k=5, ratio=r, methods=("BAB",), max_pops=20)[
            0
        ]["utility"]
        for r in (0.3, 0.5, 0.7)
    ]
    assert us[0] < us[1] < us[2]


def test_plan_utility_consistent_spark_numpy(spark, prepared_test_graph):
    """The winning BAB plan evaluates identically in numpy and Spark."""
    prep = prepared_test_graph
    from repro.core.bab import branch_and_bound

    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(prep.index, m, 5, max_pops=20)
    u_np = estimate_au(prep.index, res.plan, m)
    u_sp = estimate_au_spark(
        prep.mrr_df.where("piece < 3"),
        res.plan,
        m,
        n_vertices=TEST_GRAPH.n,
        theta=prep.theta,
    )
    assert np.isclose(u_np, u_sp)
    assert np.isclose(u_np, res.utility)


def test_subset_excludes_im_piece(prepared_test_graph):
    assert prepared_test_graph.index.n_pieces == 3
    # the im coverage is a separate object, not among the core pieces
    for cov in prepared_test_graph.index.pieces:
        assert cov is not prepared_test_graph.im_cov
