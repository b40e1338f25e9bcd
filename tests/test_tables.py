"""Tests for the table generators (one per reproduced evaluation table)."""
from __future__ import annotations

import math

import pytest

from repro.experiments.tables import (
    BENCH,
    FULL,
    PAPER_REFERENCE,
    Scale,
    TABLES,
    eps_sweep_rows,
    rows_to_markdown,
    table3_rows,
    vary_k_rows,
    vary_l_rows,
    vary_ratio_rows,
)

# A micro scale so table-generator integration tests stay fast: the tiny
# test graph is not in DATASETS, so reuse lastfm but at trivial θ — too
# slow.  Instead we run the generators against a one-dataset micro Scale
# pointed at the smallest real dataset only for table3, and exercise the
# sweep generators on the session-cached test graph through run_methods
# (covered in test_harness).  Here we validate structure with monkeypatched
# DATASETS entries pointing at the tiny graph.
MICRO = Scale(
    theta=200,
    datasets=("test_graph",),
    k_values=(2, 4),
    l_values=(1, 2),
    ratio_values=(0.5,),
    eps_values=(0.5,),
    max_pops=10,
    seed=77,
)


@pytest.fixture(autouse=True)
def _register_test_graph(monkeypatch):
    from repro.graphs.datasets import TEST_GRAPH
    import repro.experiments.tables as tables_mod

    monkeypatch.setitem(tables_mod.DATASETS, "test_graph", TEST_GRAPH)
    yield


def test_registry_complete():
    assert set(TABLES) == {"table3", "eps_sweep", "vary_k", "vary_l", "vary_ratio"}


def test_scales_sane():
    for s in (FULL, BENCH, MICRO):
        assert s.theta > 0 and s.k_values and s.datasets


def test_paper_reference_covers_result_tables():
    assert set(PAPER_REFERENCE) == {"eps_sweep", "vary_k", "vary_l", "vary_ratio"}


def test_table3(spark):
    rows = table3_rows(spark, MICRO)
    assert len(rows) == 1
    r = rows[0]
    assert r["dataset"] == "test_graph"
    assert r["vertices"] == 120
    assert r["edges"] > 0
    assert math.isclose(r["avg_degree"], r["edges"] / r["vertices"], rel_tol=0.01)
    assert r["sample_seconds"] > 0 and r["index_seconds"] > 0


def test_eps_sweep(spark):
    rows = eps_sweep_rows(spark, MICRO)
    assert len(rows) == 1
    assert rows[0]["method"] == "BAB-P"
    assert rows[0]["eps"] == 0.5
    assert rows[0]["utility"] > 0


def test_vary_k(spark):
    rows = vary_k_rows(spark, MICRO)
    assert len(rows) == 2 * 4  # two k values x four methods
    ks = {r["k"] for r in rows}
    assert ks == {2, 4}
    methods = {r["method"] for r in rows}
    assert methods == {"IM", "TIM", "BAB", "BAB-P"}


def test_vary_l(spark):
    rows = vary_l_rows(spark, MICRO)
    assert len(rows) == 2 * 4
    assert {r["l"] for r in rows} == {1, 2}


def test_vary_ratio(spark):
    rows = vary_ratio_rows(spark, MICRO)
    assert len(rows) == 1 * 4
    assert all(r["ratio"] == 0.5 for r in rows)


def test_rows_to_markdown():
    md = rows_to_markdown([{"a": 1, "b": 0.123456}, {"a": 2, "b": 3.0}])
    lines = md.splitlines()
    assert lines[0] == "| a | b |"
    assert len(lines) == 4
    assert "0.1235" in md
    assert rows_to_markdown([]) == "(no rows)"
