"""Golden BAB / BAB-P outputs, reproduced bit for bit.

``golden_search.json`` holds, per (sketch, β/α, k, method), the sorted plan,
the utility, upper bound and gap (as ``float.hex``) and the pops, bound
calls and τ-evaluations of one search at ``gap_tol=0``.  Any change to the
search kernel must leave every record unchanged; regenerate the file with
``python -m tests.test_golden_search`` only when a change is meant to alter
search results, and say why.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.adoption import LogisticModel
from repro.core.bab import branch_and_bound

from .conftest import random_index

GOLDEN_PATH = Path(__file__).with_name("golden_search.json")
RATIOS = (0.3, 0.5)
KS = (5, 10)
METHODS = ("BAB", "BAB-P")
MAX_POPS = 40
RANDOM_SKETCHES = {
    "rand0": dict(seed=0),
    "rand1": dict(seed=1, n_vertices=60, theta=120),
    "rand2": dict(seed=2, n_pieces=4, density=0.1),
    "rand3": dict(seed=3, n_vertices=80, theta=100, n_pieces=2, density=0.08),
    "rand4-pool": dict(seed=4, pool=np.arange(0, 40, 3)),
}


def search_record(index, ratio: float, k: int, method: str) -> dict:
    res = branch_and_bound(
        index,
        LogisticModel.from_ratio(ratio),
        k,
        progressive=(method == "BAB-P"),
        gap_tol=0.0,
        max_pops=MAX_POPS,
    )
    return {
        "plan": sorted([int(j), int(v)] for j, seeds in res.plan.items() for v in seeds),
        "utility": float(res.utility).hex(),
        "upper_bound": float(res.upper_bound).hex(),
        "gap": float(res.gap).hex(),
        "pops": res.pops,
        "bound_calls": res.bound_calls,
        "evals": res.evals,
    }


def sketch_records(name: str, index) -> dict[str, dict]:
    return {
        f"{name}/{ratio}/{k}/{method}": search_record(index, ratio, k, method)
        for ratio in RATIOS
        for k in KS
        for method in METHODS
    }


def _golden(name: str) -> dict[str, dict]:
    golden = json.loads(GOLDEN_PATH.read_text())
    out = {key: rec for key, rec in golden.items() if key.split("/")[0] == name}
    assert len(out) == len(RATIOS) * len(KS) * len(METHODS)
    return out


@pytest.mark.parametrize("name", sorted(RANDOM_SKETCHES))
def test_golden_random_sketch(name):
    assert sketch_records(name, random_index(**RANDOM_SKETCHES[name])) == _golden(name)


def test_golden_test_graph_sketch(prepared_test_graph):
    assert sketch_records("test_graph", prepared_test_graph.index) == _golden("test_graph")


if __name__ == "__main__":  # regenerate golden_search.json
    from pyspark.sql import SparkSession

    from repro.experiments.harness import prepare
    from repro.graphs.datasets import TEST_GRAPH

    records = {}
    for name, kw in RANDOM_SKETCHES.items():
        records |= sketch_records(name, random_index(**kw))
    spark = SparkSession.builder.master("local[2]").getOrCreate()
    try:
        prep = prepare(spark, TEST_GRAPH, n_pieces=3, theta=300, seed=77)
        records |= sketch_records("test_graph", prep.index)
    finally:
        spark.stop()
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
