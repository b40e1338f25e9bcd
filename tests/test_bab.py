"""Tests for the branch-and-bound framework (Algorithm 1): BAB and BAB-P."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, plan_size
from repro.core.bab import branch_and_bound
from repro.core.reduction import brute_force_oipa
from repro.diffusion.mrr import index_from_sets

from .conftest import random_index

APPROX = 1 - 1 / np.e


def test_example1_exact(ex1_index, ex1_model):
    """BAB recovers the paper's optimal plan {t1→a, t2→e} at k=2."""
    res = branch_and_bound(ex1_index, ex1_model, 2)
    assert res.plan == {0: {0}, 1: {4}}
    assert np.isclose(res.utility, 1.0452, atol=1e-3)
    assert res.gap <= 0.01


def test_example1_progressive_exact(ex1_index, ex1_model):
    res = branch_and_bound(ex1_index, ex1_model, 2, progressive=True)
    assert res.plan == {0: {0}, 1: {4}}


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_approximation_ratio_vs_bruteforce(progressive, seed):
    """Theorems 2-3 on tiny random instances (brute-force optimum known)."""
    idx = random_index(n_vertices=8, theta=25, n_pieces=2, density=0.25, seed=seed)
    m = LogisticModel.from_ratio(0.5)
    _, opt = brute_force_oipa(idx, m, 2)
    res = branch_and_bound(idx, m, 2, progressive=progressive)
    ratio = APPROX - (0.5 if progressive else 0.0) * 0  # Theorem 3 uses 1-1/e-ε
    floor = (APPROX - 0.5) if progressive else APPROX
    assert res.utility >= floor * opt - 1e-9
    # Empirically BAB should be essentially optimal on these instances.
    if not progressive:
        assert res.utility >= 0.95 * opt


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
def test_budget_respected(progressive):
    idx = random_index(seed=30)
    m = LogisticModel.from_ratio(0.5)
    for k in (1, 3, 6):
        res = branch_and_bound(idx, m, k, progressive=progressive, max_pops=50)
        assert plan_size(res.plan) <= k


def test_utility_is_exact_au_of_plan():
    idx = random_index(seed=31)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 4, max_pops=50)
    assert np.isclose(res.utility, estimate_au(idx, res.plan, m))


def test_upper_bound_dominates_utility():
    idx = random_index(seed=32)
    m = LogisticModel.from_ratio(0.3)
    res = branch_and_bound(idx, m, 4, max_pops=50)
    assert res.upper_bound >= res.utility - 1e-9
    assert 0.0 <= res.gap <= 1.0


def test_gap_tolerance_respected():
    idx = random_index(seed=33)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 3, gap_tol=0.10, max_pops=2000)
    if res.pops < 2000:  # terminated by criterion or exhaustion
        assert res.gap <= 0.10 + 1e-9


def test_utility_monotone_in_k():
    idx = random_index(seed=34)
    m = LogisticModel.from_ratio(0.5)
    utils = [
        branch_and_bound(idx, m, k, max_pops=60).utility for k in (1, 2, 4, 8)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(utils, utils[1:]))


def test_progressive_close_to_plain():
    """§VI-C: BAB-P has 'near-equivalent adoption utilities' to BAB."""
    idx = random_index(n_vertices=60, theta=120, n_pieces=3, seed=35)
    m = LogisticModel.from_ratio(0.5)
    bab = branch_and_bound(idx, m, 6, max_pops=60)
    babp = branch_and_bound(idx, m, 6, progressive=True, max_pops=60)
    assert babp.utility >= 0.9 * bab.utility


def test_progressive_cheaper():
    """BAB-P spends fewer τ evaluations than BAB on the same instance."""
    idx = random_index(n_vertices=200, theta=300, n_pieces=3, density=0.04, seed=36)
    m = LogisticModel.from_ratio(0.5)
    bab = branch_and_bound(idx, m, 15, max_pops=15)
    babp = branch_and_bound(idx, m, 15, progressive=True, max_pops=15)
    assert babp.evals < bab.evals


def test_max_pops_backstop():
    idx = random_index(seed=37)
    m = LogisticModel.from_ratio(0.3)
    res = branch_and_bound(idx, m, 5, max_pops=3)
    assert res.pops <= 3
    assert res.utility > 0


def test_stop_reason_gap():
    idx = random_index(seed=37)
    res = branch_and_bound(idx, LogisticModel.from_ratio(0.3), 5, gap_tol=1.0)
    assert res.stop_reason == "gap" and res.pops == 1


def test_stop_reason_exhausted():
    """The heap drains after some pops: the bound is tight, gap 0."""
    idx = random_index(n_vertices=12, theta=30, density=0.2, seed=33)
    res = branch_and_bound(idx, LogisticModel.from_ratio(0.3), 3, gap_tol=0.0, max_pops=500)
    assert res.stop_reason == "exhausted" and res.pops == 17 and res.gap == 0.0


def test_stop_reason_max_pops():
    idx = random_index(seed=37)
    res = branch_and_bound(idx, LogisticModel.from_ratio(0.3), 5, gap_tol=0.0, max_pops=3)
    assert res.stop_reason == "max_pops" and res.pops == 3 and res.gap > 0.0


def test_negative_budget_raises():
    with pytest.raises(ValueError, match="k"):
        branch_and_bound(random_index(seed=38), LogisticModel.from_ratio(0.5), -1)


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
def test_index_without_rows(progressive):
    """A promoter pool that covers no sample (R = 0): empty plan, utility 0."""
    idx = index_from_sets({0: [{0}, {1}], 1: [{1}, set()]}, n_vertices=3, promoter_pool=[2])
    assert idx.n_rows == 0
    res = branch_and_bound(idx, LogisticModel.from_ratio(0.3), 3, progressive=progressive)
    assert res.plan == {} and res.utility == 0.0 and res.gap == 0.0
    assert res.stop_reason == "exhausted"


def test_result_metadata():
    idx = random_index(seed=38)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 3, max_pops=20)
    assert res.method == "BAB" and res.seconds >= 0 and res.bound_calls >= 1
    resp = branch_and_bound(idx, m, 3, progressive=True, max_pops=20)
    assert resp.method == "BAB-P" and resp.extra["eps"] == 0.5


def test_plan_within_promoter_pool():
    pool = np.array([0, 2, 4, 6, 8, 10, 12, 14])
    idx = random_index(n_vertices=20, theta=40, n_pieces=2, seed=39, pool=pool)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 4, max_pops=40)
    for seeds in res.plan.values():
        assert set(seeds) <= set(pool.tolist())


def test_beats_or_matches_single_piece_plans():
    """BAB must never lose to the best 'all budget on one piece' plan —
    that plan is in its search space."""
    idx = random_index(n_vertices=40, theta=80, n_pieces=3, seed=40)
    m = LogisticModel.from_ratio(0.5)
    from repro.core.baselines import tim_baseline

    res = branch_and_bound(idx, m, 5, max_pops=100)
    tim = tim_baseline(idx, m, 5)
    assert res.utility >= tim.utility - 1e-6
