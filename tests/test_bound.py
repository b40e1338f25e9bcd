"""Tests for ComputeBound (Alg 2) and ComputeBoundPro (Alg 3).

Partial plans and pools are bool masks over the index's (piece, promoter)
rows; row ``idx.piece_ptr[j] + i`` is promoter ``idx.pieces[j].promoters[i]``.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, plan_size
from repro.core.bound import (
    SearchStats,
    compute_bound,
    compute_bound_progressive,
)
from repro.core.coverage import BoundState
from repro.diffusion.mrr import index_from_sets

from .conftest import random_index


def full_pools(idx):
    return np.ones(idx.n_rows, dtype=bool)


def no_plan(idx):
    return np.zeros(idx.n_rows, dtype=bool)


@pytest.fixture(scope="module")
def idx():
    return random_index(n_vertices=40, theta=80, n_pieces=3, seed=13)


@pytest.fixture(scope="module")
def model():
    return LogisticModel.from_ratio(0.5)


def test_bound_upper_ge_lower(idx, model):
    res = compute_bound(idx, model, no_plan(idx), full_pools(idx), 5)
    assert res.upper >= res.lower - 1e-9


def test_bound_respects_budget(idx, model):
    for k in (1, 3, 6):
        res = compute_bound(idx, model, no_plan(idx), full_pools(idx), k)
        assert plan_size(res.plan) <= k


def test_bound_extends_partial_plan(idx, model):
    v = int(idx.pieces[0].promoters[0])
    partial = no_plan(idx)
    partial[idx.piece_ptr[0]] = True  # (piece 0, v)
    res = compute_bound(idx, model, partial, full_pools(idx), 4)
    assert v in res.plan[0]
    assert plan_size(res.plan) <= 4


def test_bound_first_pick_is_best_singleton(idx, model):
    """The branching pair must be the max singleton τ-marginal."""
    res = compute_bound(idx, model, no_plan(idx), full_pools(idx), 5)
    state = BoundState(idx, model, no_plan(idx))
    best = max(
        (state.gain(r), int(idx.piece[r]), int(idx.vertex[r])) for r in range(idx.n_rows)
    )
    r = res.first_pick
    assert (idx.piece[r], idx.vertex[r]) == (best[1], best[2])


def test_bound_lower_is_exact_au(idx, model):
    res = compute_bound(idx, model, no_plan(idx), full_pools(idx), 5)
    assert np.isclose(res.lower, estimate_au(idx, res.plan, model))


def test_bound_upper_majorizes_any_completion(idx, model):
    """τ(greedy) ≥ (1−1/e)·σ(any complete plan containing the partial);
    check against random completions — with a safety slack of exactly the
    theoretical factor."""
    res = compute_bound(idx, model, no_plan(idx), full_pools(idx), 4)
    g = np.random.default_rng(0)
    factor = 1 - 1 / np.e
    for _ in range(30):
        plan = {}
        for _ in range(4):
            j = int(g.integers(idx.n_pieces))
            plan.setdefault(j, set()).add(int(g.choice(idx.pieces[j].promoters)))
        assert res.upper >= factor * estimate_au(idx, plan, model) - 1e-9


def test_bound_pool_restriction(idx, model):
    pools = full_pools(idx)
    pools[idx.piece_ptr[0] : idx.piece_ptr[1]] = False  # piece 0 has no available promoters
    res = compute_bound(idx, model, no_plan(idx), pools, 5)
    assert 0 not in res.plan or not res.plan[0]


def test_bound_stats_accumulate(idx, model):
    stats = SearchStats()
    compute_bound(idx, model, no_plan(idx), full_pools(idx), 3, stats=stats)
    assert stats.bound_calls == 1 and stats.evals > 0


def test_greedy_matches_reference_implementation(idx, model):
    """Vectorized greedy == a slow reference greedy over the τ bound."""
    k = 4
    res = compute_bound(idx, model, no_plan(idx), full_pools(idx), k)
    state = BoundState(idx, model, no_plan(idx))
    chosen = []
    used = {j: set() for j in range(idx.n_pieces)}
    for _ in range(k):
        best = (0.0, None)
        for r in range(idx.n_rows):
            j, v = int(idx.piece[r]), int(idx.vertex[r])
            if v in used[j]:
                continue
            g = state.gain(r)
            if g > best[0]:
                best = (g, (j, v, r))
        if best[1] is None:
            break
        j, v, r = best[1]
        state.add(r)
        used[j].add(v)
        chosen.append((j, v))
    want = {j: s for j, s in ((j, set(vs for jj, vs in chosen if jj == j)) for j in range(idx.n_pieces)) if s}
    got = {j: s for j, s in res.plan.items() if s}
    # Greedy ties can break differently; compare the bound value instead.
    ref_tau = state.tau_scaled()
    assert np.isclose(res.upper, ref_tau, rtol=1e-9)


# ---------------------------------------------------------------------------
# Progressive bound (Algorithm 3)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_progressive_upper_vs_lower_theorem3(idx, model, eps):
    """The progressive τ may sit BELOW the completed candidate's σ (floor
    exit + candidate completion), but never below the Theorem-3 factor."""
    res = compute_bound_progressive(idx, model, no_plan(idx), full_pools(idx), 5, eps=eps)
    factor = max(0.0, 1 - np.exp(-1) - eps)
    assert res.upper >= factor * res.lower - 1e-9


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_progressive_respects_budget(idx, model, eps):
    res = compute_bound_progressive(idx, model, no_plan(idx), full_pools(idx), 4, eps=eps)
    assert plan_size(res.plan) <= 4


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
def test_progressive_approximation_vs_plain(idx, model, eps):
    """Theorem 3: the progressive bound's τ is within (1−1/e−ε)/(1−1/e)
    of the plain greedy's — in practice far closer."""
    plain = compute_bound(idx, model, no_plan(idx), full_pools(idx), 5)
    prog = compute_bound_progressive(idx, model, no_plan(idx), full_pools(idx), 5, eps=eps)
    ratio = (1 - np.exp(-1) - eps) / (1 - np.exp(-1))
    assert prog.upper >= ratio * plain.upper - 1e-9


def test_progressive_fewer_evals_on_large_instance(model):
    """The raison d'être of Alg 3: far fewer τ evaluations than full scans."""
    big = random_index(n_vertices=300, theta=400, n_pieces=3, density=0.03, seed=21)
    pools = full_pools(big)
    s_plain, s_prog = SearchStats(), SearchStats()
    compute_bound(big, model, no_plan(big), pools, 20, stats=s_plain)
    compute_bound_progressive(big, model, no_plan(big), pools, 20, eps=0.5, stats=s_prog)
    assert s_prog.evals < s_plain.evals


def test_progressive_threshold_floor_terminates(idx, model):
    """With a huge ε the threshold collapses immediately; the algorithm must
    still return a valid budget-respecting plan rather than loop."""
    res = compute_bound_progressive(idx, model, no_plan(idx), full_pools(idx), 10, eps=50.0)
    assert plan_size(res.plan) <= 10
    assert res.lower >= 0.0 and res.upper >= 0.0


def test_progressive_candidate_completion_fills_budget(model):
    """After the Theorem-3 floor exit, remaining budget is filled for the
    candidate plan (lower bound) without inflating the frozen upper bound."""
    big = random_index(n_vertices=150, theta=300, n_pieces=3, density=0.03, seed=77)
    pools = full_pools(big)
    res = compute_bound_progressive(big, model, no_plan(big), pools, 30, eps=0.5)
    plain = compute_bound(big, model, no_plan(big), pools, 30)
    assert plan_size(res.plan) == plan_size(plain.plan) == 30
    assert res.lower >= 0.85 * plain.lower


def test_progressive_empty_pool(model):
    small = random_index(n_vertices=10, theta=10, n_pieces=2, seed=3)
    pools = ~full_pools(small)
    res = compute_bound_progressive(small, model, no_plan(small), pools, 3)
    assert plan_size(res.plan) == 0 and res.lower == 0.0


def test_bound_first_pick_tie_order():
    """Equal marginals: the greedy takes the lowest piece, then the lowest
    vertex — the first row in CSR order."""
    idx = index_from_sets({0: [{3}, {5}], 1: [{1}, {2}]}, n_vertices=6)
    m = LogisticModel.from_ratio(0.5)
    res = compute_bound(idx, m, no_plan(idx), full_pools(idx), 1)
    assert res.plan == {0: {3}} and res.first_pick == 0
    pool = full_pools(idx)
    pool[:2] = False
    res = compute_bound_progressive(idx, m, no_plan(idx), pool, 1)
    assert res.plan == {1: {1}} and res.first_pick == 2


@pytest.mark.parametrize("bound", [compute_bound, compute_bound_progressive])
def test_bound_on_index_without_rows(bound, model):
    """A pool that covers no sample leaves R = 0 rows: empty plan, τ = 0."""
    idx = index_from_sets({0: [{0}, {1}], 1: [{1}, set()]}, n_vertices=3, promoter_pool=[2])
    assert idx.n_rows == 0
    res = bound(idx, model, no_plan(idx), full_pools(idx), 3)
    assert res.plan == {} and res.lower == 0.0 and res.upper == 0.0
    assert res.first_pick is None
