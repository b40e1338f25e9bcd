"""Tests for the vectorized bound state (greedy machinery of Algorithms 2-3).

Plans and pools are bool masks over the index's (piece, promoter) rows;
row ``idx.piece_ptr[j] + i`` is promoter ``idx.pieces[j].promoters[i]``.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import LogisticModel
from repro.core.coverage import BoundState, anchor_from_plan, masked_reduceat
from repro.core.envelope import envelope_table

from .conftest import random_index


def mask(idx, rows=()):
    m = np.zeros(idx.n_rows, dtype=bool)
    m[list(rows)] = True
    return m


def row(idx, j, i):
    """Row of the i-th promoter of piece j."""
    return int(idx.piece_ptr[j]) + i


def random_row(idx, g):
    j = int(g.integers(idx.n_pieces))
    return int(g.integers(idx.piece_ptr[j], idx.piece_ptr[j + 1]))


def test_masked_reduceat_basic():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    indptr = np.array([0, 2, 2, 4])  # middle segment empty
    out = masked_reduceat(vals, indptr)
    assert np.allclose(out, [3.0, 0.0, 7.0])


def test_masked_reduceat_all_empty():
    out = masked_reduceat(np.empty(0), np.array([0, 0, 0]))
    assert np.allclose(out, [0.0, 0.0])


def test_masked_reduceat_single():
    assert np.allclose(masked_reduceat(np.array([5.0]), np.array([0, 1])), [5.0])


def test_anchor_from_plan_empty():
    idx = random_index()
    c0, covered = anchor_from_plan(idx, mask(idx))
    assert c0.sum() == 0 and not covered.any()


def test_anchor_from_plan_counts():
    idx = random_index(seed=2)
    v = int(idx.pieces[0].promoters[0])
    c0, covered = anchor_from_plan(idx, mask(idx, [row(idx, 0, 0)]))
    ids = idx.covered_by(0, v)
    assert covered.shape == (idx.n_pieces * idx.theta,)
    assert covered[0 * idx.theta + ids].all()
    assert c0.sum() == len(ids)


@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7])
def test_tau_of_empty_state_majorizes_au(ratio):
    """τ(∅|S̄a) ≥ σ(S̄a): the bound is valid at its own anchor."""
    from repro.core.adoption import estimate_au

    idx = random_index(seed=4)
    m = LogisticModel.from_ratio(ratio)
    plan = {0: {int(idx.pieces[0].promoters[0])}, 1: {int(idx.pieces[1].promoters[1])}}
    state = BoundState(idx, m, mask(idx, idx.rows_of(plan)))
    assert state.tau_scaled() >= estimate_au(idx, plan, m) - 1e-9


def test_gains_all_matches_single_gain():
    idx = random_index(seed=5)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, mask(idx))
    gains = state.gains_all(~mask(idx))
    for j in range(idx.n_pieces):
        for i in range(min(10, len(idx.pieces[j].promoters))):
            assert np.isclose(gains[row(idx, j, i)], state.gain(row(idx, j, i)))


def test_gain_equals_tau_difference():
    """δ(v) computed incrementally == τ(after add) − τ(before add)."""
    idx = random_index(seed=6)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, mask(idx))
    r = row(idx, 1, 3)
    g = state.gain(r)
    before = state.tau()
    state.add(r)
    assert np.isclose(g, state.tau() - before)


def test_add_idempotent():
    idx = random_index(seed=7)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, mask(idx))
    r = row(idx, 0, 0)
    state.add(r)
    tau1 = state.tau()
    state.add(r)
    assert np.isclose(state.tau(), tau1)
    assert state.gain(r) == 0.0


def test_submodularity_of_tau():
    """δ_A(v) ≥ δ_B(v) whenever A ⊆ B — the property Theorem 2 rests on."""
    idx = random_index(seed=8)
    m = LogisticModel.from_ratio(0.3)  # hardest curve
    g = np.random.default_rng(0)
    for trial in range(20):
        state_small = BoundState(idx, m, mask(idx))
        state_big = BoundState(idx, m, mask(idx))
        # grow B beyond A by two random additions
        for _ in range(2):
            state_big.add(random_row(idx, g))
        r = random_row(idx, g)
        assert state_small.gain(r) >= state_big.gain(r) - 1e-9


def test_monotonicity_of_tau():
    idx = random_index(seed=9)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, mask(idx))
    prev = state.tau()
    g = np.random.default_rng(1)
    for _ in range(10):
        state.add(random_row(idx, g))
        assert state.tau() >= prev - 1e-9
        prev = state.tau()


def test_eval_counter_increments():
    idx = random_index(seed=10)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, mask(idx))
    state.gains_all(mask(idx, range(idx.piece_ptr[0], idx.piece_ptr[1])))  # piece 0 only
    assert state.evals == len(idx.pieces[0].promoters)
    state.gain(row(idx, 1, 0))
    assert state.evals == len(idx.pieces[0].promoters) + 1


def test_anchored_state_uses_refined_envelope():
    """A partial plan advances anchors: gains shrink where pieces overlap,
    exactly the Fig-2 tangent refinement."""
    idx = random_index(seed=11)
    m = LogisticModel.from_ratio(0.3)
    v0 = int(idx.pieces[0].promoters[0])
    empty = BoundState(idx, m, mask(idx))
    refined = BoundState(idx, m, mask(idx, [row(idx, 0, 0)]))
    G = envelope_table(m, idx.n_pieces)
    assert refined.tau() <= empty.tau() + G[0, 1] * idx.theta  # sanity scale
    # the refined state's anchor counts reflect the partial plan
    assert refined.c0.sum() == len(idx.covered_by(0, v0))


@pytest.mark.parametrize("seed", [12, 13, 14])
def test_flat_gains_all_equals_per_piece_reference(seed):
    """One reduceat over every row == per-piece masked_reduceat scans of
    the explicit D[c0, c] weights, bit for bit, mid-greedy."""
    idx = random_index(seed=seed, n_pieces=4, density=0.1)
    m = LogisticModel.from_ratio(0.3)
    g = np.random.default_rng(seed)
    state = BoundState(idx, m, mask(idx, [random_row(idx, g), random_row(idx, g)]))
    for _ in range(3):
        state.add(random_row(idx, g))
    gains = state.gains_all(~mask(idx))
    covered = state.covered.reshape(idx.n_pieces, idx.theta)
    for j, cov in enumerate(idx.pieces):
        w = state.D[state.c0, state.c].copy()
        w[covered[j]] = 0.0
        want = masked_reduceat(w[cov.samples], cov.indptr)
        assert np.array_equal(gains[idx.piece_ptr[j] : idx.piece_ptr[j + 1]], want)


def test_gains_all_blocks_unavailable_rows():
    idx = random_index(seed=15)
    state = BoundState(idx, LogisticModel.from_ratio(0.5), mask(idx))
    avail = ~mask(idx, [0, 5])
    gains = state.gains_all(avail)
    assert np.all(gains[~avail] == -np.inf) and np.all(gains[avail] >= 0.0)
