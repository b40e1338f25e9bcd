"""ComputeBound (Algorithm 2) and ComputeBoundPro (Algorithm 3).

Both complete a partial plan S̄a to (at most) k assignments by maximizing
the anchored submodular bound τ(·|S̄a), and return:

* the completed candidate plan S̄ ∪ S̄a,
* its exact MRR-estimated AU σ(S̄ ∪ S̄a) — a lower bound for the subspace,
* τ(S̄|S̄a) — the upper bound used for pruning,
* the first greedy pick — reused by the framework as the branching pair v*.

The partial plan and the candidate pool are bool masks over the index's
pair-CSR rows (one row per (piece, promoter) pair); the completed plan is
turned into a ``Plan`` dict only for the result and its AU.

Algorithm 2 is the plain greedy: each of the k' iterations scans every
available row of every piece in one pass and takes the global argmax, so
ties go to the first row (lowest piece, then lowest vertex).  Algorithm 3
is the progressive variant: rows are sorted once by their singleton gain
δ∅(v) (a stable sort, so ties keep row order); a threshold h starting at
the largest singleton gain admits any row whose current marginal meets it,
and decays by (1+ε) per round, with two early exits — the sorted-order
break (δ∅(v) < h ⇒ δ_S̄(v) < h by submodularity) and the
h ≤ τ·e⁻¹/((k−|S̄a|)(1−e⁻¹)) floor of Theorem 3.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel, Plan, estimate_au
from .coverage import BoundState

E_FLOOR = np.exp(-1.0) / (1.0 - np.exp(-1.0))


@dataclass
class BoundResult:
    plan: Plan  # completed candidate plan (S̄ ∪ S̄a)
    lower: float  # σ(S̄ ∪ S̄a), exact on the MRR sketch
    upper: float  # τ(S̄|S̄a), scaled to AU units
    first_pick: int | None  # row of the branching (piece, promoter) pair
    evals: int  # τ-marginal evaluations spent


@dataclass
class SearchStats:
    bound_calls: int = 0
    evals: int = 0
    extra: dict = field(default_factory=dict)


def _result(
    state: BoundState, plan: np.ndarray, upper: float, first_pick: int | None,
    stats: SearchStats | None,
) -> BoundResult:
    """Reduce a finished greedy to its result; plan becomes a Plan dict."""
    plan_dict = state.index.plan_of(plan)
    if stats is not None:
        stats.bound_calls += 1
        stats.evals += state.evals
    return BoundResult(
        plan=plan_dict,
        lower=estimate_au(state.index, plan_dict, state.model),
        upper=upper,
        first_pick=first_pick,
        evals=state.evals,
    )


def compute_bound(
    index: MRRIndex,
    model: LogisticModel,
    partial_plan: np.ndarray,
    pool: np.ndarray,
    k: int,
    *,
    stats: SearchStats | None = None,
) -> BoundResult:
    """Algorithm 2: plain greedy bound estimation (full scans)."""
    state = BoundState(index, model, partial_plan)
    plan = partial_plan.copy()
    avail = pool & ~plan
    first_pick: int | None = None
    for _ in range(k - int(partial_plan.sum())):
        if not avail.any():
            break
        gains = state.gains_all(avail)
        r = int(np.argmax(gains))
        if gains[r] <= 0.0:
            break
        state.add(r)
        avail[r] = False
        plan[r] = True
        if first_pick is None:
            first_pick = r
    return _result(state, plan, state.tau_scaled(), first_pick, stats)


def compute_bound_progressive(
    index: MRRIndex,
    model: LogisticModel,
    partial_plan: np.ndarray,
    pool: np.ndarray,
    k: int,
    *,
    eps: float = 0.5,
    stats: SearchStats | None = None,
) -> BoundResult:
    """Algorithm 3: progressive threshold-based bound estimation."""
    state = BoundState(index, model, partial_plan)
    plan = partial_plan.copy()
    avail = pool & ~plan
    budget = k - int(partial_plan.sum())
    first_pick: int | None = None

    # Line 2: order the available rows by singleton gain δ∅(v).
    g0 = state.gains_all(avail)
    order = np.flatnonzero(g0 > 0.0)
    order = order[np.argsort(-g0[order], kind="stable")]
    g0, order = g0[order].tolist(), order.tolist()

    n_added = 0
    if order and budget > 0:
        h = g0[0]  # Lines 3-4: maxinf
        while n_added < budget:
            for g, r in zip(g0, order):
                if g < h:
                    break  # Lines 11-12: sorted order ⇒ no later row passes
                if plan[r]:
                    continue
                if state.gain(r) >= h:
                    state.add(r)
                    plan[r] = True
                    if first_pick is None:
                        first_pick = r
                    n_added += 1
                    if n_added >= budget:
                        break
            if n_added >= budget:
                break
            h = h / (1.0 + eps)  # Line 13
            if h <= state.tau() / budget * E_FLOOR:  # Line 14
                break

    # Freeze the upper bound BEFORE candidate completion: Theorem 3's
    # d < k' case bounds the subspace by τ of the *threshold-selected*
    # plan, so budget-filling below must not inflate it.
    upper = state.tau_scaled()

    # Candidate completion: the floor exit (line 14) may leave budget
    # unused ("could early terminate even when there are less than k
    # promoters selected", §VI-C).  That is fine for the bound but wastes
    # lower-bound quality, so fill the remaining slots with any
    # still-positive marginals, scanning once in δ∅ order.  This only
    # raises the candidate plan's AU — pruning validity is untouched.
    for r in order:
        if n_added >= budget:
            break
        if not plan[r] and state.gain(r) > 0.0:
            state.add(r)
            plan[r] = True
            if first_pick is None:
                first_pick = r
            n_added += 1

    return _result(state, plan, upper, first_pick, stats)
