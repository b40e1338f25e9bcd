"""The branch-and-bound framework (Algorithm 1): BAB and BAB-P.

Partial plans live in a max-heap keyed by their τ upper bound.  Popping
the top entry yields the global upper bound U over the unexplored space;
the best candidate plan found by any `ComputeBound` completion is the
global lower bound L.  The search terminates when the relative gap
(U − L)/U falls inside ``gap_tol`` (the paper runs BAB "within 1% error
ratio"), when the heap empties (gap 0), or at the ``max_pops`` backstop.
The backstop is reached in practice: BAB on lastfm_lite and dblp_lite at
β/α=0.3, k=50 stops at the 500-pop cap with a 13–14% gap (EXPERIMENTS.md).
``BABResult.stop_reason`` says which of the three ended the search, and the
achieved gap is always reported.

Branching pair v* (Algorithm 1 line 9 is underspecified): the first pick
of the parent's greedy completion — the available (promoter, piece) pair
with the largest τ-marginal, which matches the paper's power-law
rationale of prioritizing high-influence promoters.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel, Plan
from .bound import (
    BoundResult,
    SearchStats,
    compute_bound,
    compute_bound_progressive,
)


@dataclass
class BABResult:
    plan: Plan
    utility: float  # σ of the returned plan (MRR estimate)
    upper_bound: float  # global U at termination
    gap: float  # (U − L) / U
    pops: int
    bound_calls: int
    evals: int
    seconds: float
    method: str = "BAB"
    stop_reason: str = "exhausted"  # "gap", "exhausted" or "max_pops"
    extra: dict = field(default_factory=dict)


def branch_and_bound(
    index: MRRIndex,
    model: LogisticModel,
    k: int,
    *,
    progressive: bool = False,
    eps: float = 0.5,
    gap_tol: float = 0.01,
    max_pops: int = 5000,
) -> BABResult:
    """Run BAB (plain bound) or BAB-P (progressive bound) for budget k.

    A partial plan and its candidate pool are bool masks over the index's
    (piece, promoter) rows; a child is its parent's masks with one row set
    or cleared.
    """
    if k < 0:
        raise ValueError(f"budget k must be non-negative, got {k}")
    t0 = time.perf_counter()
    stats = SearchStats()

    def bound(plan: np.ndarray, pool: np.ndarray) -> BoundResult:
        if progressive:
            return compute_bound_progressive(
                index, model, plan, pool, k, eps=eps, stats=stats
            )
        return compute_bound(index, model, plan, pool, k, stats=stats)

    empty = np.zeros(index.n_rows, dtype=bool)
    root = bound(empty, ~empty)
    best_plan, best_lower = root.plan, root.lower
    upper = root.upper

    tick = itertools.count()  # heap tiebreaker; masks aren't orderable
    heap: list[tuple[float, int, np.ndarray, np.ndarray, int]] = []
    if root.upper > best_lower and root.first_pick is not None:
        heapq.heappush(heap, (-root.upper, next(tick), empty, ~empty, root.first_pick))

    pops = 0
    stop_reason = "exhausted"
    while heap:
        if pops >= max_pops:
            stop_reason = "max_pops"
            break
        neg_u, _, plan, pool, r = heapq.heappop(heap)
        upper = -neg_u
        pops += 1
        if upper - best_lower <= gap_tol * max(upper, 1e-12):
            stop_reason = "gap"  # 1% termination criterion
            break
        size = int(plan.sum())
        if upper <= best_lower or size >= k:
            continue
        pool_b = pool.copy()
        pool_b[r] = False  # v* excluded (both children)
        plan_a = plan.copy()
        plan_a[r] = True  # v* included
        for child_plan, child_size in ((plan_a, size + 1), (plan, size)):
            res = bound(child_plan, pool_b)
            if res.lower > best_lower:
                best_lower, best_plan = res.lower, res.plan
            if res.upper > best_lower and res.first_pick is not None and child_size < k:
                heapq.heappush(
                    heap, (-res.upper, next(tick), child_plan, pool_b, res.first_pick)
                )

    if not heap and pops > 0:
        upper = best_lower  # space exhausted: bound is tight
    elif heap:
        upper = max(upper, -heap[0][0]) if pops >= max_pops else upper
    upper = max(upper, best_lower)
    gap = (upper - best_lower) / max(upper, 1e-12)
    return BABResult(
        plan=best_plan,
        utility=best_lower,
        upper_bound=upper,
        gap=gap,
        pops=pops,
        bound_calls=stats.bound_calls,
        evals=stats.evals,
        seconds=time.perf_counter() - t0,
        method="BAB-P" if progressive else "BAB",
        stop_reason=stop_reason,
        extra={"eps": eps} if progressive else {},
    )
