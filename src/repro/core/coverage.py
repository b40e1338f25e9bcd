"""Vectorized coverage state for the upper-bound greedy (Algorithms 2–3).

A :class:`BoundState` tracks, for one `ComputeBound` invocation anchored at
a partial plan S̄a (a bool mask over the index's (piece, promoter) rows):
the per-sample anchor counts c₀ (pieces covered by S̄a), the current counts
c (after greedy additions), one flat covered mask over the ℓ·θ
(piece, sample) cells, and the per-sample weight vector w = D[c₀, c] of the
delta table, kept up to date as rows are added.  A full scan of every row's
marginal τ-gain is one gather of w over the pair CSR, one masked zeroing of
already-covered cells and one `np.add.reduceat`.

``stats`` dicts count τ-marginal evaluations — the complexity currency of
§V-C (Theorem 4) used for the BAB vs BAB-P accounting.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel
from .envelope import delta_table, envelope_table


def anchor_from_plan(index: MRRIndex, plan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c0, covered): per-sample anchor counts and the flat (piece·θ + sample)
    covered mask induced by the partial plan row mask — the Fig-2
    refinement state."""
    covered = np.zeros(index.n_pieces * index.theta, dtype=bool)
    covered[index.keys[index.entries(np.flatnonzero(plan))]] = True
    return covered.reshape(index.n_pieces, index.theta).sum(axis=0), covered


@lru_cache(maxsize=32)
def _tables(model: LogisticModel, n_pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """The envelope table G and its delta table D, shared (read-only) by
    every bound call of a search."""
    G = envelope_table(model, n_pieces)
    D = delta_table(G)
    G.flags.writeable = D.flags.writeable = False
    return G, D


def masked_reduceat(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Segment sums with correct 0 for empty segments (reduceat quirk)."""
    n_seg = len(indptr) - 1
    out = np.zeros(n_seg, dtype=np.float64)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size and nonempty.any():
        sums = np.add.reduceat(values, indptr[:-1][nonempty])
        out[nonempty] = sums
    return out


class BoundState:
    """Mutable greedy state over the anchored envelope bound."""

    def __init__(self, index: MRRIndex, model: LogisticModel, plan: np.ndarray):
        self.index = index
        self.model = model
        self.G, self.D = _tables(model, index.n_pieces)
        self.c0, self.covered = anchor_from_plan(index, plan)
        self.c = self.c0.copy()
        self.w = self.D[self.c0, self.c]  # gain of newly covering each sample
        self._D, self._row = self.D.ravel(), self.c0 * self.D.shape[1]  # flat D[c0, ·]
        # Row count and first row of each non-empty piece, for gains_all's
        # eval count.
        rows = np.diff(index.piece_ptr)
        self._piece_rows, self._piece_starts = rows[rows > 0], index.piece_ptr[:-1][rows > 0]
        self.evals = 0  # number of τ-marginal evaluations (promoters scored)

    # -- bound value ---------------------------------------------------
    def tau(self) -> float:
        """Unscaled τ = Σ_i G[c₀_i, c_i] (multiply by n/θ for AU units)."""
        return float(self.G[self.c0, self.c].sum())

    def tau_scaled(self) -> float:
        return self.index.n_vertices / self.index.theta * self.tau()

    # -- marginal gains ------------------------------------------------
    def gains_all(self, avail: np.ndarray) -> np.ndarray:
        """Marginal τ-gain of every row (CSR order), −inf where ``avail`` is
        not set.  Counts one evaluation per row of every piece that has an
        available row — the 'scan all candidates' cost of plain
        ComputeBound."""
        idx = self.index
        if not idx.n_rows:
            return np.zeros(0)
        self.evals += int(self._piece_rows[np.logical_or.reduceat(avail, self._piece_starts)].sum())
        gains = self.w[idx.samples]
        gains[self.covered[idx.keys]] = 0.0
        gains = np.add.reduceat(gains, idx.indptr[:-1])
        gains[~avail] = -np.inf
        return gains

    def gain(self, r: int) -> float:
        """Marginal τ-gain of adding row ``r``.

        O(|covered samples of r|), not O(θ): this is what makes the
        progressive method's per-evaluation cost match the Theorem 4
        accounting (a τ evaluation touches only the promoter's RR sets).
        """
        self.evals += 1
        lo, hi = self.index.indptr[r], self.index.indptr[r + 1]
        fresh = ~self.covered[self.index.keys[lo:hi]]
        return float(self.w[self.index.samples[lo:hi][fresh]].sum())

    # -- mutation ------------------------------------------------------
    def add(self, r: int) -> None:
        lo, hi = self.index.indptr[r], self.index.indptr[r + 1]
        keys = self.index.keys[lo:hi]
        fresh = keys[~self.covered[keys]]
        self.covered[fresh] = True
        s = fresh - int(self.index.piece[r]) * self.index.theta
        c = self.c[s] + 1
        self.c[s] = c
        self.w[s] = self._D[self._row[s] + c]
