"""Driver-side MRR index: the sampled sketch the search algorithms run on.

Spark produces the MRR membership table (piece, sample_id, vertex); the
index restricts it to the promoter pool V^p and sorts it into a per-piece
CSR of per-promoter covered-sample arrays, so greedy marginal-gain scans
are vectorized numpy (`np.add.reduceat`).  Everything the branch-and-bound
needs is in this object; the raw DataFrame stays available for Spark-side AU
evaluation and oracle checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class PieceCoverage:
    """CSR coverage of one piece: promoters[i] covers samples
    ``samples[indptr[i]:indptr[i+1]]``."""

    promoters: np.ndarray  # (P,) int32, sorted promoter vertex ids
    indptr: np.ndarray  # (P+1,) int64
    samples: np.ndarray  # concatenated sample ids, int32

    def covered_by(self, v: int) -> np.ndarray:
        i = int(np.searchsorted(self.promoters, v))
        if i >= len(self.promoters) or self.promoters[i] != v:
            return np.empty(0, dtype=np.int32)
        return self.samples[self.indptr[i] : self.indptr[i + 1]]


@dataclass
class MRRIndex:
    """The full sketch: θ samples × ℓ pieces, restricted to promoters V^p."""

    n_vertices: int
    theta: int
    n_pieces: int
    promoter_pool: np.ndarray  # (|V^p|,) int32 sorted
    pieces: list[PieceCoverage] = field(default_factory=list)

    def covered_by(self, piece: int, v: int) -> np.ndarray:
        return self.pieces[piece].covered_by(v)

    def subset(self, piece_ids: list[int]) -> "MRRIndex":
        """A view-like index over a subset of pieces (e.g. dropping the
        extra topic-agnostic 'piece' sampled for the IM baseline)."""
        return MRRIndex(
            n_vertices=self.n_vertices,
            theta=self.theta,
            n_pieces=len(piece_ids),
            promoter_pool=self.promoter_pool,
            pieces=[self.pieces[j] for j in piece_ids],
        )

    def plan_counts(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """Per-sample count of distinct pieces whose seed set reaches the root."""
        counts = np.zeros(self.theta, dtype=np.int64)
        for j, seeds in plan.items():
            if not seeds:
                continue
            covered = np.zeros(self.theta, dtype=bool)
            for v in seeds:
                covered[self.covered_by(j, int(v))] = True
            counts += covered
        return counts


def build_index(
    mrr_df: DataFrame,
    *,
    n_vertices: int,
    theta: int,
    n_pieces: int,
    promoter_pool: np.ndarray,
) -> MRRIndex:
    """Pivot the Spark MRR table into an :class:`MRRIndex`.

    Only memberships of promoters in V^p are collected (as Arrow); the
    pivot itself is one sort on the driver.
    """
    pool = np.sort(np.asarray(promoter_pool, dtype=np.int32))
    rows = (
        mrr_df.where(F.col("vertex").isin(pool.tolist()))
        .select("piece", "vertex", "sample_id")
        .toArrow()
    )
    piece, vertex, sample = (rows.column(c).to_numpy() for c in rows.column_names)
    return _assemble(n_vertices, theta, n_pieces, pool, piece, vertex, sample)


def index_from_sets(
    rr_sets: dict[int, list[set[int]]],
    *,
    n_vertices: int,
    promoter_pool: np.ndarray | None = None,
) -> MRRIndex:
    """Build an index directly from explicit RR sets (tests, paper examples).

    ``rr_sets[piece][i]`` is the vertex set of R_i^piece; every piece must
    provide θ sets.  Defaults the promoter pool to all vertices.
    """
    n_pieces = len(rr_sets)
    theta = len(rr_sets[0])
    pool = (
        np.arange(n_vertices, dtype=np.int32)
        if promoter_pool is None
        else np.sort(np.asarray(promoter_pool, dtype=np.int32))
    )
    for j in range(n_pieces):
        assert len(rr_sets[j]) == theta, "all pieces must have θ RR sets"
    rows = np.asarray(
        [(j, v, i) for j in range(n_pieces) for i, s in enumerate(rr_sets[j]) for v in s],
        dtype=np.int64,
    ).reshape(-1, 3)
    rows = rows[np.isin(rows[:, 1], pool)]
    return _assemble(n_vertices, theta, n_pieces, pool, *rows.T)


def _assemble(
    n_vertices: int,
    theta: int,
    n_pieces: int,
    pool: np.ndarray,
    piece: np.ndarray,
    vertex: np.ndarray,
    sample: np.ndarray,
) -> MRRIndex:
    """The index of the memberships (piece[r], vertex[r], sample[r]): each
    piece's promoters sorted, each promoter's samples sorted."""
    order = np.lexsort((sample, vertex, piece))
    piece = piece[order]
    vertex = vertex[order].astype(np.int32)
    sample = sample[order].astype(np.int32)
    bounds = np.searchsorted(piece, np.arange(n_pieces + 1))
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        v = vertex[lo:hi]
        first = np.flatnonzero(np.diff(v, prepend=-1) != 0)
        pieces.append(
            PieceCoverage(
                promoters=v[first],
                indptr=np.append(first, len(v)).astype(np.int64),
                samples=sample[lo:hi],
            )
        )
    return MRRIndex(
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        promoter_pool=pool,
        pieces=pieces,
    )
