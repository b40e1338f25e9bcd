"""Driver-side MRR index: the sampled sketch the search algorithms run on.

Spark produces the MRR membership table (piece, sample_id, vertex); the
index restricts it to the promoter pool V^p and sorts it into one flat pair
CSR: one row per (piece, promoter) pair, each owning its sorted covered
samples — the flat-array RR-set index of IMM-style implementations.  A
marginal-gain scan over every row of every piece is then one gather and one
`np.add.reduceat`, and plans are bool masks over rows.  Per-piece
:class:`PieceCoverage` views serve the single-piece baselines.  Everything
the branch-and-bound needs is in this object; the raw DataFrame stays
available for Spark-side AU evaluation and oracle checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class PieceCoverage:
    """CSR coverage of one piece: promoters[i] covers samples
    ``samples[indptr[i]:indptr[i+1]]``.  Pieces of an :class:`MRRIndex`
    are views into its pair CSR (only ``indptr`` is rebased to 0)."""

    promoters: np.ndarray  # (P,) int32, sorted promoter vertex ids
    indptr: np.ndarray  # (P+1,) int64
    samples: np.ndarray  # concatenated sample ids, int32

    def covered_by(self, v: int) -> np.ndarray:
        i = int(np.searchsorted(self.promoters, v))
        if i >= len(self.promoters) or self.promoters[i] != v:
            return np.empty(0, dtype=np.int32)
        return self.samples[self.indptr[i] : self.indptr[i + 1]]


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(starts[i], ends[i])`` over i."""
    lens = ends - starts
    offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return offsets + np.arange(int(lens.sum()), dtype=np.int64)


@dataclass
class MRRIndex:
    """The full sketch: θ samples × ℓ pieces, restricted to promoters V^p.

    One pair CSR over the R (piece, promoter) rows, sorted by piece then
    vertex: row r is the pair (``piece[r]``, ``vertex[r]``) and covers the
    sorted samples ``samples[indptr[r]:indptr[r+1]]``.  Every row covers at
    least one sample.  ``keys[e] = piece·θ + samples[e]`` numbers the
    (piece, sample) cells, so a covered set over all pieces is one flat
    bool array of length ℓ·θ.
    """

    n_vertices: int
    theta: int
    n_pieces: int
    promoter_pool: np.ndarray  # (|V^p|,) int32 sorted
    piece: np.ndarray  # (R,) int32
    vertex: np.ndarray  # (R,) int32
    indptr: np.ndarray  # (R+1,) int64
    samples: np.ndarray  # (E,) int32
    keys: np.ndarray = field(init=False)  # (E,) int64
    piece_ptr: np.ndarray = field(init=False)  # (ℓ+1,) first row of each piece
    pieces: list[PieceCoverage] = field(init=False)

    def __post_init__(self):
        self.keys = np.repeat(self.piece.astype(np.int64), np.diff(self.indptr)) * self.theta
        self.keys += self.samples
        self.piece_ptr = np.searchsorted(self.piece, np.arange(self.n_pieces + 1))
        self.pieces = [
            PieceCoverage(
                promoters=self.vertex[lo:hi],
                indptr=self.indptr[lo : hi + 1] - self.indptr[lo],
                samples=self.samples[self.indptr[lo] : self.indptr[hi]],
            )
            for lo, hi in zip(self.piece_ptr[:-1], self.piece_ptr[1:])
        ]

    @property
    def n_rows(self) -> int:
        return len(self.piece)

    def covered_by(self, piece: int, v: int) -> np.ndarray:
        return self.pieces[piece].covered_by(v)

    def entries(self, rows: np.ndarray) -> np.ndarray:
        """Entry positions (into ``samples``/``keys``) of the given rows."""
        return _ranges(self.indptr[rows], self.indptr[rows + 1])

    def rows_of(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """Row ids of a plan's (piece, promoter) pairs, by one searchsorted
        over the (piece, vertex) row order; pairs without a row (no covered
        sample, outside the pool or out of range) are dropped."""
        pairs = np.asarray(
            [(j, v) for j, seeds in plan.items() for v in seeds], dtype=np.int64
        ).reshape(-1, 2)
        pairs = pairs[(pairs[:, 1] >= 0) & (pairs[:, 1] < self.n_vertices)]
        if not self.n_rows or not len(pairs):
            return np.empty(0, dtype=np.int64)
        row_keys = self.piece.astype(np.int64) * self.n_vertices + self.vertex
        want = pairs[:, 0] * self.n_vertices + pairs[:, 1]
        i = np.minimum(np.searchsorted(row_keys, want), self.n_rows - 1)
        return i[row_keys[i] == want]

    def plan_of(self, rows: np.ndarray) -> dict[int, set[int]]:
        """The Plan dict of a row mask (or row ids)."""
        plan: dict[int, set[int]] = {}
        for j, v in zip(self.piece[rows].tolist(), self.vertex[rows].tolist()):
            plan.setdefault(j, set()).add(v)
        return plan

    def subset(self, piece_ids: list[int]) -> "MRRIndex":
        """The index over a subset of pieces, renumbered 0..len-1 in the
        given order (e.g. dropping the extra topic-agnostic 'piece' sampled
        for the IM baseline)."""
        ids = np.asarray(piece_ids, dtype=np.int64)
        lo, hi = self.piece_ptr[ids], self.piece_ptr[ids + 1]
        rows = _ranges(lo, hi)
        return MRRIndex(
            n_vertices=self.n_vertices,
            theta=self.theta,
            n_pieces=len(ids),
            promoter_pool=self.promoter_pool,
            piece=np.repeat(np.arange(len(ids), dtype=np.int32), hi - lo),
            vertex=self.vertex[rows],
            indptr=np.append(0, np.cumsum(np.diff(self.indptr)[rows])).astype(np.int64),
            samples=self.samples[self.entries(rows)],
        )

    def plan_counts(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """Per-sample count of distinct pieces whose seed set reaches the root."""
        covered = np.zeros(self.n_pieces * self.theta, dtype=bool)
        covered[self.keys[self.entries(self.rows_of(plan))]] = True
        return covered.reshape(self.n_pieces, self.theta).sum(axis=0)


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
    """The pair CSR of the memberships (piece[r], vertex[r], sample[r]):
    rows sorted by (piece, vertex), each row's samples sorted."""
    order = np.lexsort((sample, vertex, piece))
    piece = piece[order].astype(np.int32)
    vertex = vertex[order].astype(np.int32)
    first = np.flatnonzero((np.diff(piece, prepend=-1) != 0) | (np.diff(vertex, prepend=-1) != 0))
    return MRRIndex(
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        promoter_pool=pool,
        piece=piece[first],
        vertex=vertex[first],
        indptr=np.append(first, len(vertex)).astype(np.int64),
        samples=sample[order].astype(np.int32),
    )
