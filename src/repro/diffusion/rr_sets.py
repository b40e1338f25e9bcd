"""Reverse-reachable (RR) and multi-RR (MRR) set sampling in one Spark job
(§V-A).

An RR set for root x under the IC model is the set of vertices that reach x
in a random live-edge graph.  The MRR extension samples θ roots uniformly
and, for each root, one RR set per viral piece over that piece's influence
graph (edge probability ``p(t_j, e)``).

The per-piece influence graphs are collected to the driver once and turned
into a reversed CSR (in-edges of ``piece·n + dst``), which is broadcast.
``roots.mapInArrow`` then runs a level-synchronous reverse BFS in numpy over
every (piece, sample) pair of an Arrow batch, until every frontier is empty,
so an RR set is never truncated.  Each in-edge (src → dst) examined for
sample ``i`` of piece ``j`` is live iff its coin is below ``p``.  The coin is
a numpy port of Spark's ``xxhash64(seed, piece, sample_id, src, dst)`` taken
``pmod 2^24 / 2^24``: a pure function of its key, so the result does not
depend on partitioning or batch order, every sample sees one fixed live-edge
world (exactly the RR-set semantics), and the coins equal those of the same
expression evaluated by Spark.
"""
from __future__ import annotations

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

_COIN_MOD = 1 << 24

ROOTS_SCHEMA = T.StructType(
    [
        T.StructField("sample_id", T.IntegerType(), False),
        T.StructField("vertex", T.IntegerType(), False),
    ]
)

MRR_SCHEMA = T.StructType(
    [
        T.StructField("piece", T.IntegerType(), False),
        T.StructField("sample_id", T.IntegerType(), False),
        T.StructField("vertex", T.IntegerType(), False),
    ]
)

# Spark's XXH64 (org.apache.spark.sql.catalyst.expressions.XXH64): the
# primes, and the seed ``xxhash64`` starts its chain from.
_P1 = np.uint64(0x9E3779B185EBCA87)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)
_P3 = np.uint64(0x165667B19E3779F9)
_P5 = np.uint64(0x27D4EB2F165667C5)
_XXHASH64_SEED = 42


def _check_seed(seed: int) -> None:
    # F.lit types a Python int outside int32 as a long, which Spark hashes
    # with hashLong: the coins below would no longer be Spark's.
    if not -(1 << 31) <= seed < (1 << 31):
        raise ValueError(f"coin seed {seed} is outside int32")


def _hash_int(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``XXH64.hashInt(x, h)`` elementwise: int32 ``x``, uint64 ``h``."""
    h = h + _P5 + np.uint64(4)
    h ^= x.astype(np.uint32).astype(np.uint64) * _P1
    h = ((h << np.uint64(23)) | (h >> np.uint64(41))) * _P2 + _P3
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    return h


def _coin(seed: int, piece, sample_id, src, dst) -> np.ndarray:
    """Uniform[0,1) coin keyed on (seed, piece, sample, edge): the value of
    ``pmod(xxhash64(seed, piece, sample_id, src, dst), 2^24) / 2^24`` in
    Spark, on int32 arguments that broadcast together."""
    _check_seed(seed)
    keys = [np.asarray(x, dtype=np.int32) for x in (piece, sample_id, src, dst)]
    h = np.full(np.broadcast(*keys).shape, _XXHASH64_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):  # XXH64 is arithmetic mod 2^64
        for x in [np.int32(seed), *keys]:
            h = _hash_int(x, h)
    return (h & np.uint64(_COIN_MOD - 1)).astype(np.float64) / _COIN_MOD


def sample_roots(spark: SparkSession, *, n: int, theta: int, seed: int) -> DataFrame:
    """θ root vertices drawn uniformly from V, deterministic in ``seed``."""
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "sample_id": np.arange(theta, dtype=np.int32),
            "vertex": g.integers(0, n, size=theta).astype(np.int32),
        }
    )
    return spark.createDataFrame(pdf, schema=ROOTS_SCHEMA)


def _reverse_csr(edges_by_piece: DataFrame, n_pieces: int):
    """(indptr, src, p, n): the in-edges of ``dst`` in piece ``j`` are
    ``src[k], p[k]`` for k in ``indptr[j·n + dst] : indptr[j·n + dst + 1]``,
    with n one more than the largest vertex id on any edge."""
    edges = edges_by_piece.select("piece", "src", "dst", "p").toArrow()
    piece, src, dst, p = (edges.column(c).to_numpy() for c in edges.column_names)
    del edges
    if len(piece) and not (0 <= piece.min() and piece.max() < n_pieces):
        raise ValueError(f"edge pieces must lie in [0, {n_pieces})")
    n = int(max(src.max(), dst.max())) + 1 if len(src) else 0
    key = piece.astype(np.int64) * n + dst
    order = np.argsort(key, kind="stable")
    indptr = np.zeros(n_pieces * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n_pieces * n), out=indptr[1:])
    return indptr, src[order], p[order], n


def _reverse_bfs(csr, n_pieces: int, seed: int, sample_id: np.ndarray, root: np.ndarray):
    """Every (piece, sample row, vertex) membership of the RR sets rooted at
    ``root`` (one per row and piece), as three arrays."""
    indptr, src, p, n = csr
    rows = len(root)
    width = max(n, int(root.max(initial=-1)) + 1)  # roots may lie beyond every edge
    # A pair q = piece·rows + row; a membership is the key q·width + vertex.
    pair = np.arange(n_pieces * rows, dtype=np.int64)
    visited = pair * width + np.tile(root, n_pieces)
    frontier = visited
    while len(frontier):
        q, v = np.divmod(frontier, width)
        j = q // rows
        inside = v < n
        row = (j * n + v)[inside]
        start, deg = np.zeros_like(frontier), np.zeros_like(frontier)
        start[inside] = indptr[row]
        deg[inside] = indptr[row + 1] - start[inside]
        owner = np.repeat(np.arange(len(frontier)), deg)
        e = start[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(deg) - deg, deg)
        live = _coin(seed, j[owner], sample_id[q[owner] % rows], src[e], v[owner]) < p[e]
        cand = np.unique(q[owner[live]] * width + src[e[live]])
        pos = np.minimum(np.searchsorted(visited, cand), len(visited) - 1)
        frontier = cand[visited[pos] != cand]
        visited = np.sort(np.concatenate([visited, frontier]))
    q, v = np.divmod(visited, width)
    return q // rows, sample_id[q % rows], v


def sample_mrr_sets(
    spark: SparkSession,
    edges_by_piece: DataFrame,
    roots: DataFrame,
    n_pieces: int,
    *,
    seed: int = 0,
) -> DataFrame:
    """All (piece, sample_id, vertex) memberships: vertex ∈ R_i^j.

    ``edges_by_piece`` is (piece, src, dst, p); ``roots`` is
    (sample_id, vertex).  Roots are shared across pieces, matching §V-A
    ("for each selected user v_i, generate a multi-set of ℓ RR sets").
    The returned DataFrame is localCheckpoint-ed, so it is safe to reuse
    across many downstream jobs without sampling again.
    """
    _check_seed(seed)
    csr = spark.sparkContext.broadcast(_reverse_csr(edges_by_piece, n_pieces))

    def sample(batches):
        for b in batches:
            cols = _reverse_bfs(
                csr.value,
                n_pieces,
                seed,
                b.column("sample_id").to_numpy(),
                b.column("vertex").to_numpy(),
            )
            yield pa.RecordBatch.from_arrays(
                [pa.array(c, type=pa.int32()) for c in cols], names=MRR_SCHEMA.names
            )

    # Python workers need not import this package: ship its functions whole.
    cloudpickle.register_pickle_by_value(sys.modules[__name__])
    out = roots.select("sample_id", "vertex").mapInArrow(sample, MRR_SCHEMA)
    out = out.localCheckpoint(eager=True)
    csr.destroy()
    return out


def sample_rr_sets(
    spark: SparkSession,
    edges: DataFrame,
    roots: DataFrame,
    *,
    seed: int = 0,
) -> DataFrame:
    """Single-graph RR sets: ``edges`` is (src, dst, p) → (sample_id, vertex)."""
    one = edges.select(F.lit(0).alias("piece"), "src", "dst", "p")
    out = sample_mrr_sets(spark, one, roots, 1, seed=seed)
    return out.select("sample_id", "vertex")


def spread_estimate(rr_sets: DataFrame, seeds: list[int], n: int, theta: int) -> float:
    """σ_IM(S) ≈ n/θ · #{i : R_i ∩ S ≠ ∅} — the classical RR estimator (§V-A)."""
    covered = (
        rr_sets.where(F.col("vertex").isin([int(s) for s in seeds]))
        .select("sample_id")
        .distinct()
        .count()
    )
    return n / theta * covered
