"""Viral pieces (topic vectors) and per-piece influence-graph derivation.

A campaign T = {t_1..t_ℓ} assigns each piece a topic distribution; the
experiments (§VI-A) "generate the topic vector by uniformly sampling a
non-zero topic dimension", i.e. pieces are one-hot.  The influence
probability of piece t over edge e is ``p(t, e) = t · p(e)`` (§III-A).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F


def one_hot_pieces(n_topics: int, n_pieces: int, seed: int) -> np.ndarray:
    """ℓ one-hot piece vectors over |Z| topics, distinct topics, seeded.

    Distinctness mirrors a real campaign (a piece per facet), so ℓ > |Z|
    raises ``ValueError``.
    """
    if n_pieces > n_topics:
        raise ValueError(f"{n_pieces} pieces need distinct topics, only {n_topics} exist")
    zs = np.random.default_rng(seed).choice(n_topics, size=n_pieces, replace=False)
    vecs = np.zeros((n_pieces, n_topics), dtype=np.float64)
    vecs[np.arange(n_pieces), zs] = 1.0
    return vecs


def uniform_piece(n_topics: int) -> np.ndarray:
    """The topic-agnostic view used by the IM baseline: t = (1/|Z|, .., 1/|Z|).

    Under ``p(t,e) = t · p(e)`` this collapses every edge to the mean of its
    topic-wise probabilities — 'the IC model on graph G' of §VI-A.
    """
    return np.full(n_topics, 1.0 / n_topics, dtype=np.float64)


def piece_prob_col(piece: np.ndarray, probs_col: str = "probs") -> Column:
    """Column expression computing ``p(t, e) = Σ_z t_z * p(e|z)`` from the
    edge's ``probs`` array, entirely inside Catalyst (zip_with + aggregate)."""
    t_lit = F.array(*[F.lit(float(x)) for x in piece])
    prod = F.zip_with(F.col(probs_col), t_lit, lambda a, b: a * b)
    return F.aggregate(prod, F.lit(0.0), lambda acc, x: acc + x)


def edges_by_piece(edges: DataFrame, pieces: np.ndarray) -> DataFrame:
    """Union of per-piece influence graphs: (piece int, src, dst, p double).

    Zero-probability edges are dropped — they can never transmit, and for
    sparse topic vectors (tweet-like data) this shrinks the join input by
    orders of magnitude.
    """
    parts = []
    for j, t in enumerate(pieces):
        parts.append(
            edges.select(
                F.lit(int(j)).alias("piece"),
                "src",
                "dst",
                piece_prob_col(t).alias("p"),
            ).where(F.col("p") > 0.0)
        )
    out = parts[0]
    for part in parts[1:]:
        out = out.unionByName(part)
    return out
