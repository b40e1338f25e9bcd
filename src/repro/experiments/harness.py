"""Experiment harness: prepare a dataset once, run all four methods on it.

`prepare` runs the Spark side (graph materialization, per-piece influence
graphs, the one-pass MRR sampling job, coverage-index collection) and is
cached per (graph config, ℓ, θ, seed) — the paper likewise samples once and
excludes sampling time from method comparisons ("we exclude the sampling
time for generating RR sets since the time is the same for all compared
approaches"), reporting it separately in Table III.

The topic-agnostic influence graph needed by the IM baseline is sampled in
the same job as an extra (ℓ+1)-th "piece" whose topic vector is uniform.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.adoption import LogisticModel, plan_size
from repro.core.bab import branch_and_bound
from repro.core.baselines import im_baseline, tim_baseline
from repro.diffusion.mrr import MRRIndex, PieceCoverage, build_index
from repro.diffusion.rr_sets import sample_mrr_sets, sample_roots
from repro.graphs.datasets import DATASETS
from repro.graphs.generator import GraphConfig, promoter_pool, social_graph
from repro.graphs.topics import edges_by_piece, one_hot_pieces, uniform_piece

DEFAULT_K = 50
DEFAULT_L = 3
DEFAULT_RATIO = 0.5
DEFAULT_EPS = 0.5
ALL_METHODS = ("IM", "TIM", "BAB", "BAB-P")


@dataclass
class Prepared:
    """Everything the search methods need, sampled once per dataset/ℓ/θ."""

    graph_cfg: GraphConfig
    pieces: np.ndarray  # (ℓ, |Z|) one-hot piece vectors
    mrr_df: DataFrame  # raw (piece, sample_id, vertex) incl. the IM piece ℓ
    index: MRRIndex  # pieces 0..ℓ-1, restricted to V^p
    im_cov: PieceCoverage  # coverage of the topic-agnostic graph (IM baseline)
    theta: int
    edge_count: int
    sample_seconds: float  # the MRR sampling job
    index_seconds: float  # collecting the promoter rows into the pair CSR


_CACHE: dict[tuple, Prepared] = {}


def prepare(
    spark: SparkSession,
    graph_cfg: GraphConfig,
    *,
    n_pieces: int = DEFAULT_L,
    theta: int = 2000,
    seed: int = 101,
) -> Prepared:
    key = (graph_cfg, n_pieces, theta, seed)
    if key in _CACHE:
        return _CACHE[key]
    edges = social_graph(spark, graph_cfg)
    edge_count = edges.count()
    pieces = one_hot_pieces(graph_cfg.n_topics, n_pieces, seed)
    all_pieces = np.vstack([pieces, uniform_piece(graph_cfg.n_topics)])
    ebp = edges_by_piece(edges, all_pieces)
    roots = sample_roots(spark, n=graph_cfg.n, theta=theta, seed=seed + 1)
    t0 = time.perf_counter()
    mrr_df = sample_mrr_sets(
        spark, ebp, roots, n_pieces + 1, seed=graph_cfg.seed * 1000 + seed
    )
    sample_seconds = time.perf_counter() - t0
    pool = promoter_pool(graph_cfg)
    t0 = time.perf_counter()
    full = build_index(
        mrr_df,
        n_vertices=graph_cfg.n,
        theta=theta,
        n_pieces=n_pieces + 1,
        promoter_pool=pool,
    )
    index_seconds = time.perf_counter() - t0
    prep = Prepared(
        graph_cfg=graph_cfg,
        pieces=pieces,
        mrr_df=mrr_df,
        index=full.subset(list(range(n_pieces))),
        im_cov=full.pieces[n_pieces],
        theta=theta,
        edge_count=edge_count,
        sample_seconds=sample_seconds,
        index_seconds=index_seconds,
    )
    _CACHE[key] = prep
    return prep


def clear_cache() -> None:
    _CACHE.clear()


def run_methods(
    prep: Prepared,
    *,
    k: int = DEFAULT_K,
    ratio: float = DEFAULT_RATIO,
    eps: float = DEFAULT_EPS,
    methods: tuple[str, ...] = ALL_METHODS,
    gap_tol: float = 0.01,
    max_pops: int = 200,
) -> list[dict]:
    """One experiment cell: every requested method on the prepared data.

    Returns one result row per method with the columns EXPERIMENTS.md
    tabulates; times cover the search only (sampling reported in T3).
    """
    model = LogisticModel.from_ratio(ratio)
    index = prep.index
    rows = []
    base = dict(
        dataset=prep.graph_cfg.name,
        k=k,
        l=index.n_pieces,
        ratio=ratio,
        theta=prep.theta,
    )
    for method in methods:
        if method == "IM":
            r = im_baseline(prep.im_cov, index, model, k)
            rows.append(
                base
                | dict(
                    method="IM",
                    utility=r.utility,
                    seconds=r.seconds,
                    assignments=plan_size(r.plan),
                    gap=float("nan"),
                    evals=0,
                    pops=0,
                    stop_reason="",
                )
            )
        elif method == "TIM":
            r = tim_baseline(index, model, k)
            rows.append(
                base
                | dict(
                    method="TIM",
                    utility=r.utility,
                    seconds=r.seconds,
                    assignments=plan_size(r.plan),
                    gap=float("nan"),
                    evals=0,
                    pops=0,
                    stop_reason="",
                )
            )
        elif method in ("BAB", "BAB-P"):
            r = branch_and_bound(
                index,
                model,
                k,
                progressive=(method == "BAB-P"),
                eps=eps,
                gap_tol=gap_tol,
                max_pops=max_pops,
            )
            rows.append(
                base
                | dict(
                    method=method,
                    utility=r.utility,
                    seconds=r.seconds,
                    assignments=plan_size(r.plan),
                    gap=r.gap,
                    evals=r.evals,
                    pops=r.pops,
                    stop_reason=r.stop_reason,
                )
            )
        else:  # pragma: no cover - config error guard
            raise ValueError(f"unknown method {method!r}")
    return rows


def dataset_config(name: str) -> GraphConfig:
    return DATASETS[name]
