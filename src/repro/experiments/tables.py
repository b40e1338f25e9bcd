"""Table generators — one per evaluation table (DESIGN.md §4).

Each function returns a list of row dicts; `rows_to_markdown` renders them
for EXPERIMENTS.md.  `Scale` bundles the sweep resolution so jobs (full
scale) and pytest benchmarks (reduced scale) share code.  The paper's
reference numbers (read off the text and figures) live in PAPER_REFERENCE
and are echoed into EXPERIMENTS.md next to measured values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.graphs.datasets import DATASETS

from .harness import (
    ALL_METHODS,
    DEFAULT_EPS,
    DEFAULT_K,
    DEFAULT_L,
    DEFAULT_RATIO,
    prepare,
    run_methods,
)


@dataclass(frozen=True)
class Scale:
    """Sweep resolution: jobs use FULL, pytest benchmarks use BENCH."""

    theta: int
    datasets: tuple[str, ...]
    k_values: tuple[int, ...]
    l_values: tuple[int, ...]
    ratio_values: tuple[float, ...]
    eps_values: tuple[float, ...]
    max_pops: int
    seed: int = 101


FULL = Scale(
    theta=5000,
    datasets=("lastfm_lite", "dblp_lite", "tweet_lite"),
    k_values=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    l_values=(1, 2, 3, 4, 5),
    ratio_values=(0.3, 0.5, 0.7),
    eps_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    max_pops=500,
)

BENCH = Scale(
    theta=2000,
    datasets=("lastfm_lite",),
    k_values=(10, 30, 50),
    l_values=(1, 3, 5),
    ratio_values=(0.3, 0.5, 0.7),
    eps_values=(0.1, 0.5, 0.9),
    max_pops=60,
)


def table3_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Paper Table III: dataset statistics, MRR sampling time and index
    build time."""
    rows = []
    for name in scale.datasets:
        cfg = DATASETS[name]
        prep = prepare(
            spark, cfg, n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        rows.append(
            dict(
                dataset=name,
                vertices=cfg.n,
                edges=prep.edge_count,
                avg_degree=round(prep.edge_count / cfg.n, 2),
                topics=cfg.n_topics,
                theta=scale.theta,
                sample_seconds=round(prep.sample_seconds, 2),
                index_seconds=round(prep.index_seconds, 2),
            )
        )
    return rows


def eps_sweep_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 3: BAB-P utility vs ε (defaults k=50, ℓ=3, β/α=0.5)."""
    rows = []
    for name in scale.datasets:
        prep = prepare(
            spark, DATASETS[name], n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        for eps in scale.eps_values:
            rows += run_methods(
                prep,
                k=DEFAULT_K,
                eps=eps,
                methods=("BAB-P",),
                max_pops=scale.max_pops,
            )
            rows[-1]["eps"] = eps
    return rows


def vary_k_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 4: utility and search time vs k, all four methods."""
    rows = []
    for name in scale.datasets:
        prep = prepare(
            spark, DATASETS[name], n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        for k in scale.k_values:
            rows += run_methods(
                prep, k=k, methods=ALL_METHODS, max_pops=scale.max_pops
            )
    return rows


def vary_l_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 5: utility and search time vs number of viral pieces ℓ."""
    rows = []
    for name in scale.datasets:
        for l in scale.l_values:
            prep = prepare(
                spark, DATASETS[name], n_pieces=l, theta=scale.theta, seed=scale.seed
            )
            rows += run_methods(
                prep, k=DEFAULT_K, methods=ALL_METHODS, max_pops=scale.max_pops
            )
    return rows


def vary_ratio_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 6: utility vs β/α, all four methods."""
    rows = []
    for name in scale.datasets:
        prep = prepare(
            spark, DATASETS[name], n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        for ratio in scale.ratio_values:
            rows += run_methods(
                prep, k=DEFAULT_K, ratio=ratio, methods=ALL_METHODS, max_pops=scale.max_pops
            )
    return rows


TABLES = {
    "table3": table3_rows,
    "eps_sweep": eps_sweep_rows,
    "vary_k": vary_k_rows,
    "vary_l": vary_l_rows,
    "vary_ratio": vary_ratio_rows,
}


def rows_to_markdown(rows: list[dict]) -> str:
    """Render result rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        lines.append("| " + " | ".join(fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(lines)


# Anchor numbers from the paper's text and figures (figures read to the
# nearest gridline); used in EXPERIMENTS.md for paper-vs-measured diffing.
PAPER_REFERENCE = {
    "eps_sweep": {
        "lastfm utility range (eps 0.1→0.9)": "15.574 → 15.561 (−0.08%)",
        "dblp utility range": "~91.5 → ~85.5 (−6.6%)",
        "tweet utility range": "~6100 → ~6015 (−1.4%)",
    },
    "vary_k": {
        "ordering": "BAB ≈ BAB-P > TIM > IM at every k",
        "lastfm utility @k=100": "~25-30",
        "dblp utility @k=100": "~140-160",
        "tweet utility @k=100": "~7000-8000",
        "speedup BAB-P vs BAB": "up to 24x (lastfm), 22x (dblp), 8.1x (tweet)",
    },
    "vary_l": {
        "trend": "utility increases with ℓ for all methods",
        "tweet @l=5": "BAB 71x over IM, 2.9x over TIM; BAB-P ≈ BAB",
    },
    "vary_ratio": {
        "trend": "utility increases with β/α",
        "tweet improvement BAB over TIM": "280% at β/α=0.3 → 190% at β/α=0.7",
    },
}
