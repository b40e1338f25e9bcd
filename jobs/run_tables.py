"""Reproduce the evaluation tables (DESIGN.md §4).

    python jobs/run_tables.py [TABLE ...] [--scale full|bench]

With no table names every table in ``repro.experiments.tables.TABLES``
runs.  All tables share one Spark session, and so the ``prepare`` sketch
cache.  Each table prints as markdown and is written to
``results/<table>.md`` for EXPERIMENTS.md.
"""
from __future__ import annotations

import argparse
import pathlib

from _common import build_session

from repro.experiments import tables as T

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def main(argv: list[str] | None = None, out_dir: pathlib.Path = RESULTS) -> None:
    parser = argparse.ArgumentParser(description="Reproduce the evaluation tables")
    # No ``choices``: argparse rejects an empty ``nargs="*"`` list against them.
    parser.add_argument(
        "tables", nargs="*", metavar="TABLE",
        help=f"tables to run (default: all of {', '.join(T.TABLES)})",
    )
    parser.add_argument(
        "--scale", choices=["full", "bench"], default="full",
        help="full = EXPERIMENTS.md scale, bench = reduced sweep",
    )
    args = parser.parse_args(argv)
    unknown = [t for t in args.tables if t not in T.TABLES]
    if unknown:
        parser.error(
            f"unknown table(s) {', '.join(unknown)}; choose from {', '.join(T.TABLES)}"
        )
    scale = {"full": T.FULL, "bench": T.BENCH}[args.scale]

    # The session is not stopped: the JVM shuts down with this process, and
    # a caller that already holds the session keeps it.
    spark = build_session("repro-tables")
    spark.sparkContext.setLogLevel("ERROR")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.tables or T.TABLES:
        md = T.rows_to_markdown(T.TABLES[name](spark, scale))
        text = f"# {name} ({args.scale} scale)\n\n{md}\n"
        print(text, flush=True)
        (out_dir / f"{name}.md").write_text(text)


if __name__ == "__main__":
    main()
