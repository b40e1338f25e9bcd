"""OIPA benchmark: an MRR sketch built in set-up, BAB/BAB-P search timed.

One run is one fresh process on one workload:

    python3 oipa_bench/run.py --workload lastfm-search --seed 101 --seconds 8 --trace 0

Set-up starts Spark with the table jobs' session settings at ``local[4]``
and builds the workload's sketch cold with ``harness.prepare`` at the
fixed ``SKETCH_SEED``, so every run searches the same instance; ``--seed``
is recorded with the result.  A first search pass
(``harness.run_methods`` on every cell, the calls the table jobs make) is
discarded as warm-up; further passes are timed until the next one would
overrun ``--seconds`` (at least one), and each metric is the median over
passes.  Passes repeat the same deterministic search, so their counts must
agree exactly; they are also compared with the last run of the same
sources.

The sketch is not timed as an end-to-end metric of its own: a run has room
for one, so its cost lands in ``setup_s`` and the traced run reports it
layer by layer.  Each workload runs two cells at k=50: Table III's β/α=0.5,
where every method stops at the root and whose utilities are reported, and
β/α=0.25, where BAB and BAB-P both run to the pop cap (at β/α=0.3 BAB-P's
heap empties after 17 to 320 pops, depending on the sketch).

Every returned plan is checked outside the timed region.  Human-readable
lines come first: every metric with its unit and better direction, the
gap and stop reason of each search, and the environment.  The last line is
the JSON result.  The exit code is 1 if any check failed and 2 on a set-up
error.  ``--trace 1`` wraps each layer's entry points (see ``tracing.py``)
and reports per-layer metrics instead.  ``--workload all`` runs every
workload untraced and traced, each in its own process, and prints a table
of both plus the tracing overhead.  NOTES.md defines every metric.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".oipa_bench_work"

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "64"
EPS = 0.5
# Searches run until the heap empties or the pop cap binds, never stopping
# at a tolerance, so a pass does the same work every time it repeats.
GAP_TOL = 0.0
# The seed handed to ``prepare`` (roots, coins and promoted topics): the
# table jobs' default.  A capped search's cost is a property of the sketch:
# over six tweet_lite sketches BAB's τ-evaluations in the search cell ranged
# from 2.95 to 3.95 million, and its time with them, so the sketch is fixed.
SKETCH_SEED = 101
METHODS = ("IM", "TIM", "BAB", "BAB-P")


@dataclass(frozen=True)
class Workload:
    dataset: str
    theta: int
    # (β/α, k).  The first is Table III's cell, where every method stops at
    # the root and whose utilities are reported; the last is the search cell.
    cells: tuple[tuple[float, int], ...]
    max_pops: int


WORKLOADS = {
    # Deep cascades, long covered-sample lists: BAB's full scans dominate.
    # At β/α=0.25 the search runs to the pop cap (EXPERIMENTS T-ratio).
    "lastfm-search": Workload("lastfm_lite", 2000, ((0.5, 50), (0.25, 50)), 50),
    # Average degree 1.2: a few covered samples per promoter and θ-long
    # vectors, so fixed per-call costs of the bound kernel dominate.
    "tweet-search": Workload("tweet_lite", 5000, ((0.5, 50), (0.25, 50)), 50),
}
# Every workload path on the tiny test graph, for the smoke check.
SMOKE = Workload("test_graph", 60, ((0.5, 5), (0.3, 5)), 20)

# name -> (unit, better).  Trace 0 reports E2E, trace 1 reports PER_LAYER.
E2E = {
    "setup_s": ("s", "lower"),
    "bab_search_s": ("s", "lower"),
    "babp_search_s": ("s", "lower"),
    **{f"au_insample.{m}": ("users", "higher") for m in METHODS},
    "rss_growth_mb": ("MB", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    units = {
        "harness.prepare_s": ("s", "lower"),
        "harness.prepare_self_s": ("s", "lower"),
        "harness.run_methods_self_s": ("s", "lower"),
        "harness.spark_jobs": ("count", "lower"),
        "graphs.social_graph_s": ("s", "lower"),
        "graphs.edges": ("count", "lower"),
        "graphs.piece_edges": ("count", "lower"),
        "rr_sets.sample_s": ("s", "lower"),
        "rr_sets.spark_jobs": ("count", "lower"),
        "rr_sets.spark_stages": ("count", "lower"),
        "rr_sets.spark_tasks": ("count", "lower"),
        "rr_sets.memberships": ("count", "lower"),
        "rr_sets.mean_rr_size": ("count", "lower"),
        "rr_sets.partitions": ("count", "lower"),
        "rr_sets.memberships_per_s": ("1/s", "higher"),
        "mrr.build_index_s": ("s", "lower"),
        "mrr.spark_jobs": ("count", "lower"),
        "mrr.pairs": ("count", "lower"),
        "mrr.entries": ("count", "lower"),
        "mrr.bytes": ("bytes", "lower"),
        "baselines.im_s": ("s", "lower"),
        "baselines.tim_s": ("s", "lower"),
    }
    for m in ("BAB", "BAB-P"):
        units |= {
            f"gap.{m}": ("ratio", "lower"),
            f"stop_max_pops.{m}": ("count", "lower"),
            f"bab.pops.{m}": ("count", "lower"),
            f"bab.bound_calls.{m}": ("count", "lower"),
            f"bab.self_s.{m}": ("s", "lower"),
            f"bab.prune_frac.{m}": ("ratio", "higher"),
            f"bab.improve_frac.{m}": ("ratio", "higher"),
            f"bound.s.{m}": ("s", "lower"),
            f"bound.call_ms_p50.{m}": ("ms", "lower"),
            f"bound.call_ms_tail.{m}": ("ms", "lower"),
            f"bound.call_tail_pct.{m}": ("%", "higher"),
            f"bound.evals.{m}": ("count", "lower"),
            f"bound.evals_per_call.{m}": ("count", "lower"),
        }
    units |= {
        "coverage.init_calls": ("count", "lower"),
        "coverage.init_s": ("s", "lower"),
        "coverage.gains_all_calls": ("count", "lower"),
        "coverage.gains_all_s": ("s", "lower"),
        "coverage.gains_all_bytes": ("bytes", "lower"),
        "coverage.gain_calls": ("count", "lower"),
        "coverage.gain_s": ("s", "lower"),
        "coverage.add_s": ("s", "lower"),
        "adoption.estimate_au_calls": ("count", "lower"),
        "adoption.estimate_au_s": ("s", "lower"),
        "adoption.spark_au_s": ("s", "lower"),
        "spark.jvm_peak_rss_mb": ("MB", "lower"),
        "trace.pass_s": ("s", "lower"),
        "trace.harness_self_frac": ("ratio", "lower"),
        "trace.sketch_share": ("ratio", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.overhead_est_s": ("s", "lower"),
    }
    return units


PER_LAYER = _per_layer()


class SetupError(Exception):
    """The benchmark cannot run here (missing program sources)."""


def _sources_digest() -> str:
    """Digest of the program's and the benchmark's own sources."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _proc_mb(pid: int | str, field: str) -> float:
    """``VmRSS`` (resident now) or ``VmHWM`` (high-water mark) of a process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for process {pid}")


def _start_spark():
    """The table jobs' session (jobs/_common.build_session) at local[4],
    with every scratch file inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    (WORK / "spark-local").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = SHUFFLE_PARTITIONS
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_* files
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf 'spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "pyspark-shell"
    )
    sys.path.insert(0, str(ROOT / "jobs"))
    from _common import build_session

    spark = build_session("oipa-bench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    out, todo = [], [pid]
    while todo:
        kids = parents.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _stop_spark(spark) -> None:
    """Stop Spark, then the JVM and the Python workers it started, and wait."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = _descendants(proc.pid) if proc is not None else []
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    for pid in workers:
        while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
            time.sleep(0.05)
    SparkContext._gateway = None
    SparkContext._jvm = None


def check_result(index, pool, model, k, result, *, max_pops, row=None) -> list[str]:
    """Problems with one method's returned plan; empty when it is valid."""
    from repro.core.adoption import estimate_au, plan_size

    name = result.method
    problems = []
    size = plan_size(result.plan)
    if size > k:
        problems.append(f"{name}: {size} assignments > k={k}")
    pool_set = set(int(v) for v in pool)
    for j, seeds in result.plan.items():
        if not 0 <= int(j) < index.n_pieces:
            return problems + [f"{name}: piece {j} out of range"]
        for v in seeds:
            if not 0 <= int(v) < index.n_vertices or int(v) not in pool_set:
                problems.append(f"{name}: promoter {v} of piece {j} not in V^p")
    if hasattr(result, "upper_bound"):
        if not result.upper_bound >= result.utility:
            problems.append(f"{name}: upper bound {result.upper_bound} < utility {result.utility}")
        if not 0.0 <= result.gap <= 1.0:
            problems.append(f"{name}: gap {result.gap} outside [0, 1]")
        if result.pops > max_pops:
            problems.append(f"{name}: {result.pops} pops > cap {max_pops}")
    au = estimate_au(index, result.plan, model)
    if abs(au - result.utility) > 1e-12 * max(1.0, abs(au)):
        problems.append(f"{name}: reported utility {result.utility} != recomputed {au}")
    if row is not None and (row["method"] != name or row["utility"] != result.utility
                            or row["assignments"] != size):
        problems.append(f"{name}: result row disagrees with the returned plan")
    return problems


def stop_reason(result, max_pops: int) -> str:
    """Derived from outside: the program does not report why it stopped."""
    return "max_pops" if result.pops == max_pops and result.gap > GAP_TOL else "converged"


class _Capture:
    """Keeps the result objects that run_methods reduces to rows, each with
    its speed: ``REFERENCE_S`` over the mean of the reference times taken
    just before and after a ``branch_and_bound`` call when ``reference`` is
    set, 1 otherwise."""

    ATTRS = ("im_baseline", "tim_baseline", "branch_and_bound")

    def __init__(self, reference: bool):
        self.reference = reference
        self.results: list[tuple[object, float]] = []
        self._saved: list = []

    def install(self) -> "_Capture":
        from repro.experiments import harness

        for attr in self.ATTRS:
            fn = harness.__dict__[attr]
            self._saved.append((attr, fn))
            setattr(harness, attr, self._keep(fn, self.reference and attr == "branch_and_bound"))
        return self

    def _keep(self, fn, scaled: bool):
        def wrapper(*args, **kwargs):
            before = reference_seconds() if scaled else REFERENCE_S
            out = fn(*args, **kwargs)
            after = reference_seconds() if scaled else REFERENCE_S
            self.results.append((out, 2 * REFERENCE_S / (before + after)))
            return out

        return wrapper

    def uninstall(self) -> None:
        from repro.experiments import harness

        for attr, fn in self._saved:
            setattr(harness, attr, fn)


# Seconds the reference computation takes on an unloaded 4-core host.
REFERENCE_S = 0.014


def reference_seconds() -> float:
    """Time a fixed computation shaped like the bound kernel: half of it a
    θ-long gather, mask and segment sum (a full scan, as in BAB), half of it
    point look-ups on short arrays (as in BAB-P's single-promoter gains).

    Co-tenant load on a shared host changes how fast the search runs from
    one second to the next, by up to 1.8x, and the CPU time of the search
    thread moves with it as much as the wall clock does.  Each search's
    seconds are scaled by ``REFERENCE_S`` over the mean reference time
    measured just before and after it, which removes most of that drift
    (NOTES.md gives the spreads with and without); unscaled times are
    printed as well.
    """
    import numpy as np

    g = np.random.default_rng(0)
    theta = 5000
    table = g.random((4, 4))
    c0, c = g.integers(0, 4, theta), g.integers(0, 4, theta)
    covered = g.random(theta) < 0.3
    samples = g.integers(0, theta, 20_000)
    starts = np.arange(0, 20_000, 40)
    promoters = np.sort(g.choice(20_000, 500, replace=False))
    probes = [int(v) for v in g.choice(promoters, 16)]
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(100):
        w = table[c0, c]
        w[covered] = 0.0
        total += float(np.add.reduceat(w[samples], starts).max())
        for v in probes:
            i = int(np.searchsorted(promoters, v))
            total += float(w[samples[i:i + 3]].sum())
    return time.perf_counter() - t0


def _config(name: str):
    from repro.graphs.datasets import DATASETS, TEST_GRAPH

    return TEST_GRAPH if name == TEST_GRAPH.name else DATASETS[name]


def _search_pass(prep, wl: Workload, capture: _Capture) -> tuple[float, list]:
    """Every cell once: (seconds, [(β/α, k, rows, [(result, speed)])])."""
    from repro.experiments import harness

    cells = []
    t0 = time.perf_counter()
    for ratio, k in wl.cells:
        capture.results.clear()
        rows = harness.run_methods(prep, k=k, ratio=ratio, eps=EPS, gap_tol=GAP_TOL,
                                   max_pops=wl.max_pops)
        cells.append((ratio, k, rows, list(capture.results)))
    return time.perf_counter() - t0, cells


def _check_pass(prep, pool, wl: Workload, cells: list) -> dict:
    """Untimed: output checks and the counts a repeat must reproduce."""
    from repro.core.adoption import LogisticModel

    out = {"failed": 0, "problems": [], "log": [], "evals": {}, "pops": {}, "stops": {},
           "table3": {}, "headline": {}, "scaled": {}}
    for ratio, k, rows, results in cells:
        model = LogisticModel.from_ratio(ratio)
        problems = [] if len(rows) == len(results) else [f"{len(rows)} rows, {len(results)} results"]
        for row, (res, speed) in zip(rows, results):
            problems += check_result(prep.index, pool, model, k, res, max_pops=wl.max_pops, row=row)
            m = res.method
            if m in ("BAB", "BAB-P"):
                out["evals"][m] = out["evals"].get(m, 0) + res.evals
                out["pops"][m] = out["pops"].get(m, 0) + res.pops
                reason = stop_reason(res, wl.max_pops)
                out["stops"][m] = out["stops"].get(m, 0) + (reason == "max_pops")
                out["log"].append(f"search β/α={ratio} k={k} {m}: gap={res.gap:.4f} "
                                  f"stop={reason} pops={res.pops} evals={res.evals} "
                                  f"seconds={res.seconds:.3f} scaled={res.seconds * speed:.3f}")
        out["table3"] = out["table3"] or {res.method: res for res, _ in results}
        # The last cell is the search cell: its results and scaled seconds.
        out["headline"] = {res.method: res for res, _ in results}
        out["scaled"] = {res.method: res.seconds * speed for res, speed in results}
        out["failed"] += bool(problems)
        out["problems"] += [f"β/α={ratio} k={k}: {p}" for p in problems]
    out["fingerprint"] = {
        **{f"bound.evals.{m}": v for m, v in out["evals"].items()},
        **{f"bab.pops.{m}": v for m, v in out["pops"].items()},
        **{f"au_insample.{m}": repr(r.utility) for m, r in out["table3"].items()},
        **{f"au_search.{m}": repr(r.utility) for m, r in out["headline"].items()},
        **{f"gap.{m}": repr(out["headline"][m].gap) for m in ("BAB", "BAB-P")},
    }
    return out


def _spark_cross_check(prep, wl: Workload, plans: dict) -> list[str]:
    """The reported plans' utility again, as a Spark job on the raw table."""
    from repro.core import adoption
    from repro.core.adoption import LogisticModel

    model = LogisticModel.from_ratio(wl.cells[0][0])
    problems = []
    for m, res in plans.items():
        au = adoption.estimate_au_spark(prep.mrr_df, res.plan, model,
                                        n_vertices=prep.index.n_vertices, theta=prep.theta)
        if abs(au - res.utility) > 1e-9 * max(1.0, abs(res.utility)):
            problems.append(f"{m}: Spark AU {au} != reported {res.utility}")
    return problems


def _sketch_counts(prep) -> dict:
    full = list(prep.index.pieces) + [prep.im_cov]
    return {
        "graphs.edges": prep.edge_count,
        "rr_sets.memberships": prep.mrr_df.count(),
        "rr_sets.partitions": prep.mrr_df.rdd.getNumPartitions(),
        "rr_sets.sets": prep.theta * len(full),  # θ roots × (ℓ pieces + the IM piece)
        "mrr.pairs": sum(len(c.promoters) for c in full),
        "mrr.entries": sum(len(c.samples) for c in full),
        "mrr.bytes": sum(c.promoters.nbytes + c.indptr.nbytes + c.samples.nbytes for c in full),
    }


def _environment(spark, seed: int, workload: str) -> dict:
    import numpy as np

    sc = spark.sparkContext
    mem_kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal:"))
    sha = _git("rev-parse", "HEAD")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "master": sc.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
        "sources_sha256": _sources_digest(),
    }


def _check_determinism(key: str, fingerprint: dict) -> list[str]:
    """Compare with the last run of the same sources and workload."""
    path = WORK / "fingerprints" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{name}: {before.get(name)} before, {value} now"
                for name, value in fingerprint.items() if before.get(name) != value]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint, sort_keys=True))
    return []


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        raise SetupError(f"no program sources under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    wl = SMOKE if scale == "smoke" else WORKLOADS[workload]
    spark = _start_spark()
    try:
        return _measure(spark, workload, wl, seed, seconds, trace, scale)
    finally:
        _stop_spark(spark)


def _measure(spark, workload: str, wl: Workload, seed: int, seconds: float, trace: bool,
             scale: str) -> int:
    from pyspark import SparkContext

    from repro.experiments import harness
    from repro.graphs.generator import promoter_pool

    capture = _Capture(reference=not trace).install()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(spark.sparkContext).install()
    cfg = _config(wl.dataset)
    passes, walls, problems = [], [], []
    attempted = failed = 0
    try:
        harness.clear_cache()
        rss_before = _proc_mb("self", "VmRSS")
        attempted += 1
        t0 = time.perf_counter()
        prep = harness.prepare(spark, cfg, theta=wl.theta, seed=SKETCH_SEED)
        sketch_s = time.perf_counter() - t0
        pool = promoter_pool(prep.graph_cfg)
        while True:
            attempted += len(wl.cells)
            wall, cells = _search_pass(prep, wl, capture)
            checked = _check_pass(prep, pool, wl, cells)
            failed += checked["failed"]
            problems += checked["problems"]
            if passes and checked["fingerprint"] != passes[0]["fingerprint"]:
                failed += 1
                problems.append(f"pass {len(passes) + 1} differs from pass 1")
            passes.append(checked)
            walls.append(wall)
            if len(passes) == 1:  # the warm-up pass ends set-up
                setup_s = time.perf_counter() - T_START
            elif sum(walls[1:]) + wall > seconds:
                break
        rss_growth = _proc_mb("self", "VmHWM") - rss_before
        jvm_rss = _proc_mb(SparkContext._gateway.proc.pid, "VmHWM")
        attempted += 1
        spark_problems = _spark_cross_check(prep, wl, passes[0]["table3"])
        failed += bool(spark_problems)
        problems += spark_problems
    except Exception:  # a raising operation is a failed one; report it and stop
        failed += 1
        problems.append(traceback.format_exc())
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}), flush=True)
        print("".join(problems), file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()

    counts = _sketch_counts(prep)
    fingerprint = passes[0]["fingerprint"] | {
        "rr_sets.memberships": counts["rr_sets.memberships"],
        "mrr.entries": counts["mrr.entries"],
    }
    drift = _check_determinism(f"{workload}-{scale}-{_sources_digest()[:16]}", fingerprint)
    if drift:
        failed += 1
        problems += [f"differs from an earlier run: {d}" for d in drift]

    timed = passes[1:]
    first = passes[0]
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "bab_search_s": statistics.median(p["scaled"]["BAB"] for p in timed),
            "babp_search_s": statistics.median(p["scaled"]["BAB-P"] for p in timed),
            **{f"au_insample.{m}": first["table3"][m].utility for m in METHODS},
            "rss_growth_mb": rss_growth,
        }
    else:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, theta=wl.theta, passes=len(passes))
        metrics |= {name: counts[name] for name in PER_LAYER if name in counts}
        metrics["graphs.piece_edges"] = tracer.piece_edges[-1].count()
        metrics["rr_sets.mean_rr_size"] = counts["rr_sets.memberships"] / counts["rr_sets.sets"]
        metrics["rr_sets.memberships_per_s"] = (
            counts["rr_sets.memberships"] / metrics["rr_sets.sample_s"]
        )
        metrics["spark.jvm_peak_rss_mb"] = jvm_rss
        for m in ("BAB", "BAB-P"):
            metrics[f"gap.{m}"] = first["headline"][m].gap
            metrics[f"stop_max_pops.{m}"] = first["stops"][m]
        metrics["trace.pass_s"] = statistics.median(walls[1:])
        # Share of one cold run (sketch, then one pass) spent on the sketch.
        metrics["trace.sketch_share"] = metrics["harness.prepare_s"] / (
            metrics["harness.prepare_s"] + metrics["trace.pass_s"]
        )
        metrics["trace.overhead_est_s"] = tracer.calibrate() * metrics["trace.spans"]

    units = PER_LAYER if trace else E2E
    metrics = {name: metrics[name] for name in units}
    print(f"workload {workload}: {wl.dataset} θ={wl.theta}, cells (β/α, k) {list(wl.cells)}, "
          f"pop cap {wl.max_pops}, gap_tol {GAP_TOL}, seed {seed} (prepare seed {SKETCH_SEED})")
    print(f"sketch_s = {sketch_s:.3f} s (set-up); warm-up pass {walls[0]:.3f} s; "
          f"{len(timed)} timed pass(es): " + ", ".join(f"{w:.3f}" for w in walls[1:]) + " s")
    for m in ("BAB", "BAB-P"):
        search = [p["headline"][m] for p in timed]
        print(f"{m} search cell: {statistics.median(r.seconds for r in search):.4f} s unscaled, "
              f"{statistics.median(p['scaled'][m] for p in timed):.4f} s scaled, "
              f"{search[0].evals} evaluations, "
              f"{statistics.median(p['scaled'][m] / r.evals for p, r in zip(timed, search)) * 1e6:.4g} "
              "us scaled per evaluation")
    print(f"Python RSS before prepare {rss_before:.1f} MB, high-water mark "
          f"{rss_before + rss_growth:.1f} MB")
    for line in first["log"]:
        print(line)
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"metric {name} = {value:.6g} {unit} ({better} is better)")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.3g} ratio (lower is better)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("env " + json.dumps(_environment(spark, seed, workload), sort_keys=True))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload untraced, then traced, each run in a fresh process."""
    results: dict[tuple[str, int], dict] = {}
    raw_s: dict[tuple[str, int, str], float] = {}
    raw_re = re.compile(r"^(BAB|BAB-P) search cell: (\S+) s unscaled", re.M)
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--scale", scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            worst = max(worst, proc.returncode)
            if proc.returncode not in (0, 1):
                sys.stderr.write(proc.stderr[-4000:])
                continue
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            for m, secs in raw_re.findall(proc.stdout):
                raw_s[name, trace, m] = float(secs)
    print("\n== end-to-end, untraced ==")
    for (name, trace), r in results.items():
        if trace == 0:
            for metric, v in r["metrics"].items():
                print(f"{name:14s} {metric:20s} {v['value']:12.6g} {v['unit']:6s} "
                      f"{E2E[metric][1]} is better")
            print(f"{name:14s} {'failed_frac':20s} {r['failed'] / r['attempted']:12.6g} "
                  "ratio  lower is better")
    print("\n== tracing overhead: traced / untraced unscaled seconds of the search cell - 1 ==")
    for name in WORKLOADS:
        for m in ("BAB", "BAB-P"):
            if (name, 0, m) in raw_s and (name, 1, m) in raw_s:
                plain, traced = raw_s[name, 0, m], raw_s[name, 1, m]
                print(f"{name:14s} {m:6s} {traced / plain - 1.0:+.3f} "
                      f"({traced:.4g} s traced, {plain:.4g} s untraced)")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=101,
                        help="recorded with the result; the sketch is fixed (SKETCH_SEED)")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: every workload path on the tiny test graph")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.scale)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except SetupError as exc:
        print(f"oipa_bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
