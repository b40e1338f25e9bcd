"""Layer spans for the traced benchmark run.

The program is not instrumented: :class:`Tracer` replaces each layer's
public entry points with timing wrappers at the place its caller looks them
up (modules import each other's functions by name), and puts the originals
back on :meth:`Tracer.uninstall`.  ``BoundState`` methods are wrapped on the
class itself.

Spans are kept in memory as ``(name, start, end, parent)`` tuples.  A span's
self time is its duration minus the durations of its direct children.
Spans of layers that run Spark set a job group of their own, and the jobs,
stages and tasks of that group are read back from ``statusTracker`` when the
span ends, so every Spark job is attributed to the innermost layer that
launched it.  Frames are lazy: the cost of ``edges_by_piece`` lands in the
``sample_mrr_sets`` jobs that force it, and is reported there.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from repro.core import adoption, bab, baselines, bound, coverage
from repro.diffusion import mrr
from repro.experiments import harness

# (owner, attribute, span name, runs Spark jobs).  The bound spans belong to
# one method each: bab.py calls compute_bound_progressive only for BAB-P.
_TARGETS = (
    (harness, "prepare", "harness.prepare", True),
    (harness, "run_methods", "harness.run_methods", True),
    (harness, "social_graph", "graphs.social_graph", True),
    (harness, "edges_by_piece", "graphs.edges_by_piece", True),
    (harness, "sample_roots", "rr_sets.sample_roots", True),
    (harness, "sample_mrr_sets", "rr_sets.sample_mrr_sets", True),
    (harness, "build_index", "mrr.build_index", True),
    (mrr.MRRIndex, "subset", "mrr.subset", False),
    (harness, "im_baseline", "baselines.im", False),
    (harness, "tim_baseline", "baselines.tim", False),
    (harness, "branch_and_bound", "bab", False),
    (bab, "compute_bound", "bound.BAB", False),
    (bab, "compute_bound_progressive", "bound.BAB-P", False),
    (coverage.BoundState, "__init__", "coverage.init", False),
    (coverage.BoundState, "gains_all", "coverage.gains_all", False),
    (coverage.BoundState, "gain", "coverage.gain", False),
    (coverage.BoundState, "add", "coverage.add", False),
    (bound, "estimate_au", "adoption.estimate_au", False),
    (baselines, "estimate_au", "adoption.estimate_au", False),
    (adoption, "estimate_au_spark", "adoption.estimate_au_spark", True),
)

METHODS = ("BAB", "BAB-P")


@dataclass
class _Bab:
    """Outside view of one branch_and_bound call, fed by its bound calls."""

    method: str
    incumbent: float = float("-inf")
    pops: int = 0
    bound_calls: int = 0
    evals: int = 0
    children: int = 0
    pruned: int = 0
    improved: int = 0


class Tracer:
    """Records spans around every wrapped call while installed."""

    def __init__(self, spark_context):
        self.sc = spark_context
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []  # indices into self.spans of open spans
        self.jobs: dict[str, list[int]] = {}  # layer -> [jobs, stages, tasks]
        self.bab_runs: list[_Bab] = []
        self.piece_edges: list = []  # edges_by_piece frames, counted after timing
        self._saved: list[tuple[object, str, object]] = []
        self._groups = 0

    def _wrap(self, fn, name: str, spark: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "bab":
                run = _Bab("BAB-P" if kwargs.get("progressive") else "BAB")
                self.bab_runs.append(run)
                span = f"bab.{run.method}"
            group = None
            if spark:
                parent_group = self.sc.getLocalProperty("spark.jobGroup.id")
                self._groups += 1
                group = f"{span.split('.')[0]}#{self._groups}"
                self.sc.setJobGroup(group, span)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append((span, time.perf_counter(), 0.0, parent))
            idx = len(self.spans) - 1
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx] = (span, self.spans[idx][1], time.perf_counter(), parent)
                self.stack.pop()
                if group is not None:
                    self.sc.setLocalProperty("spark.jobGroup.id", parent_group)
            if group is not None:
                self._count_jobs(group)
            self._observe(span, out)
            return out

        return wrapper

    def _count_jobs(self, group: str) -> None:
        st = self.sc.statusTracker()
        acc = self.jobs.setdefault(group.split("#")[0], [0, 0, 0])
        for job_id in st.getJobIdsForGroup(group):
            info = st.getJobInfo(job_id)
            if info is None:
                continue
            acc[0] += 1
            for stage_id in info.stageIds:
                stage = st.getStageInfo(stage_id)
                if stage is not None:
                    acc[1] += 1
                    acc[2] += stage.numTasks

    def _observe(self, span: str, out) -> None:
        """Counts the program does not report, derived from return values."""
        if span.startswith("bab."):
            run = self.bab_runs[-1]
            run.pops, run.bound_calls = out.pops, out.bound_calls
        elif span.startswith("bound."):
            run = self.bab_runs[-1]
            run.evals += out.evals
            if run.incumbent > float("-inf"):  # a child, not the root call
                run.children += 1
                run.improved += out.lower > run.incumbent
                # bab.py pushes a child only if its bound beats the incumbent
                # after the child's own candidate was considered.
                run.pruned += out.upper <= max(run.incumbent, out.lower)
            run.incumbent = max(run.incumbent, out.lower)
        elif span == "graphs.edges_by_piece":
            self.piece_edges.append(out)

    def install(self) -> "Tracer":
        for owner, attr, name, spark in _TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, spark))
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self) -> dict[str, list]:
        """span name -> [calls, busy seconds, self seconds, durations]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0, 0.0, []])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
            acc[3].append(end - start)
        return out

    def calibrate(self, calls: int = 20000) -> float:
        """Seconds a wrapped no-op call costs more than a bare one."""

        def noop():
            return None

        wrapped = self._wrap(noop, "calibrate", False)
        mark = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t0
        del self.spans[mark:]
        return max(traced - bare, 0.0) / calls


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it (50 if none)."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def layer_metrics(tracer: Tracer, *, theta: int, passes: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans: sketch layers for the one
    sketch built, search layers per search pass."""
    t = tracer.totals()
    per = 1.0 / passes
    empty = [0, 0.0, 0.0, []]

    def calls(name):
        return t.get(name, empty)[0] * per

    def busy(name, scale=per):
        return t.get(name, empty)[1] * scale

    def jobs(layer, i):
        return tracer.jobs.get(layer, [0, 0, 0])[i]

    m: dict[str, float] = {
        "harness.prepare_s": busy("harness.prepare", 1.0),
        "harness.prepare_self_s": t.get("harness.prepare", empty)[2],
        "harness.run_methods_self_s": t.get("harness.run_methods", empty)[2] * per,
        "harness.spark_jobs": jobs("harness", 0),
        "graphs.social_graph_s": busy("graphs.social_graph", 1.0),
        "rr_sets.sample_s": busy("rr_sets.sample_roots", 1.0) + busy("rr_sets.sample_mrr_sets", 1.0),
        "rr_sets.spark_jobs": jobs("rr_sets", 0),
        "rr_sets.spark_stages": jobs("rr_sets", 1),
        "rr_sets.spark_tasks": jobs("rr_sets", 2),
        "mrr.build_index_s": busy("mrr.build_index", 1.0) + busy("mrr.subset", 1.0),
        "mrr.spark_jobs": jobs("mrr", 0),
        "baselines.im_s": busy("baselines.im"),
        "baselines.tim_s": busy("baselines.tim"),
    }
    for meth in METHODS:
        runs = [r for r in tracer.bab_runs if r.method == meth]
        children = sum(r.children for r in runs)
        durs = np.asarray(t.get(f"bound.{meth}", empty)[3]) * 1e3
        pct = tail_percentile(len(durs))
        evals = sum(r.evals for r in runs)
        m |= {
            f"bab.pops.{meth}": sum(r.pops for r in runs) * per,
            f"bab.bound_calls.{meth}": sum(r.bound_calls for r in runs) * per,
            f"bab.self_s.{meth}": t.get(f"bab.{meth}", empty)[2] * per,
            f"bab.prune_frac.{meth}": sum(r.pruned for r in runs) / children if children else 0.0,
            f"bab.improve_frac.{meth}": sum(r.improved for r in runs) / children if children else 0.0,
            f"bound.s.{meth}": busy(f"bound.{meth}"),
            f"bound.call_ms_p50.{meth}": float(np.percentile(durs, 50)) if durs.size else 0.0,
            f"bound.call_ms_tail.{meth}": float(np.percentile(durs, pct)) if durs.size else 0.0,
            f"bound.call_tail_pct.{meth}": pct,
            f"bound.evals.{meth}": evals * per,
            f"bound.evals_per_call.{meth}": evals / durs.size if durs.size else 0.0,
        }
    m |= {
        "coverage.init_calls": calls("coverage.init"),
        "coverage.init_s": busy("coverage.init"),
        "coverage.gains_all_calls": calls("coverage.gains_all"),
        "coverage.gains_all_s": busy("coverage.gains_all"),
        # One θ-long float64 weight copy per full scan.
        "coverage.gains_all_bytes": calls("coverage.gains_all") * theta * 8,
        "coverage.gain_calls": calls("coverage.gain"),
        "coverage.gain_s": busy("coverage.gain"),
        "coverage.add_s": busy("coverage.add"),
        "adoption.estimate_au_calls": calls("adoption.estimate_au"),
        "adoption.estimate_au_s": busy("adoption.estimate_au"),
        "adoption.spark_au_s": busy("adoption.estimate_au_spark", 1.0),
        "trace.spans": len(tracer.spans),
        # Share of the top-level spans' time that no layer below harness
        # accounts for: the harness's own glue and the edges.count() job.
        "trace.harness_self_frac": (
            t.get("harness.prepare", empty)[2] + t.get("harness.run_methods", empty)[2]
        ) / (busy("harness.prepare", 1.0) + busy("harness.run_methods", 1.0)),
    }
    return m
