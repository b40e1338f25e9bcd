"""Smoke check of the benchmark itself, at the tiny test-graph scale.

    python3 oipa_bench/smoke.py

1. The output check rejects deliberately corrupted plans (no Spark needed).
2. Every workload path runs untraced and traced at ``--scale smoke``, each
   in a fresh process; every metric ``BENCHMARK.json`` names appears in the
   result with its unit, and in the human-readable lines with its unit and
   better direction.  The untraced run is made twice, so the second is
   checked against the first's counts.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark, the
   command fails without printing a result.

Exits non-zero on the first failed expectation.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check_corrupted_plans() -> None:
    from repro.core.adoption import LogisticModel, estimate_au
    from repro.core.bab import branch_and_bound
    from repro.diffusion.mrr import index_from_sets

    rr = {0: [{0, 1}, {1, 2}, {3}, {0, 4}], 1: [{2}, {0, 3}, {4}, {1}]}
    pool = [0, 1, 2, 3]
    index = index_from_sets(rr, n_vertices=6, promoter_pool=pool)
    model = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(index, model, 2, gap_tol=0.0, max_pops=10)
    assert run.check_result(index, pool, model, 2, res, max_pops=10) == [], "valid plan rejected"

    def corrupt(**changes):
        bad = type(res)(**{**res.__dict__, **changes})
        return run.check_result(index, pool, model, 2, bad, max_pops=10)

    outside = {0: {5}}  # vertex 5 is not in V^p
    cases = {
        "promoter outside V^p": corrupt(plan=outside, utility=estimate_au(index, outside, model)),
        "piece out of range": corrupt(plan={7: {0}}),
        "more than k assignments": corrupt(plan={0: {0, 1}, 1: {2}}),
        "utility not reproduced": corrupt(utility=res.utility + 1.0, upper_bound=res.upper_bound + 1.0),
        "upper bound below utility": corrupt(upper_bound=res.utility - 1.0),
        "gap outside [0, 1]": corrupt(gap=1.5),
        "pops beyond the cap": corrupt(pops=11),
    }
    for what, problems in cases.items():
        assert problems, f"output check missed: {what}"
        print(f"ok: output check fires on {what}: {problems[0]}")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, "oipa_bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def check_workloads(spec: dict) -> None:
    line_re = re.compile(r"^metric (\S+) = \S+ (\S+) \((\w+) is better\)$", re.M)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
            rc, out = _run(w["name"], trace)
            result = json.loads(out.strip().splitlines()[-1])
            assert rc == 0 and result["correct"], f"{w['name']} trace={trace} failed:\n{out}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0
            printed = {m[0]: (m[1], m[2]) for m in line_re.findall(out)}
            for metric in spec[key]:
                name = metric["name"]
                got = result["metrics"].get(name)
                assert got is not None, f"{w['name']}: {name} missing"
                assert got["unit"] == metric["unit"], f"{name}: unit {got['unit']}"
                assert printed.get(name) == (metric["unit"], metric["better"]), (
                    f"{name}: printed as {printed.get(name)}"
                )
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}
            print(f"ok: {w['name']} trace={trace}: {len(result['metrics'])} metrics")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "oipa_bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in HERE.iterdir():
        if p.is_file():
            shutil.copy(p, bare / "oipa_bench")
    rc, out = _run(next(iter(run.WORKLOADS)), 0, cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and not out.strip(), f"bare directory: rc={rc}, stdout={out!r}"
    print(f"ok: bare directory exits {rc} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    check_corrupted_plans()
    check_bare_directory()
    check_workloads(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
