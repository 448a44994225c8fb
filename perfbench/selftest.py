"""Self-test of the benchmark on reduced inputs.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py with ``--reduced``,
once untraced and once traced, and checks that the last output line has
exactly the four result keys and every declared metric with its unit. Then
corrupts one solve artifact and checks that the workload's own checks count
a failed operation. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check_result(result, declared):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
        elif got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {spec['name']} printed as {got}, declared unit {spec['unit']}")
    extra = set(metrics) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def corrupted_solve_fails():
    """A solve artifact nudged off the closed-form critical point must fail its branch."""
    sys.path.insert(0, str(HERE))
    from run import WORK
    from workloads import WORKLOADS

    outs = sorted((WORK / "ref1d-trace0-reduced").glob("*-op/out"))
    if not outs:
        return ["no reduced ref1d output to corrupt"]
    bad = WORK / "selftest-corrupted"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(outs[0], bad)
    workload = WORKLOADS["ref1d"](reduced=True)
    attempted, failed, _ = workload.check(str(bad), 0, None, None)
    problems = [] if failed == 0 else [f"pristine copy already fails {failed} of {attempted}"]
    field = bad / "u_plus.field"
    lines = field.read_text().splitlines()
    lines[2] = repr(float(lines[2]) + 1e-3)
    field.write_text("\n".join(lines) + "\n")
    attempted, failed, msgs = workload.check(str(bad), 0, None, None)
    shutil.rmtree(bad)
    if not failed / attempted > 0:
        problems.append("a corrupted u_plus.field did not raise the failure ratio above 0")
    else:
        print(f"negative case: corrupted u_plus.field -> {failed}/{attempted} failed ({msgs[0]})")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, log = run_benchmark(wl["name"], trace)
            found = [log] if result is None else check_result(result, declared)
            print(f"{wl['name']} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += [f"{wl['name']} trace={trace}: {p}" for p in found]
    problems += corrupted_solve_fails()
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
