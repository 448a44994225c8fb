"""Benchmark runner for doublephase.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ref1d --seed 42 --seconds 12 --trace 0

Closed loop, one operation at a time, each in a fresh worker process
(perfbench/worker.py) so set-up time and peak memory are measured per
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment.

``--trace 0`` runs the workload's operation a fixed number of times,
``--seconds`` divided by the operation's nominal time, with seeds derived
from ``--seed`` and SETUP_PROBES set-up-only workers split before and
after, and reports the end-to-end metrics. The count does not depend on how
fast the program is, so two versions of it run the same inputs.
``--trace 1`` runs the operation once untraced and once traced at the same
seed, checks that their artifacts are byte-identical, and reports the
per-layer metrics of the traced one.

Workloads and metrics are documented in perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 10
# Every worker is killed once the run is this old, so a run ends within the
# 180 s a benchmark run may take.
RUN_DEADLINE_S = 170
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("ref1d", "aniso2d", "lux1d", "census1d")
# Cache sizes of the 2-core Xeon the benchmark was defined on. They are not
# read at run time: the benchmark reads nothing outside its checkout.
CACHE = {"L2_bytes": 4 * 2**20, "L3_bytes": 105 * 2**20, "source": "machine the benchmark was defined on"}


def op_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation of a run; the first uses the run seed itself."""
    return seed + 1_000_003 * k


class Run:
    """The worker jobs of one benchmark run, in their own directory."""

    def __init__(self, workload, trace, reduced):
        self.workload = workload
        self.reduced = reduced
        self.dir = WORK / f"{workload}-trace{int(trace)}{'-reduced' if reduced else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.jobs = 0
        self.deadline = perf_counter() + RUN_DEADLINE_S

    def job(self, mode, seed=0, trace=False):
        """Run one worker to completion; returns its result (None if it died)."""
        job_dir = self.dir / f"{self.jobs:03d}-{mode}{'-traced' if trace else ''}"
        self.jobs += 1
        job_dir.mkdir()
        spec = {"workload": self.workload, "seed": seed, "mode": mode, "trace": trace,
                "reduced": self.reduced, "dir": str(job_dir),
                "config": str(self.dir / f"{self.workload}.cfg")}
        (job_dir / "job.json").write_text(json.dumps(spec))
        env = dict(os.environ, TMPDIR=str(job_dir))
        with open(job_dir / "stdout.txt", "w") as out, open(job_dir / "stderr.txt", "w") as err:
            try:
                code = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_dir / "job.json")],
                    cwd=ROOT, env=env, stdout=out, stderr=err,
                    timeout=max(self.deadline - perf_counter(), 0.001),
                ).returncode
            except subprocess.TimeoutExpired:
                code = None
        result_path = job_dir / "result.json"
        if code != 0 or not result_path.exists():
            return None, job_dir
        return json.loads(result_path.read_text()), job_dir


def _failed_job(job_dir, what):
    err = (job_dir / "stderr.txt").read_text()[-2000:] if (job_dir / "stderr.txt").exists() else ""
    print(f"{what}: worker in {job_dir} did not finish\n{err}", file=sys.stderr)


def setup_probes(run, count):
    samples = []
    for _ in range(count):
        res, job_dir = run.job("setup")
        if res is None:
            _failed_job(job_dir, "set-up probe")
            raise SystemExit(1)
        samples.append(res["setup_s"])
    return samples


def run_plain(run, workload, seed, seconds):
    walls, rss = [], []
    attempted = failed = 0
    # The cores of the machine the benchmark was defined on run up to ~1.6x
    # slower for stretches of seconds (CPU time rises with wall time, so it
    # is not preemption). Half the set-up probes run before the operations
    # and half after, so the median spans the run instead of one stretch.
    setups = setup_probes(run, SETUP_PROBES // 2)
    for k in range(workload.operations(seconds)):
        res, job_dir = run.job("op", op_seed(seed, k))
        if res is None:
            _failed_job(job_dir, "operation")
            attempted += 1
            failed += 1
            continue
        _report_messages(res, job_dir)
        walls.append(res["wall_s"])
        rss.append(res["rss_mb"])
        attempted += res["attempted"]
        failed += res["failed"]
    if not walls:
        raise SystemExit(1)
    setups += setup_probes(run, SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    env_extra = {"operations": len(walls), "setup_s_all": setups, "wall_s_all": walls}
    return failed == 0, attempted, failed, metrics, env_extra


def run_traced(run, workload, seed):
    plain, plain_dir = run.job("op", seed)
    traced, traced_dir = run.job("op", seed, trace=True)
    for res, job_dir in ((plain, plain_dir), (traced, traced_dir)):
        if res is None:
            _failed_job(job_dir, "traced comparison")
            raise SystemExit(1)
        _report_messages(res, job_dir)
    differing = [
        name for name in workload.artifacts()
        if _read_bytes(plain_dir / "out" / name) != _read_bytes(traced_dir / "out" / name)
    ]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    if differing or not traced["restored"]:
        print(f"tracing changed the results: differing artifacts {differing}, "
              f"wrappers restored: {traced['restored']}", file=sys.stderr)
        failed = plain["failed"] + traced["attempted"]
    metrics = {name: (value, _unit(name)) for name, value in sorted(traced["trace"].items())}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    env_extra = {"artifacts_identical": not differing, "wrappers_restored": traced["restored"],
                 "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                 "spans_file": str((traced_dir / "spans.jsonl.gz").relative_to(ROOT))}
    return failed == 0, attempted, failed, metrics, env_extra


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "start_yield")):
        return "ratio"
    if name.endswith("_per_norm"):
        return "count/norm"
    if name.endswith("_per_projection"):
        return "count/projection"
    if name.endswith("_per_iter"):
        return "count/iter"
    return "count"


def _read_bytes(path):
    return path.read_bytes() if path.exists() else None


def _report_messages(res, job_dir):
    for msg in res["messages"]:
        print(f"{job_dir.name}: {msg}", file=sys.stderr)


def environment(workload):
    import numpy

    working_set = workload.working_set()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {k: os.environ[k] for k in THREAD_PINS},
        "cache": CACHE,
        "working_set": working_set,
        "cache_resident": working_set["largest_array_bytes"] < CACHE["L2_bytes"],
        "load": "closed loop, one operation at a time, one worker process per operation",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true", help="shrink every input (self-test only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "doublephase" / "__init__.py").is_file():
        print(f"error: no doublephase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in THREAD_PINS:
        os.environ[key] = "1"
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](reduced=args.reduced)
    run = Run(args.workload, args.trace, args.reduced)
    if args.trace:
        correct, attempted, failed, metrics, extra = run_traced(run, workload, args.seed)
    else:
        correct, attempted, failed, metrics, extra = run_plain(run, workload, args.seed, args.seconds)
    env = environment(workload)
    env.update(extra)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
