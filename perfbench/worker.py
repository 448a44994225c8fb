"""One benchmark job in a fresh process: set up, optionally run the operation.

Usage: python3 perfbench/worker.py JOB.json

The job file names the workload, seed, mode ("setup" or "op"), whether to
trace, the job directory and the configuration path; the worker writes
``result.json`` into the job directory. Every job of a run writes the same
configuration text to the same path, so artifacts that echo the path
compare equal.

Set-up time covers importing doublephase, writing and parsing the
configuration and building the problem instance, once per process. numpy is
already loaded by then (the benchmark's own modules use it), so the figure
is the package's own import cost. The tracer, when asked for, is installed
after set-up and input preparation, right before the timed operation.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    job_dir = job["dir"]
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]](reduced=job["reduced"])
    result = {"attempted": 0, "failed": 0, "messages": []}

    t0 = perf_counter()
    from doublephase import config  # imports the whole package

    cfg_path = job["config"]
    with open(cfg_path, "w") as fh:
        fh.write(workload.config_text())
    rc = config.parse_config(cfg_path)
    P = rc.build_instance()
    result["setup_s"] = perf_counter() - t0

    if job["mode"] == "op":
        out = os.path.join(job_dir, "out")
        inputs = workload.prepare(P, job["seed"])
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = perf_counter()
        try:
            exit_code = workload.run(rc, P, job["seed"], out, inputs)
        except Exception:
            exit_code = -1
            result["messages"].append(traceback.format_exc())
        result["wall_s"] = perf_counter() - t1
        if tracer is not None:
            result["restored"] = tracer.restore()
            result["trace"] = tracer.metrics()
            result["trace"]["cli.artifact_bytes"] = sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
            ) if workload.cli and os.path.isdir(out) else 0
            tracer.write_spans(os.path.join(job_dir, "spans.jsonl.gz"))
        attempted, failed, msgs = workload.check(out, exit_code, P, inputs)
        result.update(attempted=attempted, failed=failed)
        result["messages"].extend(msgs)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(job_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
