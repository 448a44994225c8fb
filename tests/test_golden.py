"""Golden SHA-256 digests of the benchmark workloads' and verify's artifacts.

The four workloads of perfbench/workloads.py (their configuration text,
``prepare`` and ``run``) and ``doublephase verify`` on the built-in default
run in process at seeds 42 and 7, and every artifact is hashed. A change
that claims to keep every result bitwise keeps every digest. Two things are
left out: ``timing.json``, which holds wall times, and the ``config_path``
line of each JSON artifact, which names the temporary directory.

The digests hold for the numpy version and the platform recorded with them;
on another, the test fails and names both. A change that moves artifacts on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names in its description each artifact that moved and why.
"""

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from doublephase import config
from doublephase.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"
SEEDS = (42, 7)
VERIFY_ARTIFACTS = ("verify.csv", "verify_meta.json")


def _environment():
    return {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()}"}


def _workloads():
    """perfbench/workloads.py's workload classes, imported from their file, which is only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        kept = data.splitlines(keepends=True)
        data = b"".join(line for line in kept if not line.lstrip().startswith(b'"config_path": '))
    return hashlib.sha256(data).hexdigest()


def artifact_digests(base: Path) -> dict:
    """``seed/run/artifact`` -> SHA-256 of every artifact, the runs made under ``base``."""
    digests = {}
    for seed in SEEDS:
        runs = []
        for name, workload_class in _workloads().items():
            workload = workload_class()
            cfg = base / f"{name}-{seed}.cfg"
            cfg.write_text(workload.config_text())
            rc = config.parse_config(str(cfg))
            P = rc.build_instance()
            out = base / f"{name}-{seed}"
            workload.run(rc, P, seed, str(out), workload.prepare(P, seed))
            runs.append((name, out, workload.artifacts()))
        out = base / f"verify-{seed}"
        main(["verify", "--seed", str(seed), "--out", str(out)])
        runs.append(("verify", out, VERIFY_ARTIFACTS))
        for name, out, artifacts in runs:
            for artifact in artifacts:
                path = out / artifact
                digests[f"{seed}/{name}/{artifact}"] = _digest(path) if path.exists() else "missing"
    return digests


def test_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    recorded, running = golden["environment"], _environment()
    assert recorded == running, f"digests recorded on {recorded}, running on {running}"
    digests = artifact_digests(tmp_path)
    moved = [f"{key}: now {digests.get(key, 'not written')}" for key in golden["digests"]
             if digests.get(key) != golden["digests"][key]]
    moved += [f"{key}: new, {digest}" for key, digest in digests.items() if key not in golden["digests"]]
    assert not moved, "artifacts moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"environment": _environment(), "digests": artifact_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {GOLDEN}", file=sys.stderr)
