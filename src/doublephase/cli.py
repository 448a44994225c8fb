"""Command-line front end: verify, solve, sweep, project.

Every artifact embeds the resolved configuration and the seed, so any run
can be replayed exactly; the one exception is the wall-clock record
``timing.json`` that ``solve`` writes next to its reports. Exit codes: 0
success, 1 error (including any failing verify property, malformed input,
an ``--out`` at or under a file, and a failed artifact write), 2 usage
error or inconclusive solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import RunConfig, parse_config
from .fieldio import read_field, write_field
from .grid import master_seed
from .nehari import NoRootError, project
from .solver import SWEEP_CSV_HEADER, sweep, two_solution_experiment

__all__ = ["main"]

USAGE_ERROR = 2


def _json_dump(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _csv_dump(path, header, rows):
    """The header, then each row's ``to_csv_row()``; the csv module writes floats by repr."""
    # imported here: only verify and sweep write CSV
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(row.to_csv_row() for row in rows)


def _meta(rc: RunConfig):
    return {"config": rc.echo, "config_path": rc.path, "seed": rc.seed}


def cmd_verify(args, rc: RunConfig) -> int:
    # imported here: no other command needs the property suite
    from .verify import CSV_HEADER, run_verify_suite

    trials = args.trials if args.trials is not None else rc.verify_trials
    if trials < 1:
        print(f"error: verify needs a positive trial count, got {trials}", file=sys.stderr)
        return USAGE_ERROR
    rows, passed, consts = run_verify_suite(rc, seed=rc.seed, trials=trials)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "verify.csv")
    _csv_dump(csv_path, CSV_HEADER, rows)
    meta = _meta(rc)
    meta["trials"] = trials
    meta["constants"] = consts.to_dict()
    meta["passed"] = passed
    _json_dump(os.path.join(args.out, "verify_meta.json"), meta)
    gating = [r for r in rows if r.gating]
    n_fail = sum(1 for r in gating if not r.passed)
    print(f"verify: {len(gating)} gating rows, {n_fail} failures -> {csv_path}")
    if not passed:
        first = next(r for r in gating if not r.passed)
        print(
            f"first failing row: {first.prop} seed={first.seed} lhs={first.lhs!r} "
            f"rhs={first.rhs!r} margin={first.margin!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _report_payload(rep, rc, field_name):
    payload = rep.to_dict()
    payload["field_file"] = field_name
    payload.update(_meta(rc))
    return payload


def cmd_solve(args, rc: RunConfig) -> int:
    P = rc.build_instance()
    result = two_solution_experiment(P, rc.build_solver_config())
    os.makedirs(args.out, exist_ok=True)
    summary = {
        "status": result.status,
        "distinct": result.distinct,
        "separation": result.separation,
        "thresholds": result.thresholds.to_dict(),
        "warnings": list(result.warnings),
        "failures": list(result.failures),
        "lambda": P.lam,
    }
    summary.update(_meta(rc))
    for rep, tag in ((result.report_plus, "plus"), (result.report_minus, "minus")):
        if rep is None:
            continue
        field_name = f"u_{tag}.field"
        write_field(os.path.join(args.out, field_name), rep.u)
        _json_dump(
            os.path.join(args.out, f"report_{tag}.json"),
            _report_payload(rep, rc, field_name),
        )
    _json_dump(os.path.join(args.out, "experiment.json"), summary)
    # kept apart from the reports, which are bit-identical between reruns
    _json_dump(os.path.join(args.out, "timing.json"), result.timing)
    print(f"solve: status={result.status} separation={result.separation:.3e} -> {args.out}")
    return result.exit_code


def cmd_sweep(args, rc: RunConfig) -> int:
    P = rc.build_instance(lam=rc.lam if rc.lam is not None else 1.0)
    rows = sweep(P, rc.lambda_grid, rc.build_solver_config())
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    _csv_dump(csv_path, SWEEP_CSV_HEADER, rows)
    meta = _meta(rc)
    meta["lambdas"] = [row.lam for row in rows]
    _json_dump(os.path.join(args.out, "sweep_meta.json"), meta)
    print(f"sweep: {len(rows)} rows -> {csv_path}")
    return 0


def cmd_project(args, rc: RunConfig) -> int:
    P = rc.build_instance()
    u = read_field(args.field, P.chart)
    os.makedirs(args.out, exist_ok=True)
    payload = _meta(rc)
    payload["field_file"] = args.field
    try:
        result = project(P, u)
    except NoRootError as exc:
        payload["t_roots"] = []
        payload["classes"] = []
        payload["error"] = str(exc)
        _json_dump(os.path.join(args.out, "projection.json"), payload)
        print(f"project: no root ({exc})", file=sys.stderr)
        return 2
    payload["t_roots"] = list(result.t_roots)
    payload["classes"] = [c.value for c in result.classes]
    payload["phi_at_roots"] = list(result.phi_at_roots)
    payload["scale"] = result.scale
    names = []
    for k, t in enumerate(result.t_roots):
        name = f"projected_{k}.field"
        write_field(os.path.join(args.out, name), P.chart.field(t * u.values))
        names.append(name)
    payload["projected_fields"] = names
    _json_dump(os.path.join(args.out, "projection.json"), payload)
    print(
        "project: roots "
        + ", ".join(f"t={t:.12g} ({c.value})" for t, c in zip(result.t_roots, result.classes))
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublephase",
        description="Double-phase variable-exponent energies on periodic metric grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required):
        p.add_argument("--config", required=config_required, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default="out", help="output directory")

    p_verify = sub.add_parser("verify", help="run the inequality property suite")
    common(p_verify, config_required=False)
    p_verify.add_argument("--trials", type=int, default=None, help="trial count (overrides config)")
    p_verify.set_defaults(func=cmd_verify, needs="lambda")

    p_solve = sub.add_parser("solve", help="two-branch constrained minimization")
    common(p_solve, config_required=True)
    p_solve.set_defaults(func=cmd_solve, needs="lambda")

    p_sweep = sub.add_parser("sweep", help="branch census over a lambda grid")
    common(p_sweep, config_required=True)
    p_sweep.set_defaults(func=cmd_sweep, needs="lambda_grid")

    p_project = sub.add_parser("project", help="project a stored field onto the constraint set")
    common(p_project, config_required=True)
    p_project.add_argument("--field", required=True, help="grid field file to project")
    p_project.set_defaults(func=cmd_project, needs="lambda")
    return parser


def _check_out(out):
    """Reject an ``--out`` whose nearest existing ancestor, or itself, is not a
    directory, so that no command runs to fail at its first write."""
    ancestor = os.path.abspath(out)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(f"--out {out}: {ancestor} exists and is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        rc = parse_config(args.config, needs=args.needs)
        if args.seed is not None:
            rc.seed = master_seed(args.seed)
        return args.func(args, rc)
    except (ValueError, OSError) as exc:
        # ConfigError and FieldFormatError are ValueErrors too; OSError is a
        # failed artifact write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
