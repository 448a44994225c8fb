#!/usr/bin/env python3
"""Reference two-branch experiment on the 64-node unit torus.

Estimates the functional constants, evaluates the smallness thresholds,
picks lambda as half the maximum-branch threshold, searches both
constraint branches with the truncation active, and prints a summary. For
artifacts, run `doublephase solve` on a config with the printed lambda.
"""

import argparse
import sys

sys.path.insert(0, "src")

import doublephase as dp


def build_instance(lam):
    chart, metric = dp.build_torus(1, [64])
    return dp.ProblemInstance(
        chart=chart,
        metric=metric,
        exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0)),
        weight=dp.WeightField(mu=chart.constant(1.0)),
        lam=lam,
        nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=chart.constant(1.0)),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--multistart", type=int, default=8)
    ap.add_argument("--lam", type=float, default=None, help="override lambda (default: threshold/2)")
    args = ap.parse_args()

    probe = build_instance(1.0)
    consts = dp.estimate_constants(probe.exponents, probe.weight, probe.metric, trials=200, seed=args.seed)
    thr = dp.thresholds(probe, consts)
    lam = args.lam if args.lam is not None else thr.lambda_star_star / 2.0
    print(f"constants: c={consts.c_poincare:.6f} D={consts.D_embed:.6f} c1={consts.c1_embed:.6f}")
    print(f"thresholds: lambda* = {thr.lambda_star:.6g} (clamped={thr.star_clamped}), "
          f"lambda** = {thr.lambda_star_star:.6g}")
    print(f"running at lambda = {lam!r}")

    P = build_instance(lam)
    cfg = dp.SolverConfig(seed=args.seed, multistart=args.multistart)
    result = dp.two_solution_experiment(P, cfg)
    print(f"status: {result.status}")
    for rep, tag in ((result.report_plus, "minimum branch"), (result.report_minus, "maximum branch")):
        if rep is None:
            continue
        print(
            f"  {tag}: J = {rep.J_value:+.6e}  residual = {rep.residual_norm:.2e}  "
            f"min u = {rep.min_u:+.3e}  iters = {rep.iterations}"
        )
    print(f"separation: {result.separation:.4f}  distinct: {result.distinct}")
    for w in result.warnings:
        print(f"  note: {w}")
    return 0 if result.status == "converged" else 2


if __name__ == "__main__":
    sys.exit(main())
