"""The four benchmark workloads: their inputs, the operation, and its checks.

Every lambda is a fixed literal so the input does not depend on the code
under test. Each is lambda**/2 (or a grid around lambda**) from
``estimate_constants(trials=200, seed=42)`` on the same instance; see
DESIGN.md. The benchmark seed becomes the solver or verify seed; the program
only sees the configuration text written here and the seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RESIDUAL_TOL = 1e-6
MIN_U_TOL = -1e-10
CLOSED_FORM_TOL = 1e-6
LUX_UNIT_TOL = 1e-10
LUX_FIELDS = 1200
SOLVE_ARTIFACTS = ("report_plus.json", "report_minus.json", "u_plus.field", "u_minus.field",
                   "experiment.json")

CENSUS_LAMBDAS = (
    0.05346956160192567,
    0.07945546318311779,
    0.11807036453084413,
    0.17545188740915205,
    0.26072050270829883,
    0.38742917808544636,
    0.5757175460799949,
    0.8555129856308107,
)


def _solve_config(dim, sizes, metric, lam, multistart, constants_trials):
    return f"""\
[chart]
dim = {dim}
sizes = {sizes}
metric = {metric}

[exponents]
p = constant 3.0
q = constant 2.0

[weight]
mu = constant 1.0

[nonlinearity]
beta = 4.0
amplitude = constant 1.0
a_threshold = 1.0

[problem]
lambda = {lam!r}

[solver]
multistart = {multistart}
max_outer_iters = 5000
residual_tol = {RESIDUAL_TOL!r}
truncate = true

[constants]
trials = {constants_trials}
"""


class Workload:
    """One kind of operation; ``reduced`` shrinks it for the self-test."""

    name = ""
    cli = False
    dim = 1
    sizes = (64,)
    # Wall time of one operation on the machine the benchmark was defined on.
    nominal_op_s = 1.0

    def __init__(self, reduced=False):
        self.reduced = reduced

    def operations(self, seconds):
        """Operations in a run of about ``seconds``: at least one, never speed-dependent."""
        return max(1, round(seconds / self.nominal_op_s))

    def config_text(self):
        raise NotImplementedError

    def prepare(self, P, seed):
        """Inputs the operation needs beyond the configuration, made before timing."""
        return None

    def run(self, rc, P, seed, out, inputs):
        """Run the operation; returns its exit code."""
        raise NotImplementedError

    def artifacts(self):
        raise NotImplementedError

    def check(self, out, exit_code, P, inputs):
        """(attempted, failed, messages) for the operation's outputs."""
        raise NotImplementedError

    def working_set(self):
        """Bytes of the per-node arrays, computed from their shapes, not measured.

        The largest is the metric inverse, (nodes, dim, dim) doubles.
        """
        n = int(np.prod(self.sizes))
        d = self.dim
        return {
            "nodes": n,
            "field_bytes": 8 * n,
            "gradient_bytes": 8 * n * d,
            "largest_array_bytes": 8 * n * d * d,
            "source": "computed from array sizes",
        }


class _Solve(Workload):
    """CLI ``solve``: both branches, checked against the constant critical points."""

    cli = True
    metric = "identity"
    lam = 0.0
    multistart = 8

    def config_text(self):
        sizes = " ".join(str(s) for s in self.sizes)
        multistart = 2 if self.reduced else self.multistart
        trials = 100 if self.reduced else 200
        return _solve_config(self.dim, sizes, self.metric, self.lam, multistart, trials)

    def run(self, rc, P, seed, out, inputs):
        from doublephase import cli

        return cli.main(["solve", "--config", rc.path, "--seed", str(seed), "--out", out])

    def artifacts(self):
        return SOLVE_ARTIFACTS

    def check(self, out, exit_code, P, inputs):
        root = math.sqrt(1.0 - 4.0 * self.lam)
        exact = {"plus": 0.5 * (1.0 - root), "minus": 0.5 * (1.0 + root)}
        failed, msgs = set(), []
        if exit_code != 0:
            failed |= {"plus", "minus"}
            msgs.append(f"solve exited with {exit_code}")
        for tag in ("plus", "minus"):
            report = _read_json(os.path.join(out, f"report_{tag}.json"))
            if report is None:
                failed.add(tag)
                msgs.append(f"{tag}: branch missing")
                continue
            u = _read_field_values(os.path.join(out, f"u_{tag}.field"))
            gap = float(np.max(np.abs(u - exact[tag]))) if u is not None else math.inf
            problems = [
                (report["residual_norm"] > RESIDUAL_TOL, f"residual {report['residual_norm']:.3e}"),
                (report["min_u"] < MIN_U_TOL, f"min_u {report['min_u']:.3e}"),
                (report["class"] != tag, f"class {report['class']}"),
                (not gap <= CLOSED_FORM_TOL, f"max-norm gap {gap:.3e} to the constant critical point"),
            ]
            for bad, text in problems:
                if bad:
                    failed.add(tag)
                    msgs.append(f"{tag}: {text}")
        summary = _read_json(os.path.join(out, "experiment.json"))
        if summary is None or not summary.get("distinct", False):
            failed |= {"plus", "minus"}
            msgs.append("the two solutions are not distinct")
        return 2, len(failed), msgs


class Ref1d(_Solve):
    name = "ref1d"
    lam = 0.21387824640770267
    nominal_op_s = 13.0


class Aniso2d(_Solve):
    name = "aniso2d"
    dim = 2
    sizes = (32, 32)
    metric = "constant 1.0 0.3 2.0"
    lam = 0.23257261666817933
    multistart = 4
    nominal_op_s = 12.0


class Lux1d(Workload):
    """Luxemburg norms on the built-in variable-exponent default instance.

    Each field gets three norms: in L^q(x), in L^p(x) and in the weighted
    L^q(x) with a random positive weight. A norm is correct when the modular
    of u / norm is 1 to LUX_UNIT_TOL, which pins the root the bisection must
    find because the modular is strictly decreasing in the scale.
    """

    name = "lux1d"
    nominal_op_s = 2.0

    def config_text(self):
        from doublephase.config import default_config_text

        return default_config_text()

    def prepare(self, P, seed):
        from doublephase.spaces import WeightField

        chart = P.chart
        x = chart.axis_coords(0)
        modes = np.arange(1, 9)[:, None]

        def smooth(rng):
            a, b = rng.standard_normal((2, 8, 1))
            f = ((a * np.cos(2 * np.pi * modes * x) + b * np.sin(2 * np.pi * modes * x)) / modes**2).sum(0)
            return f / np.abs(f).max()

        inputs = []
        for i in range(LUX_FIELDS // 10 if self.reduced else LUX_FIELDS):
            rng = np.random.default_rng([seed, i])
            u = chart.field(rng.uniform(-1.0, 1.0) + 10.0 ** rng.uniform(-1.0, 1.0) * smooth(rng))
            w = WeightField(mu=chart.field(np.exp(rng.uniform(-1.0, 1.0)) * (1.2 + smooth(rng))))
            inputs.append((u, w))
        return inputs

    def run(self, rc, P, seed, out, inputs):
        from doublephase.spaces import luxemburg_norm, weighted_norm

        e, metric = P.exponents, P.metric
        norms = [
            (luxemburg_norm(u, e.q, metric), luxemburg_norm(u, e.p, metric),
             weighted_norm(u, e.q, w, metric))
            for u, w in inputs
        ]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "norms.json"), "w") as fh:
            json.dump([[repr(v) for v in row] for row in norms], fh, indent=0)
            fh.write("\n")
        return 0

    def artifacts(self):
        return ("norms.json",)

    def check(self, out, exit_code, P, inputs):
        from doublephase.spaces import modular, weighted_modular

        rows = _read_json(os.path.join(out, "norms.json"))
        if exit_code != 0 or rows is None or len(rows) != len(inputs):
            n = 3 * len(inputs)
            return n, n, [f"norm batch exited with {exit_code} and wrote {len(rows or ())} rows"]
        norms = [[float(v) for v in row] for row in rows]
        e, metric, chart = P.exponents, P.metric, P.chart
        failed, msgs = 0, []
        for i, ((u, w), (n_q, n_p, n_wq)) in enumerate(zip(inputs, norms)):
            gaps = (
                modular(chart.field(u.values / n_q), e.q, metric) - 1.0,
                modular(chart.field(u.values / n_p), e.p, metric) - 1.0,
                weighted_modular(chart.field(u.values / n_wq), e.q, w, metric) - 1.0,
            )
            for kind, gap in zip(("q", "p", "weighted q"), gaps):
                if not abs(gap) <= LUX_UNIT_TOL:
                    failed += 1
                    msgs.append(f"field {i}: {kind} modular at the norm is off by {gap:.3e}")
        return 3 * len(inputs), failed, msgs[:5]


class Census1d(Workload):
    """The public ``sweep()`` census on the ref1d instance."""

    name = "census1d"
    nominal_op_s = 10.0

    def config_text(self):
        return _solve_config(1, "64", "identity", Ref1d.lam, 8, 200)

    def lambdas(self):
        return (CENSUS_LAMBDAS[0], CENSUS_LAMBDAS[-1]) if self.reduced else CENSUS_LAMBDAS

    def n_samples(self):
        return 16 if self.reduced else 256

    def run(self, rc, P, seed, out, inputs):
        from doublephase.solver import SolverConfig, sweep

        rows = sweep(P, self.lambdas(), SolverConfig(seed=seed, multistart=8), n_samples=self.n_samples())
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "census.json"), "w") as fh:
            json.dump([[repr(v) for v in row.to_csv_row()] for row in rows], fh, indent=1)
            fh.write("\n")
        return 0

    def artifacts(self):
        return ("census.json",)

    def check(self, out, exit_code, P, inputs):
        n = len(self.lambdas())
        rows = _read_json(os.path.join(out, "census.json"))
        if exit_code != 0 or rows is None or len(rows) != n:
            return n, n, ["census did not produce one row per lambda"]
        failed, msgs = 0, []
        for raw in rows:
            lam, theta_plus, theta_minus, n_plus, n_minus, _lam_s, lam_ss = (float(v) for v in raw)
            problems = [
                (n_minus != self.n_samples(), f"{n_minus:g} of {self.n_samples()} samples on the minus branch"),
                (lam < lam_ss and not theta_minus > 0.0, f"theta- = {theta_minus:.3e} below lambda**"),
                (n_plus > 0 and theta_plus > 0.0, f"theta+ = {theta_plus:.3e} > 0"),
            ]
            bad = [text for flag, text in problems if flag]
            if bad:
                failed += 1
                msgs.append(f"lambda {lam:.6g}: " + "; ".join(bad))
        return n, failed, msgs


WORKLOADS = {w.name: w for w in (Ref1d, Aniso2d, Lux1d, Census1d)}


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_field_values(path):
    """Node values of a field file; its layout is two header lines then one value per line."""
    try:
        return np.loadtxt(path, skiprows=2, ndmin=1)
    except (OSError, ValueError):
        return None
