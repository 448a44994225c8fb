"""Constrained minimization on the two constraint branches.

Projected descent: from a band-limited random start, scale onto the target
branch, then repeat backtracking steps along the negative Sobolev gradient,
re-projecting after every step, until the residual norm passes the stop
threshold. A branch's multistart starts descend as the lanes of one stack,
each lane bitwise a lone run, and are merged deterministically. Every
projection, of the starts, the trial points or a census stack, builds one
ray profile and reads both the roots and the energies J(t u) from it;
trial points probe a window around t = 1, and those without a root there
the full bracket, on that one profile.

The direction is the band-limited H^1 gradient of the derivative vector
w r, the node residual r times the node weight w:
d = -F^-1[mask / (1 + sigma) F(r w / w_bar)], where w_bar is the node mean
of w and sigma is the symbol of the central-difference -div(g_bar grad) with
g_bar the node mean of the inverse metric, so unit steps fit and iteration
counts do not grow with the grid. The filter is real, even and non-negative,
so the slope sum_i w_i r_i d_i = -w_bar^-1 <w r, filter * (w r)> is never
positive, on any metric: every direction descends. The mask keeps
|k| <= n/4 per axis: the central-difference gradient annihilates the
two-node checkerboard, and unfiltered descent on the truncated energy can
fall into critical points with negative checkerboard nodes. The reported
residual norm is always the unfiltered one.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .grid import (
    Frozen,
    ScalarField,
    _spectrum,
    band_limited_values,
    blocks,
    complex_normals,
    metric_symbol,
    pairwise_sum,
    pairwise_sum_rows,
    random_band_limited_values,
    substream,
)
from .nehari import (
    PROBE_POINTS,
    NehariClass,
    Thresholds,
    _RayProfile,
    thresholds,
)
from .problem import PROBE_BRACKET, ProblemInstance, residual_gradient
from .spaces import ConstantsEstimate, estimate_constants

__all__ = [
    "SolverConfig",
    "SolutionReport",
    "BranchError",
    "ExperimentResult",
    "SweepRow",
    "SWEEP_CSV_HEADER",
    "minimize_on_branch",
    "two_solution_experiment",
    "sweep",
]

# backtracking line search: the unit first trial of every iteration, the shrink
# factor, the Armijo constant and the backtracks allowed
STEP0 = 1.0
SHRINK = 0.5
ARMIJO = 1e-4
MAX_BACKTRACKS = 60
# the (bracket, probe points) a descent trial probes first, around t = 1
LOCAL_WINDOW = ((0.25, 4.0), 17)
# peak oscillation of the first and the last start field (geometric between), and every start's mean
START_AMPS = (0.02, 0.5)
START_MEAN = 1.0
# least node value a non-negative solution may have
NONNEG_TOL = 1e-10


class SolverConfig(Frozen):
    """Descent and multistart budget for one branch search.

    Every search runs on the truncated energy, whose source terms are
    integrated over {u >= 0} only.
    """

    __slots__ = ("target", "multistart", "seed", "max_outer_iters", "residual_tol", "constants_trials")

    def __init__(
        self,
        target: NehariClass = NehariClass.MINUS,
        multistart: int = 8,
        seed: int = 0,
        max_outer_iters: int = 5000,
        residual_tol: float = 1e-6,
        constants_trials: int = 200,
    ):
        if multistart < 1:
            raise ValueError("multistart must be at least 1")
        if not (math.isfinite(residual_tol) and residual_tol > 0):
            raise ValueError("residual_tol must be finite and positive")
        if max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        for name, value in zip(self.__slots__, (target, multistart, seed, max_outer_iters, residual_tol,
                                                constants_trials)):
            object.__setattr__(self, name, value)

    def with_target(self, target: NehariClass) -> "SolverConfig":
        """This budget aimed at the branch ``target``."""
        return SolverConfig(target, self.multistart, self.seed, self.max_outer_iters, self.residual_tol,
                            self.constants_trials)


class SolutionReport(NamedTuple):
    u: ScalarField
    J_value: float
    nehari_class: NehariClass
    psi_value: float
    residual_norm: float
    min_u: float
    iterations: int
    start_index: int
    n_converged_starts: int
    warnings: tuple
    constants: ConstantsEstimate | None = None

    def to_dict(self):
        d = {
            "J_value": self.J_value,
            "class": self.nehari_class.value,
            "psi_value": self.psi_value,
            "residual_norm": self.residual_norm,
            "min_u": self.min_u,
            # the least converged energy of the multistart, which is J_value
            "theta_estimate": self.J_value,
            "iterations": self.iterations,
            "start_index": self.start_index,
            "n_converged_starts": self.n_converged_starts,
            "warnings": list(self.warnings),
        }
        if self.constants is not None:
            d["constants"] = self.constants.to_dict()
        return d


class BranchError(RuntimeError):
    """No multistart run converged on the requested branch."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "empty" or "stalled"


def _start_values(P: ProblemInstance, cfg: SolverConfig, indices) -> np.ndarray:
    """Band-limited start fields ``indices``, stacked; start i draws from its own substream."""
    lo, hi = START_AMPS
    if cfg.multistart > 1:
        amps = np.geomspace(lo, hi, cfg.multistart).tolist()
    else:
        amps = [math.sqrt(lo * hi)]
    return random_band_limited_values(
        P.chart,
        [substream(cfg.seed, "start", i) for i in indices],
        [amps[i] for i in indices],
        mean=START_MEAN,
    )


def _project_onto(P, vals, cfg, local=False):
    """Scale every row of the (m, *shape) stack ``vals`` onto the target branch.

    Returns one entry per row: the projected node values and their energy,
    or None, each bitwise that row's own. All rows share one truncated ray
    profile, and each row's smallest root of the target class on it is
    taken, as in the census. Initial projections probe the full bracket.
    Re-projections inside the descent loop (``local``) first probe
    ``LOCAL_WINDOW`` around t = 1, where the root continuous with the
    current iterate lives; rows without a root there then probe the full
    bracket on the same profile. Rows with non-finite entries are rejected
    before any profile is built; a row gets None when no window has a
    matching root, as the zero field, whose profile vanishes, does. The
    energy J(t u) is read from the same profile: every term is homogeneous
    in t, and for t > 0 the truncation mask of t u is the mask of u.
    """
    out = [None] * len(vals)
    live = np.flatnonzero(np.isfinite(vals.reshape(len(vals), -1)).all(axis=1))
    if live.size:
        profile = _RayProfile(P, vals[live], truncated=True)
        left = np.arange(live.size)
        windows = (LOCAL_WINDOW,) if local else ()
        for bracket, n_grid in windows + ((PROBE_BRACKET, PROBE_POINTS),):
            rays, t = profile.constraint_points(bracket, n_grid, left).first(cfg.target)
            for ray, t_ray, J in zip(rays.tolist(), t.tolist(), profile.energy_values(rays, t).tolist()):
                out[live[ray]] = (t_ray * vals[live[ray]], J)
            left = left[~np.isin(left, rays)]
            if not left.size:
                break
    return out


class _StartOutcome:
    """A start's descent: its iterate's node values, energy and last residual norm,
    the iterations it completed (counting the one it stalled in), and why it ended."""

    __slots__ = ("converged", "projected", "u", "J", "residual_norm", "iterations", "note")

    def __init__(self, converged: bool, projected: bool, u: np.ndarray | None = None, J: float = math.inf,
                 note: str = ""):
        self.converged = converged
        self.projected = projected
        self.u = u
        self.J = J
        self.residual_norm = math.inf
        self.iterations = 0
        self.note = note


def _sobolev_filter(P: ProblemInstance) -> np.ndarray:
    """mask(k) / (1 + sigma(k)), sigma the ``metric_symbol``; the 1 is the L^2 part.

    It filters w r / w_bar, the derivative in the slope's pairing, not r.
    """
    return _spectrum(P.chart)[1] / (1.0 + metric_symbol(P.metric))


def _descend(P: ProblemInstance, cfg: SolverConfig, starts: np.ndarray) -> list:
    """Sobolev-gradient descents from the rows of ``starts``, as the lanes of one stack.

    Each iteration filters w r / w_bar (``_sobolev_filter``), tries a unit
    step and halves it until the re-projected candidate passes the Armijo
    test. On constant weights w / w_bar is 1 (to rounding), so d filters r.
    The lanes that have just projected or accepted a step take one stacked
    residual, direction and slope; then every lane still searching
    re-projects its candidate in one ``_project_onto`` call. Iterates stay
    node values. Every row sums as it would alone, so outcome i is bitwise
    that of row i descending by itself.
    """
    w = P.node_weight
    multiplier = _sobolev_filter(P)
    w_rel = w / (pairwise_sum(w) / P.chart.n_nodes)
    axes = tuple(range(-P.chart.dim, 0))
    outcomes = [
        _StartOutcome(False, False, note="start did not project") if start is None else _StartOutcome(False, True, *start)
        for start in _project_onto(P, starts, cfg)
    ]
    fresh = [i for i, out in enumerate(outcomes) if out.projected]
    # each searching lane's (direction, slope, step, failed trials)
    search = {}
    while fresh:
        r, rnorms = residual_gradient(P, np.array([outcomes[i].u for i in fresh]), truncated=True)
        d = -np.fft.ifftn(np.fft.fftn(r * w_rel, axes=axes) * multiplier, axes=axes).real
        slopes = pairwise_sum_rows((r * d * w).reshape(len(fresh), -1))
        for i, rnorm, d_i, slope in zip(fresh, rnorms.tolist(), d, slopes.tolist()):
            outcomes[i].residual_norm = rnorm
            outcomes[i].converged = rnorm <= cfg.residual_tol
            if not outcomes[i].converged:
                search[i] = (d_i, slope, STEP0, 0)
        fresh = []
        while search and not fresh:
            live = list(search)
            candidates = np.array([outcomes[i].u + search[i][2] * search[i][0] for i in live])
            for i, trial in zip(live, _project_onto(P, candidates, cfg, local=True)):
                out, (d_i, slope, step, failed) = outcomes[i], search.pop(i)
                if trial is not None and trial[1] <= out.J + ARMIJO * step * slope:
                    out.u, out.J = trial
                    out.iterations += 1
                    if out.iterations < cfg.max_outer_iters:
                        fresh.append(i)
                    else:
                        out.note = "iteration cap reached"
                elif failed + 1 < MAX_BACKTRACKS:
                    search[i] = (d_i, slope, step * SHRINK, failed + 1)
                else:
                    out.iterations += 1
                    out.note = "backtracking stalled"
    return outcomes


def minimize_on_branch(
    P: ProblemInstance,
    cfg: SolverConfig,
    constants: ConstantsEstimate | None = None,
) -> SolutionReport:
    """Best converged multistart run on the target branch.

    Raises BranchError("empty") when no start even lands on the branch and
    BranchError("stalled") when starts land but none reaches the residual
    stop. Runs are merged by (J value, start index), so reports are
    deterministic for a fixed seed.
    """
    outcomes = _descend(P, cfg, _start_values(P, cfg, range(cfg.multistart)))
    converged = [(o.J, i, o) for i, o in enumerate(outcomes) if o.converged]
    if not converged:
        if not any(o.projected for o in outcomes):
            raise BranchError(
                "empty",
                f"no start projected onto the {cfg.target.value} branch "
                f"after {cfg.multistart} starts",
            )
        rnorm, i = min((o.residual_norm, i) for i, o in enumerate(outcomes) if o.projected)
        raise BranchError(
            "stalled",
            f"{cfg.target.value} branch: no start reached residual "
            f"{cfg.residual_tol:g}; best residual {rnorm:.3e} (start {i}: {outcomes[i].note})",
        )
    _, index, out = min(converged, key=lambda rec: (rec[0], rec[1]))
    # the one field of the descent: it checks that the reported point is finite
    u = P.chart.field(out.u)
    profile = _RayProfile(P, u, truncated=True)
    psi_value = profile.phi(1.0)
    cls = profile.classify_root(1.0)
    warnings = list(P.warnings)
    if cls is not cfg.target:
        warnings.append(f"converged point classifies as {cls.value}, target was {cfg.target.value}")
    return SolutionReport(
        u=u,
        J_value=out.J,
        nehari_class=cls,
        psi_value=psi_value,
        residual_norm=out.residual_norm,
        min_u=float(u.values.min()),
        iterations=out.iterations,
        start_index=index,
        n_converged_starts=len(converged),
        warnings=tuple(warnings),
        constants=constants,
    )


class ExperimentResult(Frozen):
    """Both branch searches: ``status`` is "converged" or "inconclusive".

    ``timing`` holds the wall seconds of the constants estimate, each branch
    and the whole experiment. They differ between reruns, and results compare
    by identity only, so no equality reads them.
    """

    __slots__ = ("status", "report_plus", "report_minus", "distinct", "separation", "thresholds", "warnings",
                 "failures", "timing")

    def __init__(
        self,
        status: str,
        report_plus: SolutionReport | None,
        report_minus: SolutionReport | None,
        distinct: bool,
        separation: float,
        thresholds: Thresholds,
        warnings: tuple,
        failures: tuple,
        timing: dict,
    ):
        for name, value in zip(self.__slots__, (status, report_plus, report_minus, distinct, separation,
                                                thresholds, warnings, failures, timing)):
            object.__setattr__(self, name, value)

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "converged" else 2


def _node_l2(values: np.ndarray) -> float:
    return math.sqrt(pairwise_sum(values * values))


def two_solution_experiment(P: ProblemInstance, cfg: SolverConfig) -> ExperimentResult:
    """Search both branches.

    Returns status "inconclusive" instead of failing when a branch cannot be
    found: the discrete search has no existence guarantee. When both
    branches are found, their separation is recorded, and a minimizer whose
    least node value ``min_u`` is below -NONNEG_TOL adds a warning.
    """
    start = perf_counter()
    consts = estimate_constants(
        P.exponents,
        P.weight,
        P.metric,
        trials=cfg.constants_trials,
        seed=cfg.seed,
    )
    timing = {"constants_s": perf_counter() - start}
    thr = thresholds(P, consts)
    warnings = list(P.warnings)
    if P.lam >= thr.lambda_bar:
        warnings.append(
            f"lambda = {P.lam:g} is not below the estimated threshold "
            f"lambda_bar = {thr.lambda_bar:g}; existence heuristics do not apply"
        )
    reports = {}
    failures = []
    for target in (NehariClass.PLUS, NehariClass.MINUS):
        run_cfg = cfg.with_target(target)
        branch_start = perf_counter()
        try:
            reports[target] = minimize_on_branch(P, run_cfg, constants=consts)
        except BranchError as exc:
            reports[target] = None
            failures.append(f"{target.value}: [{exc.kind}] {exc}")
        timing[f"{target.value}_s"] = perf_counter() - branch_start
    plus, minus = reports[NehariClass.PLUS], reports[NehariClass.MINUS]
    separation = 0.0
    distinct = False
    if plus is not None and minus is not None:
        diff = _node_l2(plus.u.values - minus.u.values)
        denom = _node_l2(plus.u.values) + _node_l2(minus.u.values)
        separation = diff / denom if denom > 0 else 0.0
        distinct = separation > 1e-6
        for rep in (plus, minus):
            if rep.min_u < -NONNEG_TOL:
                warnings.append(
                    f"{rep.nehari_class.value} minimizer has negative nodes: min = {rep.min_u:.3e}"
                )
    status = "converged" if plus is not None and minus is not None else "inconclusive"
    timing["total_s"] = perf_counter() - start
    return ExperimentResult(
        status=status,
        report_plus=plus,
        report_minus=minus,
        distinct=distinct,
        separation=separation,
        thresholds=thr,
        warnings=tuple(warnings),
        failures=tuple(failures),
        timing=timing,
    )


# the sweep CSV's columns, one per SweepRow field in order
SWEEP_CSV_HEADER = ["lambda", "theta_plus_estimate", "theta_minus_estimate", "n_plus_found", "n_minus_found",
                    "lambda_star", "lambda_star_star"]


class SweepRow(NamedTuple):
    lam: float
    theta_plus_estimate: float
    theta_minus_estimate: float
    n_plus_found: int
    n_minus_found: int
    lambda_star: float
    lambda_star_star: float

    def to_csv_row(self):
        return list(self)


def _census_samples(chart, seed, j, n) -> np.ndarray:
    """Zero-mean band-limited census samples 0 .. n-1 at lambda index j, stacked.

    The samples are drawn in order from one generator,
    ``substream(seed, "sweep-minus", j)``; each draws its amplitude and then
    its coefficients, so sample i is bitwise the i-th of sequential
    ``random_band_limited`` draws on that stream, and the first m of n
    samples are the m samples. Built in ``grid.blocks`` of (sample, node)
    values, so that only one block's coefficients are alive at a time; a
    sample's coefficients are one generator call into the block's draws.
    """
    rng = substream(seed, "sweep-minus", j)
    stack = np.empty((n,) + chart.shape)
    for b in blocks(n, chart.n_nodes):
        draws = np.empty((b.stop - b.start, 2) + chart.shape)
        amps = []
        for row in draws:
            amps.append(float(10.0 ** rng.uniform(-1, 1)))
            rng.standard_normal(out=row)
        stack[b] = band_limited_values(chart, complex_normals(draws), amps)
    return stack


def _census(P: ProblemInstance, stack: np.ndarray, target: NehariClass):
    """(least energy, count) over the stacked fields whose ray meets the target branch.

    Each field counts once, at its smallest root of the target class; the
    energy is nan when no field does. The whole stack is projected at once;
    the profile keeps no reference to it, so a stack the caller passes
    without a name of its own is freed before the rays are probed.
    """
    profile = _RayProfile(P, stack)
    del stack
    rays, t = profile.constraint_points().first(target)
    if not rays.size:
        return math.nan, 0
    return min(profile.energy_values(rays, t).tolist()), int(rays.size)


def sweep(
    P: ProblemInstance,
    lambdas,
    cfg: SolverConfig,
    n_samples: int = 64,
) -> list:
    """Branch census over a lambda grid, without descent.

    ``lambdas`` is the grid, or the point count N of ``auto N``: N points
    geometric from lambda**/8 to 2 lambda**, which must be positive. The
    constants are estimated once, with the solver's trials and seed, and
    the thresholds, which do not depend on lambda, evaluated once from them.

    Per lambda: zero-mean band-limited samples are projected to estimate the
    maximum-branch level theta_minus (zero-mean rays are the family on which
    the smallness estimates are valid), and the solver's mean-biased start
    ladder is projected to count minimum-branch landings and estimate
    theta_plus. Each family is built as one stack and projected onto the
    full bracket at once, so a lambda costs two ray profiles, and the rows
    are bitwise those of projecting every field alone. Each lambda's samples
    are drawn in order from one substream, and each start from its own. The
    ladder depends only on the chart, the seed and ``multistart``, so it is
    drawn once for all lambdas.
    """
    constants = estimate_constants(P.exponents, P.weight, P.metric, trials=cfg.constants_trials, seed=cfg.seed)
    thr = thresholds(P, constants)
    if isinstance(lambdas, int):
        if thr.lambda_star_star <= 0:
            raise ValueError("auto lambda grid needs a positive threshold")
        lambdas = np.geomspace(thr.lambda_star_star / 8.0, 2.0 * thr.lambda_star_star, lambdas)
    starts = _start_values(P, cfg, range(cfg.multistart))
    rows = []
    for j, lam in enumerate(lambdas):
        Pj = P.with_lambda(float(lam))
        # the samples get no name here, so _census frees them before it probes
        theta_minus, n_minus = _census(Pj, _census_samples(Pj.chart, cfg.seed, j, n_samples), NehariClass.MINUS)
        theta_plus, n_plus = _census(Pj, starts, NehariClass.PLUS)
        rows.append(
            SweepRow(
                lam=float(lam),
                theta_plus_estimate=theta_plus,
                theta_minus_estimate=theta_minus,
                n_plus_found=n_plus,
                n_minus_found=n_minus,
                lambda_star=thr.lambda_star,
                lambda_star_star=thr.lambda_star_star,
            )
        )
    return rows
