"""Variable-exponent Lebesgue and Sobolev machinery on metric grids.

Modulars, Luxemburg norms (by Newton steps on the log-modular, which is
convex and decreasing in log gamma, until a step moves log gamma by at most
1e-12), weighted analogs, executable inequality checks, and seeded lower
estimates of the functional constants that feed the branch thresholds.

A norm call solves one field. The constants estimate scores its candidate
fields as stacks instead: each norm of a block of fields is one Newton loop
with a lane per field (``_luxemburg_rows``), bitwise equal to the one-field
solves.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .grid import (
    Chart,
    MetricField,
    ScalarField,
    _spectrum,
    grad_norm_g,
    gradient,
    gradient_values,
    integrate,
    metric_symbol,
    norm_g_values,
    pairwise_sum,
    pairwise_sum_rows,
    random_band_limited_values,
    substream,
)

__all__ = [
    "ExponentField",
    "WeightField",
    "ConstantsEstimate",
    "HolderReport",
    "ClauseCheck",
    "RelationsReport",
    "conjugate_exponent",
    "modular",
    "luxemburg_norm",
    "weighted_modular",
    "weighted_norm",
    "holder_check",
    "modular_norm_relations",
    "sobolev_norm",
    "estimate_constants",
]

_CONJUGATE_GUARD = 1.0 + 1e-6
# fewest trials estimate_constants accepts
MIN_TRIALS = 100
# (candidate field, node) values scored per stack by estimate_constants,
# chosen for peak memory; at least two fields a stack
ESTIMATE_BLOCK = 2**13
# smoothing steps that refine the best Poincare candidate of estimate_constants
REFINE_ITERS = 40
# modular_norm_relations: the slack of every clause, the band around norm 1
# where only modular = 1 (to UNIT_MODULAR_TOL) is required
RELATION_TOL = 1e-12
UNIT_BAND = 1e-9
UNIT_MODULAR_TOL = 1e-8


@dataclass(frozen=True)
class ExponentField:
    """The exponent pair p(x), q(x) with cached extrema and distinct values.

    Construction enforces the ordering 1 < q- <= q+ < p- <= p+, so the
    distinct values of p and of q (``groups``) are disjoint sets. The upper
    bound p+ < dim is deliberately not enforced here; at desk scale it
    rarely holds and is surfaced as an instance warning instead.
    """

    p: ScalarField
    q: ScalarField

    def __post_init__(self):
        if self.p.chart != self.q.chart:
            raise ValueError("p and q must live on the same chart")
        p_vals, q_vals = self.p.values, self.q.values
        object.__setattr__(self, "p_minus", float(p_vals.min()))
        object.__setattr__(self, "p_plus", float(p_vals.max()))
        object.__setattr__(self, "q_minus", float(q_vals.min()))
        object.__setattr__(self, "q_plus", float(q_vals.max()))
        if not (1.0 < self.q_minus <= self.q_plus < self.p_minus <= self.p_plus):
            raise ValueError(
                "exponent ordering violated: need 1 < q- <= q+ < p- <= p+, got "
                f"q in [{self.q_minus}, {self.q_plus}], p in [{self.p_minus}, {self.p_plus}]"
            )

    # computed on first use: only ray profiles need them, and the first sort
    # in a process adds about 0.35 MB of peak memory to the norm-only paths
    @cached_property
    def groups(self):
        """(sorted distinct values of p, then those of q; the index into them
        of each flat node's p, then of each flat node's q)."""
        p_distinct, p_index = np.unique(self.p.values.ravel(), return_inverse=True)
        q_distinct, q_index = np.unique(self.q.values.ravel(), return_inverse=True)
        distinct = np.concatenate((p_distinct, q_distinct))
        index = np.concatenate((p_index, p_distinct.size + q_index))
        for arr in (distinct, index):
            arr.setflags(write=False)
        return distinct, index

    @property
    def chart(self) -> Chart:
        return self.p.chart


@dataclass(frozen=True)
class WeightField:
    """Positive weight with cached infimum mu0 > 0."""

    mu: ScalarField

    def __post_init__(self):
        object.__setattr__(self, "mu0", float(self.mu.values.min()))
        if self.mu0 <= 0:
            raise ValueError(f"weight must be positive everywhere, min is {self.mu0}")

    @property
    def chart(self) -> Chart:
        return self.mu.chart


def conjugate_exponent(e: ScalarField) -> ScalarField:
    """Nodewise e/(e-1), with e clamped to 1 + 1e-6 from below."""
    safe = np.maximum(e.values, _CONJUGATE_GUARD)
    return e.chart.field(safe / (safe - 1.0))


def _check_exponent(e: ScalarField):
    if e.values.min() <= 1.0:
        raise ValueError(f"exponent must exceed 1 everywhere, min is {e.values.min()}")


def modular(u: ScalarField, e: ScalarField, metric: MetricField) -> float:
    """Integral of |u|^{e(x)} against the volume element."""
    _check_exponent(e)
    return integrate(u.chart.field(np.abs(u.values) ** e.values), metric)


def weighted_modular(u: ScalarField, e: ScalarField, w: WeightField, metric: MetricField) -> float:
    _check_exponent(e)
    dens = w.mu.values * np.abs(u.values) ** e.values
    return integrate(u.chart.field(dens), metric)


_NEWTON_STEP_TOL = 1e-12
_NEWTON_MAX_STEPS = 100


# Newton on log rho in x = log(gamma/peak), over the nodes where u != 0:
# log rho = log sum_i exp(a_i - e_i x), a_i = e_i log(|u_i|/peak) + log(w_i cell),
# is a log-sum-exp of affine functions, convex and decreasing, so Newton
# from x = 0 lands left of the root and then climbs to it monotonically.
# Shifting by the largest term keeps spread exponents from overflowing.
def _log_coefficients(abs_vals, peak, e, wsd, cell_volume):
    """The a_i above, for |u| values (one row or a stack) and their peaks."""
    return e * np.log(abs_vals / peak) + np.log(wsd * cell_volume)


def _newton_step(shift, total, slope_sum):
    """log rho over minus its slope, the term-weighted mean exponent.

    In Python floats with ``math.log``: ``np.log`` on an array can differ
    from it in the last bit, and every solve must take the same steps.
    """
    return (shift + math.log(total)) * total / slope_sum


def _luxemburg(abs_vals, e_vals, weight_vals, metric):
    peak = float(abs_vals.max())
    if peak == 0.0:
        return 0.0
    wsd = metric.sqrt_det if weight_vals is None else metric.sqrt_det * weight_vals
    support = abs_vals > 0.0
    e = e_vals[support]
    a = _log_coefficients(abs_vals[support], peak, e, wsd[support], metric.chart.cell_volume)
    x = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        z = a - e * x
        shift = z.max()
        terms = np.exp(z - shift)
        step = _newton_step(shift, pairwise_sum(terms), pairwise_sum(e * terms))
        x += step
        if abs(step) <= _NEWTON_STEP_TOL:
            break
    return peak * math.exp(x)


def _luxemburg_rows(abs_rows, e_vals, weight_vals, metric) -> np.ndarray:
    """``_luxemburg`` of every row of a (rows, *chart shape) stack of |u|, bitwise.

    Rows with no zero node are the lanes of one Newton loop: every step
    evaluates all live lanes at once, each lane takes its step in Python
    floats (``math.log``, as the scalar loop does) and leaves the loop once
    the step is at most 1e-12. A row with zero nodes runs ``_luxemburg``,
    whose sums skip those nodes; an all-zero row has norm 0.
    """
    flat = abs_rows.reshape(len(abs_rows), metric.chart.n_nodes)
    norms = np.zeros(len(flat))
    peaks = flat.max(axis=1)
    full = flat.min(axis=1) > 0.0
    for r in np.flatnonzero(~full & (peaks > 0.0)):
        norms[r] = _luxemburg(abs_rows[r], e_vals, weight_vals, metric)
    lanes = np.flatnonzero(full)
    if not lanes.size:
        return norms
    e = e_vals.ravel()
    wsd = metric.sqrt_det if weight_vals is None else metric.sqrt_det * weight_vals
    a = _log_coefficients(flat[lanes], peaks[lanes, None], e, wsd.ravel(), metric.chart.cell_volume)
    x = np.zeros(len(lanes))
    logs = np.empty(len(lanes))
    live = np.arange(len(lanes))
    for _ in range(_NEWTON_MAX_STEPS):
        # in place, so that a step holds two (lane, node) arrays, a and terms
        terms = e * x[:, None]
        np.subtract(a, terms, out=terms)
        shift = terms.max(axis=1)
        terms -= shift[:, None]
        np.exp(terms, out=terms)
        total = pairwise_sum_rows(terms)
        terms *= e
        sums = zip(shift.tolist(), total.tolist(), pairwise_sum_rows(terms).tolist())
        step = np.array([_newton_step(*lane) for lane in sums])
        x += step
        going = np.abs(step) > _NEWTON_STEP_TOL
        if not going.all():
            logs[live[~going]] = x[~going]
            live, x, a = live[going], x[going], a[going]
            if not live.size:
                break
    logs[live] = x
    norms[lanes] = [peak * math.exp(v) for peak, v in zip(peaks[lanes].tolist(), logs.tolist())]
    return norms


def luxemburg_norm(u: ScalarField, e: ScalarField, metric: MetricField) -> float:
    """inf{gamma > 0 : modular(u/gamma) <= 1}; 0 for the zero field.

    Newton steps on log modular(u/gamma), a convex decreasing function of
    log gamma, from gamma = max|u| until a step moves log gamma by at most
    1e-12 (at most 100 steps). A constant exponent e lands on the closed
    form max|u| C^{1/e} in the first step.
    """
    _check_exponent(e)
    return _luxemburg(np.abs(u.values), e.values, None, metric)


def weighted_norm(u: ScalarField, e: ScalarField, w: WeightField, metric: MetricField) -> float:
    """inf{gamma > 0 : weighted_modular(u/gamma) <= 1}, solved as ``luxemburg_norm``."""
    _check_exponent(e)
    return _luxemburg(np.abs(u.values), e.values, w.mu.values, metric)


def sobolev_norm(u: ScalarField, e: ScalarField, metric: MetricField) -> float:
    """First-order norm: Luxemburg norm of u plus that of |grad u|_g."""
    gnorm = grad_norm_g(gradient(u), metric)
    return luxemburg_norm(u, e, metric) + luxemburg_norm(gnorm, e, metric)


def holder_factor(e: ScalarField) -> float:
    """The constant 1 + 1/e- + 1/e+ used on the right of the Hoelder bound."""
    vals = e.values
    return 1.0 + 1.0 / float(vals.min()) + 1.0 / float(vals.max())


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    r_q: float
    norm_u: float
    norm_v: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def holder_check(
    u: ScalarField,
    v: ScalarField,
    e: ScalarField,
    metric: MetricField,
    r_factor: float | None = None,
) -> HolderReport:
    """Integral of |uv| against r_q ||u||_e ||v||_{e'}.

    ``r_factor`` overrides the default 1 + 1/e- + 1/e+ (used by fault
    injection in the verify suite).
    """
    _check_exponent(e)
    r_q = holder_factor(e) if r_factor is None else float(r_factor)
    lhs = integrate(u.chart.field(np.abs(u.values * v.values)), metric)
    nu = luxemburg_norm(u, e, metric)
    nv = luxemburg_norm(v, conjugate_exponent(e), metric)
    rhs = r_q * nu * nv
    return HolderReport(
        lhs=lhs, rhs=rhs, r_q=r_q, norm_u=nu, norm_v=nv, passed=lhs <= rhs + 1e-12
    )


@dataclass(frozen=True)
class ClauseCheck:
    name: str
    lhs: float
    rhs: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class RelationsReport:
    norm: float
    modular_value: float
    clauses: tuple
    ok: bool

    def failed(self):
        return [c for c in self.clauses if not c.ok]


def norm_modular_clauses(nu: float, rho: float, e_lo: float, e_hi: float) -> list:
    """The trichotomy and power-bound clauses for a norm ``nu`` and its modular ``rho``.

    ``e_lo`` and ``e_hi`` are the exponent extrema. A norm within UNIT_BAND
    of 1 skips the strict trichotomy sides and the power bound and instead
    requires modular = 1 to UNIT_MODULAR_TOL.
    """
    if abs(nu - 1.0) <= UNIT_BAND:
        gap = abs(rho - 1.0)
        return [ClauseCheck("trichotomy_unit", rho, 1.0, UNIT_MODULAR_TOL - gap, gap <= UNIT_MODULAR_TOL)]
    if nu < 1.0:
        lo, hi = nu**e_hi, nu**e_lo
        margin = min(rho - lo, hi - rho)
        return [
            ClauseCheck("trichotomy_below", rho, 1.0, 1.0 - rho, rho <= 1.0 + RELATION_TOL),
            ClauseCheck("power_bound_below", lo, hi, margin, margin >= -RELATION_TOL),
        ]
    lo, hi = nu**e_lo, nu**e_hi
    margin = min(rho - lo, hi - rho)
    return [
        ClauseCheck("trichotomy_above", rho, 1.0, rho - 1.0, rho >= 1.0 - RELATION_TOL),
        ClauseCheck("power_bound_above", lo, hi, margin, margin >= -RELATION_TOL),
    ]


def modular_norm_relations(u: ScalarField, e: ScalarField, metric: MetricField) -> RelationsReport:
    """Check the norm/modular comparison clauses for one field.

    Covered: the trichotomy of norm and modular against 1, the two-sided
    power bounds norm^{e+} <= modular <= norm^{e-} (norm < 1) and its mirror
    (norm > 1), both from ``norm_modular_clauses``, and the min/max sandwich
    min(rho^{1/e-}, rho^{1/e+}) <= norm <= max(rho^{1/e-}, rho^{1/e+}).
    """
    if u.max_abs == 0.0:
        raise ValueError("relations are stated for nonzero fields")
    _check_exponent(e)
    e_lo = float(e.values.min())
    e_hi = float(e.values.max())
    nu = luxemburg_norm(u, e, metric)
    rho = modular(u, e, metric)
    clauses = norm_modular_clauses(nu, rho, e_lo, e_hi)

    lo = min(rho ** (1.0 / e_lo), rho ** (1.0 / e_hi))
    hi = max(rho ** (1.0 / e_lo), rho ** (1.0 / e_hi))
    margin = min(nu - lo, hi - nu)
    clauses.append(ClauseCheck("norm_sandwich", lo, hi, margin, margin >= -RELATION_TOL))

    clauses = tuple(clauses)
    return RelationsReport(norm=nu, modular_value=rho, clauses=clauses, ok=all(c.ok for c in clauses))


@dataclass(frozen=True)
class ConstantsEstimate:
    """Finite-sample lower estimates of the functional constants.

    c_poincare: sup ||u||_q / || |grad u| ||_q over zero-mean fields.
    D_embed:    sup ||u||_p / (||u||_q + || |grad u| ||_q).
    c1_embed:   sup weighted q-modular of u normalized to unit Sobolev norm.
    r_q:        the Hoelder factor 1 + 1/q- + 1/q+.

    All are maxima over seeded band-limited samples (plus a smoothing-based
    refinement for the Poincare ratio), hence lower estimates of the true
    suprema; reports that consume them record trials and seed.
    """

    c_poincare: float
    D_embed: float
    c1_embed: float
    r_q: float
    trials: int
    seed: int

    def __post_init__(self):
        if min(self.c_poincare, self.D_embed, self.c1_embed, self.r_q) <= 0:
            raise ValueError("estimated constants must be positive")

    def to_dict(self):
        return asdict(self)


def _inverse_gradient_smoother(metric: MetricField):
    """FFT solve of the mean-metric Laplacian ``metric_symbol`` on the retained band.

    Used only to propose candidate extremal fields; every ratio is evaluated
    with the true metric norms afterwards. On a constant metric the iterates
    converge to the band mode of least symbol, the Poincare extremal for
    constant exponents.
    """
    chart = metric.chart
    symbol = metric_symbol(metric)
    mask = _spectrum(chart)[1].copy()
    mask[(0,) * chart.dim] = False
    inv_symbol = np.where(mask, 1.0 / np.where(symbol > 0, symbol, 1.0), 0.0)

    def smooth(values):
        out = np.fft.ifftn(np.fft.fftn(values) * inv_symbol).real
        peak = np.max(np.abs(out))
        return out / peak if peak > 0 else out

    return smooth


def _stack_ratios(vals, exponents: ExponentField, weight: WeightField, metric: MetricField):
    """(Poincare, embedding, weighted) ratios of every field of a (rows, *shape) stack.

    Each of ||u||_q, || |grad u|_g ||_q and ||u||_p is solved once per row
    by ``_luxemburg_rows``; the Sobolev norm s is the sum of the first two,
    in the order of ``sobolev_norm``. A ratio with a vanishing denominator
    is 0. Every row is bitwise what the row's own ``luxemburg_norm`` and
    ``weighted_modular`` calls give.
    """
    q = exponents.q.values
    # one (row, node) array besides vals alive per solve: |u| for two, |grad u|_g for one
    abs_vals = np.abs(vals)
    norm_q = _luxemburg_rows(abs_vals, q, None, metric)
    norm_p = _luxemburg_rows(abs_vals, exponents.p.values, None, metric)
    del abs_vals
    grad_norms = norm_g_values(gradient_values(vals, metric.chart), metric)
    norm_grad = _luxemburg_rows(grad_norms, q, None, metric)
    s = norm_q + norm_grad
    has_grad, has_s = norm_grad != 0.0, s != 0.0
    poincare = np.divide(norm_q, norm_grad, out=np.zeros(len(s)), where=has_grad)
    embed = np.divide(norm_p, s, out=np.zeros(len(s)), where=has_s)
    unit = vals / np.where(has_s, s, 1.0).reshape((-1,) + (1,) * (vals.ndim - 1))
    dens = weight.mu.values * np.abs(unit) ** q * metric.sqrt_det
    weighted = pairwise_sum_rows(dens.reshape(len(s), -1)) * metric.chart.cell_volume
    return poincare, embed, np.where(has_s, weighted, 0.0)


def estimate_constants(
    exponents: ExponentField,
    weight: WeightField,
    metric: MetricField,
    trials: int = 200,
    seed: int = 0,
) -> ConstantsEstimate:
    """Seeded random search for the Poincare and embedding constants.

    Zero-mean band-limited samples drive the Poincare ratio; the same samples
    plus mean-shifted and constant candidates drive the embedding ratios
    (whose suprema admit constant fields). The best Poincare candidate (the
    first in trial order) is refined by REFINE_ITERS steps of
    inverse-Laplacian smoothing with the mean-metric symbol, which converge
    to the extremal band mode for constant exponents on a constant metric.
    Candidates are scored as stacks of at most ESTIMATE_BLOCK
    (field, node) values: a block of trials is drawn in one
    ``random_band_limited_values`` call, and its oscillating and shifted
    fields are scored together by ``_stack_ratios``, three lane-wise
    Luxemburg solves per block; the smoothing iterates likewise. The result
    is bitwise that of scoring every candidate alone. Deterministic given
    the seed. With the same seed, more trials can only increase c1_embed,
    and c_poincare and D_embed before the refinement; the refined values
    can decrease, because the refinement starts from the best candidate,
    which more trials can change.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    chart = exponents.chart
    rows = max(2, ESTIMATE_BLOCK // chart.n_nodes)
    stack_axes = (-1,) + (1,) * chart.dim
    ratios = _stack_ratios(chart.constant(1.0).values[None], exponents, weight, metric)
    _, d_best, c1_best = (float(r[0]) for r in ratios)
    c_best, c_field = 0.0, None
    # an oscillating and a shifted field per trial
    for b in range(0, trials, rows // 2):
        rngs = [substream(seed, "constants", i) for i in range(b, min(b + rows // 2, trials))]
        amps = [float(10.0 ** rng.uniform(-1.0, 0.5)) for rng in rngs]
        osc = random_band_limited_values(chart, rngs, amps)
        shifts = [float(rng.uniform(0.1, 2.0)) for rng in rngs]
        stack = np.concatenate((osc, osc + np.reshape(shifts, stack_axes)))
        n_osc = len(rngs)
        del osc, rngs
        c_ratio, d_ratio, c1_ratio = _stack_ratios(stack, exponents, weight, metric)
        # the first maximum in trial order: argmax takes the first in the block
        j = int(np.argmax(c_ratio[:n_osc]))
        if c_ratio[j] > c_best:
            c_best, c_field = float(c_ratio[j]), stack[j].copy()
        d_best = max(d_best, float(d_ratio.max()))
        c1_best = max(c1_best, float(c1_ratio.max()))

    if c_field is not None:
        # the smoothing iterates do not depend on the ratios
        smooth = _inverse_gradient_smoother(metric)
        vals = c_field
        for b in range(0, REFINE_ITERS, rows):
            iterates = []
            for _ in range(min(rows, REFINE_ITERS - b)):
                vals = smooth(vals)
                iterates.append(vals)
            c_ratio, d_ratio, _ = _stack_ratios(np.stack(iterates), exponents, weight, metric)
            c_best = max(c_best, float(c_ratio.max()))
            d_best = max(d_best, float(d_ratio.max()))

    return ConstantsEstimate(
        c_poincare=c_best,
        D_embed=d_best,
        c1_embed=c1_best,
        r_q=holder_factor(exponents.q),
        trials=trials,
        seed=int(seed),
    )
