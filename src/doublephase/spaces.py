"""Variable-exponent Lebesgue and Sobolev machinery on metric grids.

Modulars, Luxemburg norms (by Halley steps on the log-modular, which is
convex and decreasing in log gamma, until a certified bound puts log gamma
within 1e-15 of the root), weighted analogs, executable inequality checks,
and seeded lower estimates of the functional constants that feed the branch
thresholds.

Every norm is one solve of one field by the one loop (``_luxemburg``),
about two modular evaluations on variable exponents and one on a constant
exponent; the constants estimate solves the rows of its stacks one by one
(``_luxemburg_rows``).
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
    flux_divergence,
    gradient_values,
    integrate,
    metric_symbol,
    norm_g_values,
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
    "estimate_constants",
]

_CONJUGATE_GUARD = 1.0 + 1e-6
# fewest trials estimate_constants accepts
MIN_TRIALS = 100
# seeded band-limited starts of the Poincare ascent, after the least-symbol mode
ASCENT_SEEDED_STARTS = 4
# relative change of the ratio at or below which a step ends an ascent start
ASCENT_GAIN_TOL = 1e-14
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
        for name, value in zip(("p_minus", "p_plus", "q_minus", "q_plus"), self.p.extrema + self.q.extrema):
            object.__setattr__(self, name, value)
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
    lowest = e.extrema[0]
    if lowest <= 1.0:
        raise ValueError(f"exponent must exceed 1 everywhere, min is {lowest}")


def modular(u: ScalarField, e: ScalarField, metric: MetricField) -> float:
    """Integral of |u|^{e(x)} against the volume element."""
    _check_exponent(e)
    return integrate(u.chart.field(np.abs(u.values) ** e.values), metric)


def weighted_modular(u: ScalarField, e: ScalarField, w: WeightField, metric: MetricField) -> float:
    _check_exponent(e)
    dens = w.mu.values * np.abs(u.values) ** e.values
    return integrate(u.chart.field(dens), metric)


_STEP_TOL = 1e-12
_ROOT_TOL = 1e-15
_MAX_STEPS = 100
# |f'''| / 3! per L^3: a third central moment on an interval of length L is at most L^3 / (6 sqrt 3)
_CUBIC_BOUND = 1.0 / (36.0 * math.sqrt(3.0))


# Halley steps on f = log rho in x = log(gamma/peak), over the nodes where u != 0:
# f = log sum_i T_i, T_i = exp(a_i - e_i x), a_i = e_i log(|u_i|/peak) + log(w_i sqrt(det g_i) cell),
# is a log-sum-exp of affine functions. Under the node weights T_i / sum T, its
# slope is -m, m the mean of e, and its curvature v >= 0 the variance of e, so f
# is convex and decreasing. One pairwise sum of the rows T, e T and (e - c)^2 T
# gives f, m and v, c the midpoint of e's range, so a constant exponent has v = 0
# exactly. The step d is Halley's, 2 f m / (2 m^2 - f v) = n / (1 - h/2) with
# Newton's n = f/m and h = f v / m^2, or n itself where h >= 1 (2 m^2 - f v <= m^2).
# Since |f'| >= e- and |f'''| <= L^3 / (6 sqrt 3), L = e+ - e-, the root lies within
# (|f - m d + v d^2 / 2| + L^3 |d|^3 / (36 sqrt 3)) / e- of x + d. The model residual
# f - m d + v d^2 / 2 is f (h / (2 - h))^2 after a Halley step and f h / 2 after a
# Newton step, taken in those forms, free of cancellation. The loop stops when the
# distance is at most 1e-15, after a step of at most 1e-12, or after 100 steps:
# a constant exponent (v = L = 0) after its first evaluation, a smooth variable one
# after two or three (2.19 on average over the benchmark's 3,600 norms, against
# 3.97 for Newton steps run until a step of at most 1e-12). n is taken as
# f sum T / sum e T, so a constant exponent's one step is that Newton loop's first.
# Shifting by the largest term keeps spread exponents from overflowing.
def _luxemburg(abs_vals, e_vals, weight_vals, metric, extrema=None):
    """The Luxemburg norm of |u| values ``abs_vals`` for exponent values ``e_vals``.

    The one loop of the module. ``extrema`` is (min, max) of ``e_vals``,
    computed here when not given. The step is taken in Python floats with
    ``math.log``: ``np.log`` on an array can differ from it in the last bit,
    and every solve of the same field must take the same steps.
    """
    peak = float(np.maximum.reduce(abs_vals, axis=None))
    if peak == 0.0:
        return 0.0
    if extrema is None:
        extrema = float(np.minimum.reduce(e_vals, axis=None)), float(np.maximum.reduce(e_vals, axis=None))
    e_lo, e_hi = extrema
    if weight_vals is None:
        log_c = metric.log_volume
    else:
        log_c = np.log(metric.sqrt_det * weight_vals * metric.chart.cell_volume)
    if np.minimum.reduce(abs_vals, axis=None) > 0.0:
        a, e, log_c = (abs_vals / peak).ravel(), e_vals.ravel(), log_c.ravel()
    else:
        support = abs_vals > 0.0
        a, e, log_c = abs_vals[support] / peak, e_vals[support], log_c[support]
    np.log(a, out=a)
    a *= e
    a += log_c
    mid = 0.5 * (e_lo + e_hi)
    spread = np.subtract(e, mid)
    spread *= spread
    cubic = _CUBIC_BOUND * (e_hi - e_lo) ** 3
    # terms exp(a - e x - shift), then e and (e - mid)^2 times them, summed in one call
    rows = np.empty((3, a.size))
    terms, slopes, curves = rows
    x, logs = 0.0, a  # the log terms a - e x; at x = 0, e x is exactly 0
    for _ in range(_MAX_STEPS):
        shift = float(np.maximum.reduce(logs))
        np.subtract(logs, shift, out=terms)
        np.exp(terms, out=terms)
        np.multiply(e, terms, out=slopes)
        np.multiply(spread, terms, out=curves)
        total, slope_sum, curve_sum = pairwise_sum_rows(rows).tolist()
        f = shift + math.log(total)
        m = slope_sum / total
        newton = f * total / slope_sum
        h = newton * max(curve_sum / total - (m - mid) ** 2, 0.0) / m
        if h < 1.0:
            step = newton / (1.0 - 0.5 * h)
            residual = abs(f) * (h / (2.0 - h)) ** 2
        else:
            step, residual = newton, 0.5 * abs(f) * h
        x += step
        if residual + cubic * abs(step) ** 3 <= _ROOT_TOL * e_lo or abs(step) <= _STEP_TOL:
            break
        logs = np.subtract(a, np.multiply(e, x, out=terms), out=terms)
    return peak * math.exp(x)


def _luxemburg_rows(abs_rows, e_vals, weight_vals, metric) -> np.ndarray:
    """``_luxemburg`` of every row of a (rows, *chart shape) stack of |u|.

    ``e_vals`` is one exponent field for every row, or a stack of one per
    row; the extrema of every row's exponent come from one reduction each.
    Every row is its own solve, so it is bitwise the row alone.
    """
    row_e = np.broadcast_to(e_vals, abs_rows.shape)
    axes = tuple(range(1, row_e.ndim))
    extrema = zip(np.minimum.reduce(row_e, axis=axes).tolist(), np.maximum.reduce(row_e, axis=axes).tolist())
    return np.array([_luxemburg(row, e, weight_vals, metric, ext) for row, e, ext in zip(abs_rows, row_e, extrema)])


def luxemburg_norm(u: ScalarField, e: ScalarField, metric: MetricField) -> float:
    """inf{gamma > 0 : modular(u/gamma) <= 1}; 0 for the zero field.

    Halley steps on log modular(u/gamma), a convex decreasing function of
    log gamma, from gamma = max|u|. Each evaluation of the modular gives its
    log, slope and curvature, and bounds the distance from the stepped log
    gamma to the root by the model residual plus L^3 |step|^3 / (36 sqrt 3),
    over e-, where L = e+ - e-. The loop stops when that bound is at most
    1e-15, after a step of at most 1e-12, or after 100 steps: about two
    evaluations for a smooth variable exponent. A constant exponent e lands
    on the closed form max|u| C^{1/e} in one evaluation.
    """
    _check_exponent(e)
    return _luxemburg(np.abs(u.values), e.values, None, metric, e.extrema)


def weighted_norm(u: ScalarField, e: ScalarField, w: WeightField, metric: MetricField) -> float:
    """inf{gamma > 0 : weighted_modular(u/gamma) <= 1}, solved as ``luxemburg_norm``:
    Halley steps with the same certified stop, the weight in every modular term."""
    _check_exponent(e)
    return _luxemburg(np.abs(u.values), e.values, w.mu.values, metric, e.extrema)


def holder_factor(e: ScalarField) -> float:
    """The constant 1 + 1/e- + 1/e+ used on the right of the Hoelder bound."""
    e_lo, e_hi = e.extrema
    return 1.0 + 1.0 / e_lo + 1.0 / e_hi


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
    e_lo, e_hi = e.extrema
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

    All are maxima over the fields a seeded ascent scores, hence lower
    estimates of the true suprema; reports that consume them record trials
    and seed.
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


def _luxemburg_gradient(vals, norms, e_vals, weight_vals, metric) -> np.ndarray:
    """d gamma / d vals of the Luxemburg norms gamma = ``norms`` > 0 of a (rows, *shape) stack:
    c_i e_i |v_i/gamma|^{e_i-1} sgn v_i / sum_j c_j e_j |v_j/gamma|^{e_j} by the implicit-function
    theorem on rho(v / gamma) = 1, c = sqrt_det * cell volume (* weight); the cell volume cancels.
    """
    wsd = metric.sqrt_det if weight_vals is None else metric.sqrt_det * weight_vals
    r = np.abs(vals) / np.reshape(norms, (-1,) + (1,) * metric.chart.dim)
    lead = wsd * e_vals * r ** (e_vals - 1.0)
    total = pairwise_sum_rows((lead * r).reshape(len(vals), -1))
    return lead * np.sign(vals) / np.reshape(total, (-1,) + (1,) * metric.chart.dim)


def _stack_ratios(vals, exponents: ExponentField, weight: WeightField, metric: MetricField):
    """(Poincare, embedding, weighted) ratios of every field of a (rows, *shape) stack,
    and (gradient components, |grad u|_g, ||u||_q, || |grad u|_g ||_q) for the ascent.

    Each row's three norms are one-field solves (``_luxemburg_rows``); the
    first-order norm s is ||u||_q + || |grad u|_g ||_q. A Poincare ratio
    with a vanishing denominator is 0. Every ratio is bitwise what the
    row's own public norm calls give.
    """
    q = exponents.q.values
    abs_vals = np.abs(vals)
    comps = gradient_values(vals, metric.chart)
    grad_norm = norm_g_values(comps, metric)
    norm_u = _luxemburg_rows(abs_vals, q, None, metric)
    norm_p = _luxemburg_rows(abs_vals, exponents.p.values, None, metric)
    norm_grad = _luxemburg_rows(grad_norm, q, None, metric)
    s = norm_u + norm_grad
    poincare = np.divide(norm_u, norm_grad, out=np.zeros(len(s)), where=norm_grad != 0.0)
    unit = vals / s.reshape((-1,) + (1,) * metric.chart.dim)
    dens = weight.mu.values * np.abs(unit) ** q * metric.sqrt_det
    weighted = pairwise_sum_rows(dens.reshape(len(s), -1)) * metric.chart.cell_volume
    return poincare, norm_p / s, weighted, (comps, grad_norm, norm_u, norm_grad)


@dataclass(frozen=True)
class _Ascent:
    """The field of the largest Poincare ratio, the three maxima, the fields
    scored, and per start the ratios of the start and each accepted step."""

    field: np.ndarray
    c_poincare: float
    D_embed: float
    c1_embed: float
    scored: int
    paths: tuple


def _poincare_ascent(exponents: ExponentField, weight: WeightField, metric: MetricField, trials: int, seed) -> _Ascent:
    """Preconditioned ascent of log ||u||_q - log || |grad u|_g ||_q over zero-mean band fields.

    The band is the ``_spectrum`` mask without k = 0. The gradient of the
    log ratio (``_luxemburg_gradient`` of both norms, the second chained
    through ``flux_divergence``) is preconditioned by 1 / sigma(k),
    sigma the ``metric_symbol``, and combined with the last direction by
    Polak-Ribiere, restarting when that is no ascent direction. A step is
    accepted only when the ratio increases; the next one maximizes the
    quadratic through the log ratio and slope at 0 and the log ratio at the
    step, within [0.5, 4] times an accepted step and [0.1, 0.5] times a
    failed one. The first, sum_i |grad u|_g,i^2, is inverse iteration for
    q = 2 on a constant metric. A start ends when a step changes the ratio
    by at most ASCENT_GAIN_TOL relative. The starts are the band mode of
    least sigma and ASCENT_SEEDED_STARTS band-limited fields from
    ``substream(seed, "constants", i)``, the lanes of one stack: one tried
    field per live lane and round, scored in round and lane order until
    ``trials`` are scored, a sequence that does not depend on ``trials``.
    Where q is exactly 2 and ``metric.inv`` the same at every node, the
    mode is the band supremum 1 / sqrt(min sigma) and the only start: no
    seeded lane runs, and the mode's first tried step moves the ratio only
    by rounding, which ends it, so neither ``seed`` nor ``trials`` changes
    the result. The constant field is scored first,
    outside the count, for the embedding ratios.
    """
    chart = metric.chart
    q, inv, dim = exponents.q.values, metric.inv, chart.dim
    mask = _spectrum(chart)[1].copy()
    mask[(0,) * dim] = False
    inv_symbol = np.divide(1.0, metric_symbol(metric), out=np.zeros(chart.shape), where=mask)
    # real and even, so it acts on the half spectrum of a real field
    half_inv_symbol, axes = inv_symbol[..., : chart.shape[-1] // 2 + 1], tuple(range(-dim, 0))

    def lanes(x):
        return np.reshape(x, (-1,) + (1,) * dim)

    def dot(a, b):
        return pairwise_sum_rows((a * b).reshape(len(a), -1))

    def direction(vals, parts):
        """The gradient of the log ratio of every row, and it preconditioned."""
        comps, grad_norm, norm_u, norm_grad = parts
        norms = np.concatenate((norm_u, norm_grad))
        both = _luxemburg_gradient(np.concatenate((vals, grad_norm)), norms, q, None, metric) / lanes(norms)
        coef = np.divide(both[len(vals) :], grad_norm, out=np.zeros(grad_norm.shape), where=grad_norm > 0.0)
        g = both[: len(vals)] - flux_divergence(metric, coef, comps)
        return g, np.fft.irfftn(np.fft.rfftn(g, axes=axes) * half_inv_symbol, s=chart.shape, axes=axes)

    c_best, field, d_best, c1_best = 0.0, None, 0.0, 0.0

    def score(vals):
        nonlocal c_best, field, d_best, c1_best
        poincare, embed, weighted, parts = _stack_ratios(vals, exponents, weight, metric)
        j = int(np.argmax(poincare))  # the first maximum in scored order
        if poincare[j] > c_best:
            c_best, field = float(poincare[j]), vals[j].copy()
        d_best, c1_best = max(d_best, float(embed.max())), max(c1_best, float(weighted.max()))
        return poincare, parts

    score(chart.constant(1.0).values[None])
    least = np.zeros(chart.shape)
    least.flat[np.argmax(inv_symbol)] = 1.0
    mode = np.fft.ifftn(least).real
    # q = 2 on a constant metric: the mode is the band supremum, so no seeded start can beat it
    quadratic = np.all(q == 2.0) and np.all(inv == inv[(0,) * dim])
    rngs = [substream(seed, "constants", i) for i in range(0 if quadratic else ASCENT_SEEDED_STARTS)]
    u = np.concatenate(((mode / np.abs(mode).max())[None], random_band_limited_values(chart, rngs, [1.0] * len(rngs))))
    u = u[:trials]
    ratio, parts = score(u)
    scored, paths = len(u), [[r] for r in ratio.tolist()]
    g, z = direction(u, parts)
    gz = dot(g, z)
    p, slope, step = z.copy(), gz.copy(), dot(parts[1], parts[1])
    going = gz > 0.0
    while going.any() and scored < trials:
        rows = np.flatnonzero(going)[: trials - scored]
        t = step[rows]
        tried = u[rows] + lanes(t) * p[rows]
        tried_ratio, parts = score(tried)
        scored += len(rows)
        gain = tried_ratio / ratio[rows] - 1.0
        curve = (np.log1p(gain) - slope[rows] * t) / t**2
        t_model = 4.0 * t
        np.divide(-slope[rows], 2.0 * curve, out=t_model, where=curve < 0.0)
        up, ended = gain > 0.0, np.abs(gain) <= ASCENT_GAIN_TOL
        step[rows] = np.where(up, np.clip(t_model, 0.5 * t, 4.0 * t), np.clip(t_model, 0.1 * t, 0.5 * t))
        for lane, r in zip(rows[up].tolist(), tried_ratio[up].tolist()):
            paths[lane].append(r)
        u[rows[up]], ratio[rows[up]] = tried[up], tried_ratio[up]
        turn = up & ~ended
        if turn.any():
            moved = rows[turn]
            g_new, z_new = direction(tried[turn], [x[turn] for x in parts])
            gz_new = dot(g_new, z_new)
            beta = np.maximum(0.0, (gz_new - dot(z_new, g[moved])) / gz[moved])
            p_new = z_new + lanes(beta) * p[moved]
            s_new = dot(g_new, p_new)
            restart = s_new <= 0.0
            p_new[restart], s_new[restart] = z_new[restart], gz_new[restart]
            g[moved], gz[moved], p[moved], slope[moved] = g_new, gz_new, p_new, s_new
            ended[turn] |= gz_new <= 0.0
        going[rows[ended]] = False
    return _Ascent(field, c_best, d_best, c1_best, scored, tuple(map(tuple, paths)))


def estimate_constants(
    exponents: ExponentField,
    weight: WeightField,
    metric: MetricField,
    trials: int = 200,
    seed: int = 0,
) -> ConstantsEstimate:
    """Seeded lower estimates of the Poincare and embedding constants.

    c_poincare is the largest ratio of the at most ``trials`` fields that
    ``_poincare_ascent`` scores; D_embed and c1_embed are the largest of
    their ratios over those fields and the constant field. Deterministic
    given the seed; more trials extend the same scored sequence, so they
    can never lower a constant. Where q is exactly 2 on a metric that is
    the same at every node, the ascent runs no seeded start, and neither
    the seed nor ``trials`` changes the constants.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    ascent = _poincare_ascent(exponents, weight, metric, trials, seed)
    return ConstantsEstimate(
        c_poincare=ascent.c_poincare,
        D_embed=ascent.D_embed,
        c1_embed=ascent.c1_embed,
        r_q=holder_factor(exponents.q),
        trials=trials,
        seed=int(seed),
    )
