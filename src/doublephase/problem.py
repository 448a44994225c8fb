"""The parametric double-phase problem: energy, derivative, residual.

The unknown u lives on a periodic metric grid. The energy combines a
p(x)-growth and a weighted q(x)-growth gradient term with a q-power well, a
p-power penalty, and a superlinear power source. Only directional objects
are ever assembled (weak formulation); the operator itself never is.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .grid import (
    Chart,
    Frozen,
    MetricField,
    ScalarField,
    flux_divergence,
    gradient_values,
    metric_pairing,
    norm_g_values,
    pairwise_sum,
    pairwise_sum_rows,
)
from .spaces import ExponentField, WeightField

__all__ = [
    "PowerNonlinearity",
    "ProblemInstance",
    "EnergyBreakdown",
    "energy",
    "gateaux",
    "residual_gradient",
]


def _power(base: np.ndarray, expo) -> np.ndarray:
    """base**expo for base >= 0 with the convention 0**negative = 0.

    Needed for the degenerate gradient density |grad u|^{e-2} at critical
    points of u when e < 2: the product with grad u tends to 0 there. One
    masked ufunc call: nodes with base > 0 get base**expo, the rest keep
    the zero of ``out``. ``expo`` is a scalar or per-node, and a per-node
    one broadcasts over leading stack axes of ``base``.
    """
    return np.power(base, expo, out=np.zeros_like(base), where=base > 0)


class PowerNonlinearity(Frozen):
    """Source f(x, s) = a(x) |s|^{beta-2} s with primitive a(x) |s|^beta / beta.

    For this family the superlinearity inequality holds with equality for
    every s, f(x, 0) = 0, and the small-argument decay against |s|^{q(x)-1}
    holds whenever beta exceeds the largest q.
    """

    __slots__ = ("beta", "amplitude")

    def __init__(self, beta: float, amplitude: ScalarField):
        if not (math.isfinite(beta) and beta > 1.0):
            raise ValueError(f"beta must be finite and exceed 1, got {beta}")
        if amplitude.values.min() <= 0:
            raise ValueError("amplitude must be positive everywhere")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "amplitude", amplitude)

    def f_values(self, u: np.ndarray) -> np.ndarray:
        return self.amplitude.values * _power(np.abs(u), self.beta - 2.0) * u


# the full bracket of ``nehari.project``; its source powers t^beta are Python
# float pows, which overflow at t = 1e6 once beta exceeds BETA_MAX
PROBE_BRACKET = (1e-6, 1e6)
BETA_MAX = math.log(sys.float_info.max) / math.log(PROBE_BRACKET[1])


def check_superlinearity(beta: float, exponents: ExponentField) -> None:
    """Raise ValueError unless p+ < beta <= BETA_MAX: (f1) and (f3) need beta > p+,
    and the probe bracket's source powers stay finite up to BETA_MAX."""
    if not beta > exponents.p_plus:
        raise ValueError(
            f"superlinearity requires beta > p+ = {exponents.p_plus}, got beta = {beta}"
        )
    if not beta <= BETA_MAX:
        raise ValueError(
            f"beta = {beta} exceeds {BETA_MAX!r}, past which t^beta overflows "
            f"at the top of the probe bracket [{PROBE_BRACKET[0]:g}, {PROBE_BRACKET[1]:g}]"
        )


class ProblemInstance(Frozen):
    """One fully specified instance: grid, exponents, weight, lambda, source.

    Construction enforces the hypotheses the existence result needs of the
    data, so no instance that violates them can be built:

    * the exponent ordering 1 < q- <= q+ < p- <= p+ (``ExponentField``);
    * (f1), the Ambrosetti-Rabinowitz condition 0 < beta F(x, s) <=
      f(x, s) s: a > 0 (``PowerNonlinearity``) makes it an equality, and
      beta > p+ (checked here) puts its constant above p+;
    * (f3), f(x, s) = o(|s|^{q(x)-1}) as s -> 0: beta > p+ > q+;
    * lambda finite and positive, one chart for every field, and a source
      of the power family, the one family the ray profile decomposes.

    Three conditions are only recorded in ``warnings``: p+ below the
    dimension (the critical-growth bound, which desk-scale grids rarely
    meet), the exponent-spread inequality and p-/q+ <= 1 + 1/dim.
    Log-Hoelder continuity of p and q is not checked: Fourier specs are
    smooth and periodic, while an ``affine`` spec with a nonzero slope
    jumps at the periodic wrap.
    """

    __slots__ = ("chart", "metric", "exponents", "weight", "lam", "nonlinearity", "warnings", "node_weight")

    def __init__(
        self,
        chart: Chart,
        metric: MetricField,
        exponents: ExponentField,
        weight: WeightField,
        lam: float,
        nonlinearity: PowerNonlinearity,
    ):
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"lambda must be finite and positive, got {lam}")
        for other in (metric.chart, exponents.chart, weight.chart):
            if other != chart:
                raise ValueError("all fields must share the problem chart")
        e, nl = exponents, nonlinearity
        if not isinstance(nl, PowerNonlinearity):
            raise TypeError(
                f"the source must be a PowerNonlinearity, got {type(nl).__name__}"
            )
        if nl.amplitude.chart != chart:
            raise ValueError("source amplitude must live on the problem chart")
        check_superlinearity(nl.beta, e)
        warnings = []
        n = chart.dim
        if not e.p_plus < n:
            warnings.append(
                f"p+ = {e.p_plus} is not below the dimension {n}; "
                "critical-growth condition violated (desk-scale regime)"
            )
        if e.q_plus > e.q_minus:
            lhs = e.p_plus / (e.q_plus - e.q_minus)
            rhs = (e.p_plus - e.q_plus) / (e.p_plus - e.q_minus) - (
                (e.q_plus - e.q_minus) * (e.p_plus - e.q_plus)
            ) / ((e.p_plus - e.q_minus) * (e.p_minus - e.q_minus))
            if not lhs < rhs:
                warnings.append("exponent-spread inequality violated (diagnostic only)")
        else:
            warnings.append("exponent-spread inequality inapplicable: q+ equals q-")
        if not e.p_minus / e.q_plus <= 1.0 + 1.0 / n:
            warnings.append(f"p-/q+ exceeds 1 + 1/{n} (diagnostic only)")
        # quadrature weight of each node in the discrete pairing
        nw = metric.sqrt_det * chart.cell_volume
        nw.setflags(write=False)
        for name, value in zip(self.__slots__, (chart, metric, exponents, weight, lam, nl, tuple(warnings), nw)):
            object.__setattr__(self, name, value)

    def with_lambda(self, lam: float) -> "ProblemInstance":
        return ProblemInstance(self.chart, self.metric, self.exponents, self.weight, float(lam), self.nonlinearity)


class EnergyBreakdown(NamedTuple):
    """The five named terms; total = grad_p + grad_q - lambda_q + u_p - F."""

    grad_p_term: float
    grad_q_term: float
    lambda_q_term: float
    u_p_term: float
    F_term: float
    total: float

    def to_dict(self):
        return self._asdict()


class _Nodewise:
    """Per-node quantities of the energy at one field, or a stack of fields, computed once.

    The gradient, its metric norm |grad u|_g, the source mask and |u| feed
    every reduction: the energy terms and the ray profile read the five
    power densities, the derivative and the node residual read the flux
    coefficient and the nodewise source. With ``truncated`` the mask
    restricts the three source terms to {u >= 0}. Leading axes of ``vals``
    before the chart shape are a stack; the per-node data broadcast over it.
    """

    def __init__(self, P: ProblemInstance, vals: np.ndarray, truncated: bool):
        self.P = P
        self.vals = vals
        self.p = P.exponents.p.values
        self.q = P.exponents.q.values
        self.grad = gradient_values(vals, P.chart)
        self.gn = norm_g_values(self.grad, P.metric)
        self.mask = (vals >= 0.0).astype(float) if truncated else 1.0
        self.au = np.abs(vals)

    def powers(self):
        """gn^p, mu gn^q, mask |u|^q, mask |u|^p and mask a |u|^beta."""
        P, gn, au, mask = self.P, self.gn, self.au, self.mask
        nl = P.nonlinearity
        return (
            gn**self.p,
            P.weight.mu.values * gn**self.q,
            mask * au**self.q,
            mask * au**self.p,
            mask * nl.amplitude.values * au**nl.beta,
        )

    def flux_coef(self) -> np.ndarray:
        """|grad u|^{p-2} + mu |grad u|^{q-2}, zero where the gradient vanishes."""
        mu = self.P.weight.mu.values
        return _power(self.gn, self.p - 2.0) + mu * _power(self.gn, self.q - 2.0)

    def source(self) -> np.ndarray:
        """Masked -lambda |u|^{q-2} u + |u|^{p-2} u - f(u)."""
        P, vals, au = self.P, self.vals, self.au
        return (
            -P.lam * _power(au, self.q - 2.0) * vals
            + _power(au, self.p - 2.0) * vals
            - P.nonlinearity.f_values(vals)
        ) * self.mask


def energy(P: ProblemInstance, u: ScalarField, truncated: bool = False) -> EnergyBreakdown:
    """Energy value, term by term.

    With ``truncated`` the three source terms (the lambda well, the p-power
    penalty, and the primitive) are integrated over {u >= 0} only; the
    gradient terms are untouched. Critical points of the truncated energy
    have no negative-side source, which is what drives them non-negative.
    """
    nw = _Nodewise(P, u.values, truncated)
    d_grad_p, d_grad_q, d_u_q, d_u_p, d_src = nw.powers()
    p, q, w = nw.p, nw.q, P.node_weight
    # one row per term: each row sums bitwise as it would alone
    dens = np.array((d_grad_p / p, d_grad_q / q, P.lam * d_u_q / q, d_u_p / p, d_src / P.nonlinearity.beta))
    dens *= w
    grad_p, grad_q, lam_q, u_p, f_term = pairwise_sum_rows(dens.reshape(5, -1)).tolist()
    total = grad_p + grad_q - lam_q + u_p - f_term
    return EnergyBreakdown(
        grad_p_term=grad_p,
        grad_q_term=grad_q,
        lambda_q_term=lam_q,
        u_p_term=u_p,
        F_term=f_term,
        total=total,
    )


def gateaux(P: ProblemInstance, u: ScalarField, phi: ScalarField, truncated: bool = False) -> float:
    """Directional derivative of the energy at u in direction phi.

    Zero for every phi exactly at discrete weak solutions. The degenerate
    density |grad u|^{e-2} is taken as 0 where grad u vanishes.
    """
    if phi.chart != u.chart:
        raise ValueError("u and phi must share a chart")
    nw = _Nodewise(P, u.values, truncated)
    gphi = gradient_values(phi.values, phi.chart)
    bilinear = metric_pairing(P.metric, nw.grad, gphi)
    dens = nw.flux_coef() * bilinear + nw.source() * phi.values
    return pairwise_sum(dens * P.node_weight)


def residual_gradient(P: ProblemInstance, u, truncated: bool = False):
    """Node representative r of the energy derivative, and its norm.

    r is defined by <J'(u), phi> = sum_i w_i r_i phi_i with w the quadrature
    node weight, i.e. r_i = gateaux(u, delta_i) / w_i. The returned norm is
    sqrt(integral of r^2 dv), the dual norm of the derivative in the
    w-weighted node pairing; it vanishes exactly at discrete critical points.
    ``u`` is a field, or an (m, *shape) array of field values: then r is an
    (m, *shape) array and the norm an array of m norms, row i bitwise the
    result for row i alone.
    """
    vals = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
    nw = _Nodewise(P, vals, truncated)
    w = P.node_weight
    r = flux_divergence(P.metric, w * nw.flux_coef(), nw.grad) / w + nw.source()
    norm = np.sqrt(np.maximum(pairwise_sum_rows((r * r * w).reshape(-1, w.size)), 0.0))
    if isinstance(u, ScalarField):
        return P.chart.field(r), float(norm[0])
    return r, norm
