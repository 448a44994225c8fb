"""Constraint-set machinery: ray profiles, branch projection, thresholds.

A nonzero field u is on the constraint set when the ray derivative
psi(u) = <J'(u), u> vanishes. Along the ray t -> t u every term of psi is an
explicit power of t (the source is a pure power), so the ray profile sums
the node coefficients once per distinct exponent: the fibering map, its
exact t-derivative and the energy J(t u) then cost one term per distinct
exponent. A profile holds a whole stack of rays: one array pass evaluates
the fibering map of every ray on a shared probe grid, and one lane-wise
loop refines every sign change of every ray by safeguarded Newton steps on
the exact phi'. The roots are the constraint points on each ray; the sign
of t phi'(t) there separates the local-minimum branch (positive), the
local-maximum branch (negative), and inflections (zero within tolerance).
Every profile is built from a stack of node values: a field or one field's
values is the one-ray stack, whose roots ``project`` reports. The solver's
descent probes one profile per round for the trial points of all its lanes.
Every stacked pass runs in ``grid.blocks``.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .grid import PROBE_BLOCK, ScalarField, blocks, pairwise_sum_rows
from .problem import PROBE_BRACKET, ProblemInstance, _Nodewise, gateaux
from .spaces import ConstantsEstimate

__all__ = [
    "NehariClass",
    "ProjectionResult",
    "Thresholds",
    "NoRootError",
    "psi",
    "project",
    "thresholds",
    "threshold_formulas",
]

ROOT_TOL = 1e-10
CLASS_TOL = 1e-9
MAX_REFINE_STEPS = 100
# the probe grid size of the full bracket
PROBE_POINTS = 256


class NehariClass(Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"


class NoRootError(RuntimeError):
    """The fibering map kept one sign over the whole probe bracket."""


class ProjectionResult(NamedTuple):
    t_roots: tuple
    classes: tuple
    phi_at_roots: tuple
    scale: float


@lru_cache(maxsize=8)
def _probe_grid(lo: float, hi: float, n: int, beta: float):
    """The read-only log-spaced probe grid of a bracket and its source powers t^beta.

    Built once per bracket, point count and source exponent; the powers are
    taken with Python float pow, as every source power of ``_ray_sums``.
    """
    t = np.geomspace(lo, hi, n)
    src_pow = np.array([tv**beta for tv in t.tolist()])
    for arr in (t, src_pow):
        arr.setflags(write=False)
    return t, src_pow


# branch of a root by its code: sign of t phi'(t) beyond CLASS_TOL * scale, plus one
_BRANCHES = (NehariClass.MINUS, NehariClass.ZERO, NehariClass.PLUS)
# Newton refinement stops when the bracket is this narrow, relative to hi
_BRACKET_RES = 4.0 * np.finfo(float).eps


def _ray_sums(terms, t) -> np.ndarray:
    """Each function f of a lane term table at the lanes' t: shape (len(t), F).

    ``terms`` is (e, C, c, S) with e of shape (F, K), C of shape
    (len(t), F, K), c a length-F sequence and S of shape (len(t), F): lane
    i evaluates sum_k t_i^e_fk C_ifk - t_i^c_f S_if. Lanes run in
    ``grid.blocks`` of (t, term) products, each (lane, f) row of K terms
    summed by ``pairwise_sum_rows``, in the order its length K sets (the
    binary tree below ``grid.REDUCE_MIN_LEN`` terms, numpy's pairwise
    reduction from there), so a row sums as it would alone. The powers run
    along the term axis, as in a single-point call (the power loop along
    the lanes, with one exponent for all, can round differently), and the
    source power t^c is taken with Python float pow, so every value is
    bitwise the one a single-point call gives.
    """
    expo, coef, src_expo, src = terms
    parts = blocks(t.size, expo.size)
    if len(parts) > 1:
        return np.concatenate([_ray_sums((expo, coef[b], src_expo, src[b]), t[b]) for b in parts])
    sums = pairwise_sum_rows(t[:, None, None] ** expo * coef)
    src_pow = np.array([tv**c for tv in t.tolist() for c in src_expo]).reshape(sums.shape)
    return sums - src_pow * src


def _join(parts):
    """Concatenate per-block tuples of arrays into one tuple, field by field."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _node_sums(P: ProblemInstance, vals: np.ndarray, truncated: bool):
    """(source integral, scale, grouped coefficients) of each ray of the stack ``vals``.

    ``vals`` is (rays, *shape). The scale is the ray's five integrals at
    t = 1, a dimensionless tolerance scale; the coefficients are grouped
    sums in node order, one bincount over (ray, exponent) bins, so each
    row's sums are those of that ray alone, whatever the thread count.
    """
    rays = len(vals)
    w = P.node_weight
    # the powers are fresh arrays, weighted in place
    a_grad_p, a_grad_q, a_u_q, a_u_p, a_src = (
        np.multiply(d, w, out=d).reshape(rays, w.size) for d in _Nodewise(P, vals, truncated).powers()
    )
    lam = float(P.lam)
    src, scale = pairwise_sum_rows(np.array((a_src, a_grad_p + a_grad_q + lam * a_u_q + a_u_p + a_src)))
    expo, index = P.exponents.groups
    coef = np.bincount(
        (np.arange(rays)[:, None] * expo.size + index).ravel(),
        weights=np.concatenate((a_grad_p + a_u_p, a_grad_q - lam * a_u_q), axis=1).ravel(),
        minlength=rays * expo.size,
    ).reshape(rays, expo.size)
    return src, scale, coef


class _RayProfile:
    """Power decomposition of psi(t u) and J(t u) along a stack of rays.

    Every node term is a pure power of t, so the nodewise coefficients are
    summed once per distinct exponent: phi(t) = sum_k t^e_k C_k - t^beta S,
    with e_k running over the distinct values of p and then of q. A ray
    costs as many terms as there are distinct exponents, 2 on constant
    exponents and at most twice the node count otherwise. ``u`` is an
    (m, *shape) stack of node values; a field or one field's values is the
    one-ray stack. Row i of the profile is ray i, and the point methods
    (``phi``, ``energy_at``, ``classify_root``, ...) are those of a one-ray
    profile.
    """

    def __init__(self, P: ProblemInstance, u, truncated: bool = False):
        vals = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
        vals = vals.reshape((-1,) + P.chart.shape)
        parts = [_node_sums(P, vals[b], truncated) for b in blocks(len(vals), P.chart.n_nodes)]
        src, self.scales, coef = _join(parts)
        expo = P.exponents.groups[0]
        beta = float(P.nonlinearity.beta)
        # (e, C, c, S) of phi = sum_k t^e_k C_k - t^c S, with C and S one row per ray
        self._phi_terms = (expo, coef, beta, src)
        # phi and phi' in one term table of ``_ray_sums`` (rows per ray, not
        # yet per lane): every evaluation of the refinement needs both
        self._pair_terms = (
            np.array((expo, expo - 1.0)),
            np.array((coef, expo * coef)).transpose(1, 0, 2),
            (beta, beta - 1.0),
            np.array((src, beta * src)).T,
        )

    @cached_property
    def _energy_terms(self):
        expo, coef, beta, src = self._phi_terms
        return expo[None], (coef / expo)[:, None], (beta,), (src / beta)[:, None]

    @staticmethod
    def _lanes(terms, rays):
        """A term table with one lane per entry of rays: lane i on ray rays[i]."""
        expo, coef, src_expo, src = terms
        return expo, coef[rays], src_expo, src[rays]

    @property
    def scale(self) -> float:
        """The tolerance scale of a one-ray profile."""
        (scale,) = self.scales
        return float(scale)

    def _one_ray(self, terms, t_values) -> np.ndarray:
        t = np.asarray(t_values, dtype=float)
        return _ray_sums(self._lanes(terms, np.zeros(t.size, dtype=np.intp)), t)

    def phi_values(self, t_values) -> np.ndarray:
        return self._one_ray(self._pair_terms, t_values)[:, 0]

    def phi_prime_values(self, t_values) -> np.ndarray:
        return self._one_ray(self._pair_terms, t_values)[:, 1]

    def phi(self, t: float) -> float:
        return float(self.phi_values((t,))[0])

    def phi_prime(self, t: float) -> float:
        return float(self.phi_prime_values((t,))[0])

    def energy_at(self, t: float) -> float:
        return float(self._one_ray(self._energy_terms, (t,))[0, 0])

    def energy_values(self, rays, t) -> np.ndarray:
        """J(t[i] u) on ray rays[i]."""
        return _ray_sums(self._lanes(self._energy_terms, rays), t)[:, 0]

    def _branch_codes(self, rays, t, slope) -> np.ndarray:
        """Index into _BRANCHES of the roots t on rays, where phi' = slope."""
        sign = t * slope
        tol = CLASS_TOL * self.scales[rays]
        return (sign > tol) + 1 - (sign < -tol)

    def classify_root(self, t: float) -> NehariClass:
        code = self._branch_codes(np.zeros(1, dtype=np.intp), t, self.phi_prime(t))
        return _BRANCHES[code[0]]

    def _events(self, t_pow, src_pow, block: np.ndarray):
        """Root events of the rays ``block``, an increasing index array, on one shared probe grid.

        t_pow and src_pow hold the grid's powers t^e_k and t^beta. An event
        is phi exactly 0 at a node, or else a sign change in the cell from
        the node to the next; it comes as (ray, node, end node, phi at node,
        phi at end), where the end is the node itself for an exact 0. Events
        are in (ray, node) order.
        """
        _, coef, _, src = self._phi_terms
        f = pairwise_sum_rows(t_pow * coef[block, None])
        f -= src_pow * src[block, None]
        # a vanishing profile is exactly 0 on the whole grid: no root there
        zero = (f == 0.0) & (self.scales[block] != 0.0)[:, None]
        pos = f > 0
        event = zero.copy()
        event[:, :-1] |= pos[:, :-1] != pos[:, 1:]
        rays, node = np.nonzero(event)
        end = node + ~zero[rays, node]
        return block[rays], node, end, f[rays, node], f[rays, end]

    def refine_roots(self, rays, lo, hi, f_lo, f_hi) -> np.ndarray:
        """A root of phi in each bracket [lo[i], hi[i]] of ray rays[i], where phi changes sign.

        One lane per bracket, every lane taking its own safeguarded Newton
        steps on the exact phi': start from the end with the smaller |phi|,
        keep the sign-change bracket, and bisect whenever the Newton step
        leaves the bracket or phi' vanishes. A lane stops at
        |phi| <= ROOT_TOL * scale, or when its bracket reaches float
        resolution (hi - lo <= 4 eps hi), or after MAX_REFINE_STEPS steps,
        and returns the point of least |phi| it saw; finished lanes leave
        the loop. The scale is the ray's size at t = 1, while the rounding
        noise of phi grows like t^beta, so for roots at large t on
        small-amplitude rays the bracket stop comes first and |phi| at the
        returned root can exceed the tolerance by orders of magnitude.
        """
        roots = np.empty(len(rays))
        if not roots.size:
            return roots
        lane = np.arange(len(rays))
        expo, coef, src_expo, src = self._lanes(self._pair_terms, rays)
        tol = ROOT_TOL * self.scales[rays]
        from_lo = np.abs(f_lo) < np.abs(f_hi)
        t = np.where(from_lo, lo, hi)
        f = np.where(from_lo, f_lo, f_hi)
        # the sign of phi at lo never changes: lo only moves to points of that sign
        lo_pos = f_lo > 0
        # lane state updated in place below, so owned copies
        lo, hi, best_t, best_f = np.array(lo), np.array(hi), t.copy(), np.abs(f)
        slope = _ray_sums((expo, coef, src_expo, src), t)[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(MAX_REFINE_STEPS):
                done = (best_f <= tol) | (hi - lo <= _BRACKET_RES * hi)
                n_done = np.count_nonzero(done)
                if n_done == done.size:
                    break
                if n_done:
                    roots[lane[done]] = best_t[done]
                    live = ~done
                    lane, coef, src, tol, t, f, slope, lo, hi, lo_pos, best_t, best_f = (
                        a[live]
                        for a in (lane, coef, src, tol, t, f, slope, lo, hi, lo_pos, best_t, best_f)
                    )
                # a zero slope makes the step infinite or nan, which fails the bracket test
                newton = t - f / slope
                t = 0.5 * (lo + hi)
                np.copyto(t, newton, where=(lo < newton) & (newton < hi))
                # phi at the new point, and phi' there for the next step
                f, slope = _ray_sums((expo, coef, src_expo, src), t).T
                abs_f = np.abs(f)
                better = abs_f < best_f
                np.copyto(best_t, t, where=better)
                np.copyto(best_f, abs_f, where=better)
                same = (f > 0) == lo_pos
                np.copyto(lo, t, where=same)
                np.copyto(hi, t, where=~same)
        roots[lane] = best_t
        return roots

    def constraint_points(self, bracket=PROBE_BRACKET, n_grid: int = PROBE_POINTS, rays=None) -> "_RayRoots":
        """Every constraint point on every ray within the bracket.

        phi is probed on one log-spaced grid of ``n_grid`` points over the
        bracket, shared by all rays; each sign-change cell is refined by
        ``refine_roots`` (all cells of all rays in one lane-wise loop), and
        a grid point where phi is exactly 0 is a root as it stands. Rays
        whose profile vanishes identically (scale 0) have no roots. Roots
        come by ray, then by increasing t, without repeats, with their
        branch codes and phi values from one evaluation of phi and phi'.
        ``rays``, an increasing index array, restricts the probe to those
        rays; every ray's roots are those it has in the whole stack.

        The call computes under ``np.errstate(over="ignore")``: for a beta
        near ``problem.BETA_MAX`` the source term t^beta S can overflow at
        the top of the bracket, and phi there reads -inf, its true sign.
        """
        expo, coef, beta, _ = self._phi_terms
        t_grid, src_pow = _probe_grid(bracket[0], bracket[1], n_grid, beta)
        t_pow = t_grid[:, None] ** expo
        probed = np.arange(len(coef)) if rays is None else rays
        with np.errstate(over="ignore"):
            # rays in blocks of (ray, t, term) products
            rays, node, end, f_node, f_end = _join([
                self._events(t_pow, src_pow, probed[b]) for b in blocks(probed.size, t_pow.size, PROBE_BLOCK)
            ])
            t = self.refine_roots(rays, t_grid[node], t_grid[end], f_node, f_end)
            # lanes that stop on a shared node return the same root
            repeat = (t[1:] == t[:-1]) & (rays[1:] == rays[:-1])
            if repeat.any():
                keep = np.concatenate(([True], ~repeat))
                rays, t = rays[keep], t[keep]
            phi, slope = _ray_sums(self._lanes(self._pair_terms, rays), t).T
        return _RayRoots(rays, t, self._branch_codes(rays, t, slope), phi)


class _RayRoots(NamedTuple):
    """Constraint points of a ray stack, by ray and then by increasing t."""

    rays: np.ndarray
    t: np.ndarray
    codes: np.ndarray
    phi: np.ndarray

    def first(self, target: NehariClass):
        """(rays, t) of each ray's smallest root of the requested class."""
        hit = self.codes == _BRANCHES.index(target)
        rays, t = self.rays[hit], self.t[hit]
        first = np.ones(rays.size, dtype=bool)
        first[1:] = rays[1:] != rays[:-1]
        return rays[first], t[first]


def psi(P: ProblemInstance, u: ScalarField, truncated: bool = False) -> float:
    """Ray derivative <J'(u), u>; shares the gateaux code path exactly."""
    return gateaux(P, u, u, truncated=truncated)


def project(
    P: ProblemInstance,
    u: ScalarField,
    truncated: bool = False,
    bracket=PROBE_BRACKET,
    n_grid: int = PROBE_POINTS,
) -> ProjectionResult:
    """All constraint points on the ray through u, smallest t first.

    The one-ray case of ``_RayProfile.constraint_points``: the fibering map
    is probed on a log-spaced grid over the bracket (built once per bracket
    and point count), and each sign change is refined by safeguarded Newton
    steps until |phi(t)| <= 1e-10 times the ray scale or the bracket
    reaches float resolution, whichever comes first (see
    ``_RayProfile.refine_roots``), so ``phi_at_roots`` can exceed that
    tolerance for roots at large t. Raises NoRootError when the map keeps
    one sign over the whole bracket, which the superlinear source makes
    possible only for degenerate rays.
    """
    if u.max_abs == 0.0:
        raise ValueError("cannot project the zero field")
    profile = _RayProfile(P, u, truncated)
    scale = profile.scale
    if scale == 0.0:
        raise NoRootError("ray profile vanishes identically (source fully truncated)")
    roots = profile.constraint_points(bracket, n_grid)
    if not roots.t.size:
        raise NoRootError(
            "fibering map has constant sign on the probe bracket "
            f"[{bracket[0]:g}, {bracket[1]:g}]: phi({bracket[0]:g}) = "
            f"{profile.phi(bracket[0]):.3e}, phi({bracket[1]:g}) = {profile.phi(bracket[1]):.3e}"
        )
    return ProjectionResult(
        t_roots=tuple(roots.t.tolist()),
        classes=tuple(_BRANCHES[code] for code in roots.codes.tolist()),
        phi_at_roots=tuple(roots.phi.tolist()),
        scale=scale,
    )


def threshold_formulas(p_minus, p_plus, q_minus, q_plus, mu0, c, D, c1):
    """Raw smallness thresholds in terms of the functional constants.

    Returns (lambda_star_raw, lambda_star_star): below the first the
    inflection set is expected empty, below the second every maximum-branch
    point has positive energy. The first may be negative (callers clamp and
    flag). The second is positive unless the denominator overflows: every
    ``ExponentField`` has q+ < p- <= p+.
    """
    denom = D**p_plus * (c + 1.0) ** p_plus
    lam_ss = mu0 * q_minus * (p_plus - q_plus) / (denom * p_plus * (p_plus - q_minus))
    term1 = 2.0 * mu0 * (p_plus - q_plus) / (denom * (p_plus - q_minus))
    term2 = (
        mu0 * c1 * (q_plus - q_minus) * (p_plus - q_plus)
        / (denom * (p_plus - q_minus) * (p_minus - q_minus))
    )
    term3 = p_plus / (p_plus - q_minus)
    lam_s = term1 - term2 - term3
    return lam_s, lam_ss


class Thresholds(NamedTuple):
    lambda_star: float
    lambda_star_star: float
    lambda_bar: float
    star_clamped: bool
    star_star_degenerate: bool
    constants: ConstantsEstimate

    def to_dict(self):
        return {**self._asdict(), "constants": self.constants.to_dict()}


def thresholds(P: ProblemInstance, consts: ConstantsEstimate) -> Thresholds:
    """Evaluate both smallness thresholds with the estimated constants.

    The no-inflection threshold is clamped at 0 (and flagged) when the raw
    expression is non-positive, which happens for weights without a large
    infimum. Both carry the estimate provenance.
    """
    e = P.exponents
    lam_s_raw, lam_ss = threshold_formulas(
        e.p_minus,
        e.p_plus,
        e.q_minus,
        e.q_plus,
        P.weight.mu0,
        consts.c_poincare,
        consts.D_embed,
        consts.c1_embed,
    )
    clamped = lam_s_raw <= 0.0
    lam_s = max(lam_s_raw, 0.0)
    return Thresholds(
        lambda_star=lam_s,
        lambda_star_star=lam_ss,
        lambda_bar=min(lam_s, lam_ss),
        star_clamped=clamped,
        star_star_degenerate=lam_ss == 0.0,
        constants=consts,
    )
