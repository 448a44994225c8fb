"""Constraint-set machinery: fibering maps, branch classification, thresholds.

A nonzero field u is on the constraint set when the ray derivative
psi(u) = <J'(u), u> vanishes. Along the ray t -> t u every term of psi is an
explicit power of t (the source is a pure power), so the ray profile sums
the node coefficients once per distinct exponent: the fibering map, its
exact t-derivative and the energy J(t u) then cost one term per distinct
exponent, for a whole probe grid of t values in one array pass. Roots of
the fibering map are constraint points on the ray, refined by safeguarded
Newton steps on the exact phi'; the sign of t phi'(t) there separates the
local-minimum branch (positive), the local-maximum branch (negative), and
inflections (zero within tolerance).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .grid import ScalarField, pairwise_sum, pairwise_sum_rows
from .problem import ProblemInstance, _Nodewise, gateaux
from .spaces import ConstantsEstimate

__all__ = [
    "NehariClass",
    "FiberingSample",
    "ProjectionResult",
    "Thresholds",
    "NoRootError",
    "NotOnNehariError",
    "psi",
    "fibering",
    "project",
    "classify",
    "thresholds",
    "threshold_formulas",
]

PSI_TOL = 1e-8
ROOT_TOL = 1e-10
CLASS_TOL = 1e-9
# probe evaluations run in row blocks of at most this many (t, term) pairs,
# which bounds the temporaries when exponents vary on large grids
PROBE_BLOCK = 2**15
MAX_REFINE_STEPS = 100


class NehariClass(Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"


class NoRootError(RuntimeError):
    """The fibering map kept one sign over the whole probe bracket."""


class NotOnNehariError(ValueError):
    """classify() called for a field that does not satisfy the constraint."""


def _t_grid(t_values) -> np.ndarray:
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t grid must be a nonempty 1-d array")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be positive and strictly increasing")
    return t


@dataclass(frozen=True)
class FiberingSample:
    t_values: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray

    def __post_init__(self):
        t = _t_grid(self.t_values)
        if len(self.phi) != t.size or len(self.phi_prime) != t.size:
            raise ValueError("phi arrays must match the t grid")


@dataclass(frozen=True)
class ProjectionResult:
    t_roots: tuple
    classes: tuple
    phi_at_roots: tuple
    scale: float
    # the ray profile the roots were found on, for energies along the ray
    profile: _RayProfile | None = field(default=None, compare=False, repr=False)

    def first(self, target: NehariClass):
        """Smallest projection root of the requested class, or None."""
        for t, cls in zip(self.t_roots, self.classes):
            if cls is target:
                return t
        return None


class _RayProfile:
    """Power decomposition of psi(t u) and J(t u) along one ray.

    Every node term is a pure power of t, so the nodewise coefficients are
    summed once per distinct exponent: phi(t) = sum_k t^e_k C_k - t^beta S,
    with e_k running over the distinct values of p and then of q. A ray
    costs as many terms as there are distinct exponents, 2 on constant
    exponents and at most twice the node count otherwise.
    """

    def __init__(self, P: ProblemInstance, u: ScalarField, truncated: bool = False):
        w = P.node_weight
        a_grad_p, a_grad_q, a_u_q, a_u_p, a_src = (
            w * d for d in _Nodewise(P, u.values, truncated).powers()
        )
        e = P.exponents
        beta = float(P.nonlinearity.beta)
        lam = float(P.lam)
        src = pairwise_sum(a_src)
        # dimensionless tolerance scale: the five ray integrals at t = 1
        self.scale = pairwise_sum(a_grad_p + a_grad_q + lam * a_u_q + a_u_p + a_src)
        # grouped sums in node order: fixed, whatever the thread count
        (p_distinct, p_index), (q_distinct, q_index) = e.p_groups, e.q_groups
        coef = np.concatenate((
            np.bincount(p_index, weights=(a_grad_p + a_u_p).ravel()),
            np.bincount(q_index, weights=(a_grad_q - lam * a_u_q).ravel()),
        ))
        expo = np.concatenate((p_distinct, q_distinct))
        # (e, C, c, S) of sum_k t^e_k C_k - t^c S
        self._phi_terms = (expo, coef, beta, src)
        self._phi_prime_terms = (expo - 1.0, expo * coef, beta - 1.0, beta * src)
        self._energy_terms = (expo, coef / expo, beta, src / beta)

    def _ray_sums(self, t_values, terms) -> np.ndarray:
        """sum_k t^e_k C_k - t^c S for every t of a 1-d array.

        The term sums run in row blocks of at most PROBE_BLOCK (t, term)
        pairs, each row reduced by the tree of ``pairwise_sum``. The source
        power t^c is taken with Python float pow, so every value is bitwise
        the one a single-point call gives.
        """
        expo, coef, c, S = terms
        t = np.asarray(t_values, dtype=float)
        rows = max(1, PROBE_BLOCK // expo.size)
        sums = np.empty(t.size)
        for start in range(0, t.size, rows):
            tb = t[start : start + rows, None]
            sums[start : start + rows] = pairwise_sum_rows(tb**expo * coef)
        return sums - np.array([tv**c for tv in t.tolist()]) * S

    def phi_values(self, t_values) -> np.ndarray:
        return self._ray_sums(t_values, self._phi_terms)

    def phi_prime_values(self, t_values) -> np.ndarray:
        return self._ray_sums(t_values, self._phi_prime_terms)

    def phi(self, t: float) -> float:
        return float(self.phi_values((t,))[0])

    def phi_prime(self, t: float) -> float:
        return float(self.phi_prime_values((t,))[0])

    def energy_at(self, t: float) -> float:
        return float(self._ray_sums((t,), self._energy_terms)[0])

    def classify_root(self, t: float) -> NehariClass:
        sign = t * self.phi_prime(t)
        tol = CLASS_TOL * self.scale
        if sign > tol:
            return NehariClass.PLUS
        if sign < -tol:
            return NehariClass.MINUS
        return NehariClass.ZERO


def psi(P: ProblemInstance, u: ScalarField, truncated: bool = False) -> float:
    """Ray derivative <J'(u), u>; shares the gateaux code path exactly."""
    return gateaux(P, u, u, truncated=truncated)


def fibering(P: ProblemInstance, u: ScalarField, t_grid, truncated: bool = False) -> FiberingSample:
    if u.max_abs == 0.0:
        raise ValueError("fibering is defined along rays through nonzero fields")
    profile = _RayProfile(P, u, truncated)
    t = _t_grid(t_grid)
    return FiberingSample(
        t_values=t, phi=profile.phi_values(t), phi_prime=profile.phi_prime_values(t)
    )


def _refine_root(profile: _RayProfile, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of phi in [lo, hi], where phi changes sign.

    Safeguarded Newton on the exact phi': start from the end with the
    smaller |phi|, keep the sign-change bracket, and bisect whenever the
    Newton step leaves the bracket or phi' vanishes. Stops at
    |phi| <= ROOT_TOL * scale, or when the bracket reaches float resolution
    (hi - lo <= 4 eps hi), or after MAX_REFINE_STEPS steps. The scale is
    the ray's size at t = 1, while the rounding noise of phi grows like
    t^beta, so for roots at large t on small-amplitude rays the bracket
    stop comes first and |phi| at the returned root can exceed the
    tolerance by orders of magnitude.
    """
    tol = ROOT_TOL * profile.scale
    t, f = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    best_t, best_f = t, abs(f)
    for _ in range(MAX_REFINE_STEPS):
        if best_f <= tol or hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
        slope = profile.phi_prime(t)
        newton = t - f / slope if slope != 0.0 else None
        t = newton if newton is not None and lo < newton < hi else 0.5 * (lo + hi)
        f = profile.phi(t)
        if abs(f) < best_f:
            best_t, best_f = t, abs(f)
        if (f > 0) == (f_lo > 0):
            lo, f_lo = t, f
        else:
            hi = t
    return best_t


def _roots_on_grid(profile: _RayProfile, t_grid) -> list:
    t = np.asarray(t_grid, dtype=float)
    f = profile.phi_values(t)
    pos = f > 0
    changes = np.flatnonzero((f[:-1] == 0.0) | (pos[:-1] != pos[1:]))
    t, f = t.tolist(), f.tolist()
    roots = [
        t[i] if f[i] == 0.0 else _refine_root(profile, t[i], t[i + 1], f[i], f[i + 1])
        for i in changes.tolist()
    ]
    if f[-1] == 0.0:
        roots.append(t[-1])
    return roots


@lru_cache(maxsize=8)
def _probe_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """The read-only log-spaced probe grid of ``project``, built once per bracket."""
    t = np.geomspace(lo, hi, n)
    t.setflags(write=False)
    return t


def project(
    P: ProblemInstance,
    u: ScalarField,
    truncated: bool = False,
    bracket=(1e-6, 1e6),
    n_grid: int = 256,
) -> ProjectionResult:
    """All constraint points on the ray through u, smallest t first.

    The fibering map is evaluated on a log-spaced probe grid (built once
    per bracket and point count) in one batched pass; each sign change is refined by safeguarded Newton steps until
    |phi(t)| <= 1e-10 times the ray scale or the bracket reaches float
    resolution, whichever comes first (see ``_refine_root``), so
    ``phi_at_roots`` can exceed that tolerance for roots at large t. The
    result carries the ray profile the roots were found on. Raises
    NoRootError when the map keeps one sign over the whole bracket, which
    the superlinear source makes possible only for degenerate rays.
    """
    if u.max_abs == 0.0:
        raise ValueError("cannot project the zero field")
    profile = _RayProfile(P, u, truncated)
    if profile.scale == 0.0:
        raise NoRootError("ray profile vanishes identically (source fully truncated)")
    roots = _roots_on_grid(profile, _probe_grid(bracket[0], bracket[1], n_grid))
    if not roots:
        raise NoRootError(
            "fibering map has constant sign on the probe bracket "
            f"[{bracket[0]:g}, {bracket[1]:g}]: phi({bracket[0]:g}) = "
            f"{profile.phi(bracket[0]):.3e}, phi({bracket[1]:g}) = {profile.phi(bracket[1]):.3e}"
        )
    roots = sorted(set(roots))
    classes = tuple(profile.classify_root(t) for t in roots)
    return ProjectionResult(
        t_roots=tuple(roots),
        classes=classes,
        phi_at_roots=tuple(profile.phi_values(roots).tolist()),
        scale=profile.scale,
        profile=profile,
    )


def classify(P: ProblemInstance, u: ScalarField, truncated: bool = False) -> NehariClass:
    """Branch of a field already lying on the constraint set.

    The sign of <psi'(u), u> is evaluated as the exact t-derivative of the
    fibering map at t = 1, the only pairing the constrained analysis uses.
    """
    if u.max_abs == 0.0:
        raise ValueError("the zero field is not on the constraint set")
    profile = _RayProfile(P, u, truncated)
    residual = profile.phi(1.0)
    if abs(residual) > PSI_TOL * profile.scale:
        raise NotOnNehariError(
            f"field is not on the constraint set: |psi| = {abs(residual):.3e} "
            f"exceeds {PSI_TOL:g} * scale = {PSI_TOL * profile.scale:.3e}"
        )
    return profile.classify_root(1.0)


def threshold_formulas(p_minus, p_plus, q_minus, q_plus, mu0, c, D, c1):
    """Raw smallness thresholds in terms of the functional constants.

    Returns (lambda_star_raw, lambda_star_star): below the first the
    inflection set is expected empty, below the second every maximum-branch
    point has positive energy. The first may be negative (callers clamp and
    flag); the second vanishes exactly when p+ = q+.
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


@dataclass(frozen=True)
class Thresholds:
    lambda_star: float
    lambda_star_star: float
    lambda_bar: float
    star_clamped: bool
    star_star_degenerate: bool
    constants: ConstantsEstimate

    def to_dict(self):
        return asdict(self)


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
