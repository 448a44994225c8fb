"""Seeded property suite over the function-space inequalities.

Each trial draws random smooth fields and emits one CSV row per property:
property name, seed, lhs, rhs, margin, pass. Rows whose name ends in
"_info" are informational and do not gate the overall verdict (used for the
tighter Hoelder factor, which the adopted constant deliberately exceeds).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import grad_norm_g, gradient, random_band_limited, substream
from .nehari import _RayProfile, psi
from .problem import energy, gateaux
from .spaces import (
    WeightField,
    estimate_constants,
    holder_check,
    luxemburg_norm,
    modular,
    modular_norm_relations,
    norm_modular_clauses,
    weighted_modular,
    weighted_norm,
)

__all__ = ["TrialRow", "run_verify_suite", "CSV_HEADER"]

CSV_HEADER = ["property", "seed", "lhs", "rhs", "margin", "pass"]


class TrialRow(NamedTuple):
    prop: str
    seed: int
    lhs: float
    rhs: float
    margin: float
    passed: bool

    @property
    def gating(self) -> bool:
        return not self.prop.endswith("_info")

    def to_csv_row(self):
        return [self.prop, self.seed, repr(self.lhs), repr(self.rhs), repr(self.margin), int(self.passed)]


def _weighted_relation_rows(u, q, w, metric, seed, rows):
    """The trichotomy and power-bound clauses of the weighted norm, one row each."""
    nu = weighted_norm(u, q, w, metric)
    rho = weighted_modular(u, q, w, metric)
    for c in norm_modular_clauses(nu, rho, *q.extrema):
        # trichotomy_below -> weighted_trichotomy, power_bound_above -> weighted_power_bound
        name = "weighted_" + c.name.rpartition("_")[0]
        rows.append(TrialRow(name, seed, c.lhs, c.rhs, c.margin, c.ok))


def _weighted_sequence_rows(u, q, w, metric, seed, rows):
    """Norm and modular of u/2^k (and 2^k u) vanish (blow up) together."""
    chart = u.chart
    shrink_norm = weighted_norm(chart.field(u.values / 2.0**24), q, w, metric)
    shrink_mod = weighted_modular(chart.field(u.values / 2.0**24), q, w, metric)
    ok = shrink_norm <= 1e-6 and shrink_mod <= 1e-6
    rows.append(TrialRow("weighted_seq_zero", seed, shrink_mod, shrink_norm, 1e-6 - max(shrink_mod, shrink_norm), ok))
    grow_norm = weighted_norm(chart.field(u.values * 2.0**24), q, w, metric)
    grow_mod = weighted_modular(chart.field(u.values * 2.0**24), q, w, metric)
    ok = grow_norm >= 1e6 and grow_mod >= 1e6
    rows.append(TrialRow("weighted_seq_inf", seed, grow_mod, grow_norm, min(grow_mod, grow_norm) - 1e6, ok))


def run_verify_suite(rc, seed: int, trials: int):
    """Run ``trials`` trials, a positive count; returns (rows, passed, constants)."""
    P = rc.build_instance()
    chart, metric = P.chart, P.metric
    exponents, weight = P.exponents, P.weight
    p, q = exponents.p, exponents.q
    consts = estimate_constants(exponents, weight, metric, trials=rc.constants_trials, seed=seed)
    r_tight = 1.0 + 1.0 / exponents.q_minus - 1.0 / exponents.q_plus
    said_factor = (1.01 * consts.D_embed * (1.01 * consts.c_poincare + 1.0)) ** exponents.p_plus
    ones = WeightField(mu=chart.constant(1.0))
    rows: list[TrialRow] = []

    for i in range(trials):
        rng = substream(seed, "verify", i)
        amp = float(10.0 ** rng.uniform(-1.0, 1.0))
        mean = float(rng.uniform(-1.0, 1.0))
        u = random_band_limited(chart, rng, amplitude=amp, mean=mean)
        v = random_band_limited(chart, rng, amplitude=float(10.0 ** rng.uniform(-1.0, 1.0)))

        hol = holder_check(u, v, q, metric)
        rows.append(TrialRow("holder", seed + i, hol.lhs, hol.rhs, hol.margin, hol.passed))
        rhs_tight = r_tight * hol.norm_u * hol.norm_v
        rows.append(
            TrialRow("holder_tight_info", seed + i, hol.lhs, rhs_tight, rhs_tight - hol.lhs, hol.lhs <= rhs_tight + 1e-12)
        )

        rel = modular_norm_relations(u, q, metric)
        for clause in rel.clauses:
            rows.append(TrialRow(f"modular_norm_{clause.name}", seed + i, clause.lhs, clause.rhs, clause.margin, clause.ok))

        nu = rel.norm
        unit = chart.field(u.values / nu)
        rho_unit = modular(unit, q, metric)
        rows.append(
            TrialRow("lux_unit", seed + i, rho_unit, 1.0, 1e-10 - abs(rho_unit - 1.0), abs(rho_unit - 1.0) <= 1e-10)
        )
        t = float(rng.uniform(0.1, 10.0))
        scaled = luxemburg_norm(chart.field(t * u.values), q, metric)
        gap = abs(scaled - t * nu) / max(t * nu, 1e-300)
        rows.append(TrialRow("lux_homogeneity", seed + i, scaled, t * nu, 1e-10 - gap, gap <= 1e-10))

        wm = weighted_modular(u, q, ones, metric)
        m = modular(u, q, metric)
        gap = abs(wm - m) / max(abs(m), 1e-300)
        rows.append(TrialRow("weighted_reduces", seed + i, wm, m, 1e-12 - gap, gap <= 1e-12))

        mu_rand = chart.field(np.exp(rng.uniform(-1.0, 1.0)) * (1.2 + random_band_limited(chart, rng).values))
        w_rand = WeightField(mu=mu_rand)
        _weighted_relation_rows(u, q, w_rand, metric, seed + i, rows)
        if i == 0:
            _weighted_sequence_rows(u, q, w_rand, metric, seed + i, rows)

        # embedding estimate on a zero-mean sample scaled into the regime
        # where the norm-to-modular exponent steps point the right way
        u0 = random_band_limited(chart, rng, amplitude=float(10.0 ** rng.uniform(-0.5, 0.5)))
        gq = grad_norm_g(gradient(u0), metric)
        norm_p = luxemburg_norm(u0, p, metric)
        norm_gq = luxemburg_norm(gq, q, metric)
        if norm_p > 0 and norm_gq > 0:
            s = 1.000001 * max(1.0 / norm_p, 1.0 / norm_gq)
            us = chart.field(s * u0.values)
            gqs = chart.field(s * gq.values)
            lhs = modular(us, p, metric)
            rhs = said_factor * modular(gqs, q, metric) ** (exponents.p_plus / exponents.q_minus)
            rows.append(TrialRow("said_embedding", seed + i, lhs, rhs, rhs - lhs, lhs <= rhs))

        if i % 10 == 0:
            phi = random_band_limited(chart, rng, amplitude=1.0)
            g_val = gateaux(P, u, phi)
            # h = 1e-5 crosses the kink of |grad u|^q where |grad u|_g is tiny; 1e-7 drowns in rounding
            h = 1e-6
            up = chart.field(u.values + h * phi.values)
            dn = chart.field(u.values - h * phi.values)
            fd = (energy(P, up).total - energy(P, dn).total) / (2.0 * h)
            gap = abs(g_val - fd) / (1.0 + abs(g_val))
            rows.append(TrialRow("gateaux_fd", seed + i, g_val, fd, 1e-6 - gap, gap <= 1e-6))

            # the node pass and the ray profile's grouped power sums at t = 1
            profile = _RayProfile(P, u)
            tol = 1e-12 * profile.scale
            for name, direct, grouped in (
                ("psi_ray_profile", psi(P, u), profile.phi(1.0)),
                ("energy_ray_profile", energy(P, u).total, profile.energy_at(1.0)),
            ):
                gap = abs(direct - grouped)
                rows.append(TrialRow(name, seed + i, direct, grouped, tol - gap, gap <= tol))

    passed = all(r.passed for r in rows if r.gating)
    return rows, passed, consts
