import math

import numpy as np
import pytest

import doublephase as dp
from doublephase.config import parse_config
from doublephase.grid import BLOCK, PROBE_BLOCK
from doublephase.nehari import ROOT_TOL, _BRANCHES, _RayProfile
from doublephase.problem import _Nodewise
from conftest import make_calibrated_ray, make_reference_instance

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _rand(chart, *path, amp=1.0, mean=0.0):
    rng = dp.substream(202, *path)
    return dp.random_band_limited(chart, rng, amplitude=amp, mean=mean)


class TestPsiAndFibering:
    def test_psi_zero_field(self, reference_instance):
        assert dp.psi(reference_instance, reference_instance.chart.constant(0.0)) == 0.0

    def test_psi_equals_gateaux(self, reference_instance):
        u = _rand(reference_instance.chart, "psi", amp=1.3, mean=0.4)
        assert dp.psi(reference_instance, u) == dp.gateaux(reference_instance, u, u)

    def test_psi_constant_exponent_five_integrals(self, golden_ray):
        # with the calibrated coefficients psi(u) = S + G - E = 1 + 1 - 1
        P, u = golden_ray
        assert dp.psi(P, u) == pytest.approx(1.0, abs=1e-12)

    def test_fibering_t1_matches_psi(self, reference_instance):
        u = _rand(reference_instance.chart, "fib", amp=1.0, mean=0.5)
        phi = _RayProfile(reference_instance, u).phi_values([0.5, 1.0, 2.0])
        psi_val = dp.psi(reference_instance, u)
        scale = abs(psi_val) + 1.0
        assert phi[1] == pytest.approx(psi_val, abs=1e-12 * scale)

    def test_fibering_closed_form(self, golden_ray):
        P, u = golden_ray
        ts = np.geomspace(0.1, 3.0, 17)
        profile = _RayProfile(P, u)
        expected = ts**3 + ts**2 - ts**4
        assert np.allclose(profile.phi_values(ts), expected, rtol=1e-11, atol=1e-11)
        expected_prime = 3 * ts**2 + 2 * ts - 4 * ts**3
        assert np.allclose(profile.phi_prime_values(ts), expected_prime, rtol=1e-11, atol=1e-11)

    def test_fibering_prime_matches_central_difference(self, reference_instance):
        u = _rand(reference_instance.chart, "fibp", amp=0.8, mean=0.7)
        ts = np.array([0.3, 1.0, 2.5])
        profile = _RayProfile(reference_instance, u)
        for t, dphi in zip(ts, profile.phi_prime_values(ts)):
            h = 1e-6 * t
            lo, hi = profile.phi_values([t - h, t + h])
            assert dphi == pytest.approx((hi - lo) / (2 * h), rel=1e-7)


def _one_point_phi(P, u, t):
    """phi(t) as one pairwise_sum over the nodes, and the sum of |terms|."""
    w = P.node_weight
    grad_p, grad_q, u_q, u_p, src = (w * d for d in _Nodewise(P, u.values, False).powers())
    p, q = P.exponents.p.values, P.exponents.q.values
    body_p = t**p * (grad_p + u_p)
    body_q = t**q * (grad_q - P.lam * u_q)
    body_src = t ** float(P.nonlinearity.beta) * src
    value = dp.pairwise_sum(body_p + body_q) - dp.pairwise_sum(body_src)
    magnitude = dp.pairwise_sum(np.abs(body_p) + np.abs(body_q) + np.abs(body_src))
    return value, magnitude


def _anisotropic_instance(n=32, lam=0.2):
    chart, metric = dp.build_torus(2, [n, n], metric_spec=[[1.0, 0.3], [0.3, 2.0]])
    return dp.ProblemInstance(
        chart=chart,
        metric=metric,
        exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0)),
        weight=dp.WeightField(mu=chart.constant(1.0)),
        lam=lam,
        nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=chart.constant(1.0)),
    )


INSTANCES = {
    "reference": lambda: make_reference_instance(lam=0.1),
    "variable_default": lambda: parse_config(None).build_instance(lam=0.05),
    "aniso32": _anisotropic_instance,
}


class TestBatchedProbe:
    @pytest.mark.parametrize("which", ["reference", "variable_default"])
    def test_batched_phi_bitwise_equals_one_point_phi(self, which):
        P = INSTANCES[which]()
        u = _rand(P.chart, "batch", which, amp=0.7, mean=0.4)
        profile = _RayProfile(P, u)
        # on the variable default (74 terms) 600 points span two row blocks
        ts = np.geomspace(1e-6, 1e6, 600)
        batched = profile.phi_values(ts)
        eps = np.finfo(float).eps
        for t, value in zip(ts.tolist(), batched.tolist()):
            assert value == profile.phi(t)
            # the profile sums the node terms per distinct exponent, in
            # another order than one pairwise tree over the nodes
            expected, magnitude = _one_point_phi(P, u, t)
            assert abs(value - expected) <= 8.0 * eps * magnitude


class TestGroupedProfile:
    @pytest.mark.parametrize("which", ["reference", "variable_default", "aniso32"])
    def test_one_term_per_distinct_exponent(self, which):
        P = INSTANCES[which]()
        u = _rand(P.chart, "terms", which, amp=0.7, mean=0.4)
        expo = _RayProfile(P, u)._phi_terms[0]
        p, q = P.exponents.p.values, P.exponents.q.values
        assert expo.size == np.unique(p).size + np.unique(q).size
        if which != "variable_default":
            assert expo.size == 2

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("which", ["reference", "variable_default", "aniso32"])
    def test_energy_at_matches_energy_along_the_ray(self, which, truncated):
        P = INSTANCES[which]()
        u = _rand(P.chart, "ray", which, amp=0.7, mean=0.2)
        assert np.any(u.values < 0)
        profile = _RayProfile(P, u, truncated)
        for t in (0.3, 1.0, 2.7):
            br = dp.energy(P, P.chart.field(t * u.values), truncated)
            magnitude = (
                br.grad_p_term + br.grad_q_term + br.lambda_q_term + br.u_p_term + br.F_term
            )
            assert profile.energy_at(t) == pytest.approx(br.total, abs=1e-13 * magnitude)

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("which", ["reference", "variable_default", "aniso32"])
    def test_field_values_and_one_row_stack_build_one_profile(self, which, truncated):
        # every input becomes an (m, *shape) stack: a field, its values and
        # the one-row stack give bitwise the same scales and term tables
        P = INSTANCES[which]()
        u = _rand(P.chart, "shapes", which, amp=0.7, mean=0.2)

        def tables(profile):
            arrays = (profile.scales, *profile._phi_terms, *profile._pair_terms)
            return [(np.shape(a), np.asarray(a).tobytes()) for a in arrays]

        want = tables(_RayProfile(P, u.values[None], truncated))
        assert want[0][0] == (1,)
        assert tables(_RayProfile(P, u, truncated)) == want
        assert tables(_RayProfile(P, u.values, truncated)) == want


def _project_rows(P, stack, truncated, window):
    """Per-ray ``project`` of every row: (roots, classes, phi at roots, J at roots), or None."""
    out = []
    for vals in stack:
        try:
            res = dp.project(P, P.chart.field(vals), truncated, **window)
        except dp.NoRootError:
            out.append(None)
            continue
        profile = _RayProfile(P, vals, truncated)
        energies = tuple(profile.energy_at(t) for t in res.t_roots)
        out.append((res.t_roots, res.classes, res.phi_at_roots, energies))
    return out


def _stack_rows(P, stack, truncated, window):
    """The same four per row, from one stacked projection."""
    profile = _RayProfile(P, stack, truncated)
    roots = profile.constraint_points(**window)
    energies = profile.energy_values(roots.rays, roots.t)
    out = []
    for i in range(len(stack)):
        ray = roots.rays == i
        if not ray.any():
            out.append(None)
            continue
        out.append((
            tuple(roots.t[ray].tolist()),
            tuple(_BRANCHES[c] for c in roots.codes[ray].tolist()),
            tuple(roots.phi[ray].tolist()),
            tuple(energies[ray].tolist()),
        ))
    return out


def _ray_stack(P, tag, n):
    """n band-limited rays: amplitudes from 0.03 to 3 around means from -1.5 to 1.5.

    Every other ray is scaled onto its first constraint point, so that the
    local window around t = 1 has roots too.
    """
    rows = []
    for i in range(n):
        rng = dp.substream(31, "stack", tag, i)
        amp = float(10.0 ** rng.uniform(-1.5, 0.5))
        u = dp.random_band_limited(P.chart, rng, amplitude=amp, mean=float(rng.uniform(-1.5, 1.5)))
        if i % 2:
            try:
                u = P.chart.field(dp.project(P, u).t_roots[0] * u.values)
            except dp.NoRootError:
                pass
        rows.append(u.values)
    return np.array(rows)


WINDOWS = {"full": {}, "local": {"bracket": (0.25, 4.0), "n_grid": 17}}


class TestStackedProjection:
    @pytest.mark.parametrize("window", ["full", "local"])
    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("which", ["reference", "variable_default", "aniso32"])
    def test_stack_equals_per_ray_projection(self, which, truncated, window):
        P = INSTANCES[which]()
        stack = _ray_stack(P, which, 12)
        per_ray = _project_rows(P, stack, truncated, WINDOWS[window])
        assert any(per_ray)
        assert repr(_stack_rows(P, stack, truncated, WINDOWS[window])) == repr(per_ray)

    def test_rows_do_not_depend_on_neighbours(self):
        # truncated reference rays with 0, 1 and 2 roots, and a constant
        # negative ray whose truncated profile vanishes (scale 0)
        P = make_reference_instance(lam=0.1)
        near_constant = _rand(P.chart, "mix", amp=0.05, mean=1.0).values
        stack = np.concatenate((_ray_stack(P, "mix", 16), [near_constant, np.full(P.chart.shape, -0.5)]))
        alone = [_stack_rows(P, row[None], True, {})[0] for row in stack]
        assert {0 if r is None else len(r[0]) for r in alone} == {0, 1, 2}
        assert _RayProfile(P, stack[-1:], True).scales[0] == 0.0
        assert repr(alone) == repr(_project_rows(P, stack, True, {}))
        assert repr(_stack_rows(P, stack, True, {})) == repr(alone)
        assert repr(_stack_rows(P, stack[::-1], True, {})) == repr(alone[::-1])

    @pytest.mark.parametrize("lam", [0.12, 0.18, 0.26, 0.39])
    def test_census_stacks_equal_per_ray_projection(self, lam):
        # start ladders (near-constant rays, several roots each) and zero-mean
        # samples with the reference's integer exponents: a power loop that
        # ran along the lanes, with one exponent for all, would round some
        # roots and energies differently
        P = make_reference_instance(lam=lam)
        amps = np.geomspace(0.02, 0.5, 8)
        for seed in range(4):
            ladder = np.array([
                dp.random_band_limited(P.chart, dp.substream(seed, "start", i), amplitude=a, mean=1.0).values
                for i, a in enumerate(amps)
            ])
            assert repr(_stack_rows(P, ladder, False, {})) == repr(_project_rows(P, ladder, False, {}))
        samples = np.array([
            _rand(P.chart, "census", i, amp=float(10.0 ** (i / 32.0 - 1.0))).values for i in range(64)
        ])
        assert repr(_stack_rows(P, samples, False, {})) == repr(_project_rows(P, samples, False, {}))

    def test_empty_stack_has_no_roots(self):
        P = make_reference_instance(lam=0.1)
        roots = _RayProfile(P, np.empty((0,) + P.chart.shape)).constraint_points()
        assert roots.t.size == 0 and roots.first(dp.NehariClass.MINUS)[0].size == 0

    def test_stack_larger_than_one_probe_block(self):
        # 74 terms per ray: the profile is built over several ray blocks, the
        # probe takes one ray per block, and the roots fill more than one
        # lane block of the refinement
        P = INSTANCES["variable_default"]()
        stack = _ray_stack(P, "blocks", 240)
        terms = _RayProfile(P, stack[:1])._phi_terms[0].size
        roots = _RayProfile(P, stack).constraint_points()
        assert stack.size > BLOCK
        assert 256 * terms > PROBE_BLOCK
        assert roots.t.size > BLOCK // (2 * terms)
        assert repr(_stack_rows(P, stack, False, {})) == repr(_project_rows(P, stack, False, {}))

    def test_probe_blocks_do_not_change_roots(self, monkeypatch):
        # 256 points x 2 terms per ray: budgets of 1, 4, 16 and 256 rays per
        # probe block give bitwise the same roots
        from doublephase import nehari

        P = make_reference_instance(lam=0.1)
        profile = _RayProfile(P, _ray_stack(P, "probe-blocks", 256))
        sizes = []
        events = _RayProfile._events

        def counted(self, t_pow, src_pow, block):
            sizes.append(block.size)
            return events(self, t_pow, src_pow, block)

        monkeypatch.setattr(_RayProfile, "_events", counted)
        results = {}
        for rays_per_block in (1, 4, 16, 256):
            monkeypatch.setattr(nehari, "PROBE_BLOCK", rays_per_block * 256 * 2)
            sizes.clear()
            results[rays_per_block] = profile.constraint_points()
            assert sizes == [rays_per_block] * (256 // rays_per_block)
        reference = results[16]
        assert reference.t.size >= 256
        for roots in results.values():
            for got, want in zip(roots, reference):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _refine_one_lane(profile, lo, hi, f_lo, f_hi):
    """The lane-wise refiner driven with a single lane on ray 0."""
    (t,) = profile.refine_roots(
        np.zeros(1, dtype=np.intp), np.array([lo]), np.array([hi]), np.array([f_lo]), np.array([f_hi])
    )
    return t


class TestRefineRoot:
    def test_newton_root_inside_bracket(self, golden_ray):
        P, u = golden_ray
        profile = _RayProfile(P, u)
        lo, hi = 1.5, 1.7
        t = _refine_one_lane(profile, lo, hi, profile.phi(lo), profile.phi(hi))
        assert lo <= t <= hi
        assert abs(profile.phi(t)) <= ROOT_TOL * profile.scale
        assert t == pytest.approx(GOLDEN, abs=1e-12)

    def test_bisection_fallback_when_newton_leaves_bracket(self):
        # phi(t) = 2 t^3 - t^2 / 2 - t^4 has roots 1 -+ sqrt(1/2); from the
        # left end of [0.05, 1] the first Newton step lands below the bracket
        P, u = make_calibrated_ray(2.0, -0.5, 1.0, lam=40.0)
        profile = _RayProfile(P, u)
        lo, hi = 0.05, 1.0
        f_lo, f_hi = profile.phi(lo), profile.phi(hi)
        assert abs(f_lo) < abs(f_hi)
        assert lo - f_lo / profile.phi_prime(lo) < lo
        t = _refine_one_lane(profile, lo, hi, f_lo, f_hi)
        assert lo <= t <= hi
        assert abs(profile.phi(t)) <= ROOT_TOL * profile.scale
        assert t == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)


class TestProject:
    def test_golden_ratio_root(self, golden_ray):
        P, u = golden_ray
        res = dp.project(P, u)
        assert len(res.t_roots) == 1
        assert res.t_roots[0] == pytest.approx(GOLDEN, abs=1e-9)
        assert res.classes[0] is dp.NehariClass.MINUS

    def test_root_residual_within_scaled_tolerance(self, golden_ray):
        P, u = golden_ray
        res = dp.project(P, u)
        for phi_val in res.phi_at_roots:
            assert abs(phi_val) <= 1e-10 * res.scale

    def test_scaling_homogeneity_constant_exponents(self, golden_ray):
        P, u = golden_ray
        t_base = dp.project(P, u).t_roots[0]
        s = 3.7
        t_scaled = dp.project(P, P.chart.field(s * u.values)).t_roots[0]
        # refinement stops at |phi| <= 1e-10 * ray scale, and the scaled
        # ray's scale grows like s^3, so allow the matching slack
        assert t_scaled == pytest.approx(t_base / s, rel=1e-8)

    def test_two_roots_plus_then_minus(self):
        # large lambda with a small source: the ray dips, recovers, then the
        # superlinear term wins; classes come out (plus, minus) in order
        P = make_reference_instance(lam=50.0)
        P = dp.ProblemInstance(
            chart=P.chart,
            metric=P.metric,
            exponents=P.exponents,
            weight=P.weight,
            lam=P.lam,
            nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=P.chart.constant(0.01)),
        )
        u = _rand(P.chart, "two", amp=0.3, mean=1.0)
        res = dp.project(P, u)
        assert [c.value for c in res.classes] == ["plus", "minus"]
        assert res.t_roots[0] < res.t_roots[1]

    def test_zero_field_is_rejected(self, reference_instance):
        with pytest.raises(ValueError, match="zero field"):
            dp.project(reference_instance, reference_instance.chart.constant(0.0))

    def test_no_root_reported(self):
        # above the fold value 1/4 a constant ray keeps one sign
        P = make_reference_instance(lam=0.3)
        with pytest.raises(dp.NoRootError, match="constant sign"):
            dp.project(P, P.chart.constant(1.0))

    def test_projection_classes_reproduce_under_classify(self, golden_ray):
        P, u = golden_ray
        res = dp.project(P, u)
        scaled = P.chart.field(res.t_roots[0] * u.values)
        assert _RayProfile(P, scaled).classify_root(1.0) is res.classes[0]


class TestClassify:
    def test_zero_class_from_tuned_inflection(self):
        # phi(t) = 2 t^3 - t^2 - t^4 has a double root at t = 1
        P, u = make_calibrated_ray(2.0, -1.0, 1.0, lam=40.0)
        assert _RayProfile(P, u).classify_root(1.0) is dp.NehariClass.ZERO

    def test_plus_witness_from_two_root_ray(self):
        P = make_reference_instance(lam=0.2)
        u = _rand(P.chart, "plus", amp=0.05, mean=1.0)
        res = dp.project(P, u)
        assert res.classes[0] is dp.NehariClass.PLUS
        scaled = P.chart.field(res.t_roots[0] * u.values)
        assert _RayProfile(P, scaled).classify_root(1.0) is dp.NehariClass.PLUS


class TestThresholds:
    def test_formula_example(self):
        # mu0 = D = c = 1, q = 2, p = 3 gives exactly 1/12
        _, lam_ss = dp.threshold_formulas(3.0, 3.0, 2.0, 2.0, mu0=1.0, c=1.0, D=1.0, c1=1.0)
        assert lam_ss == 1.0 / 12.0

    def test_degenerate_equal_exponents(self):
        _, lam_ss = dp.threshold_formulas(3.0, 3.0, 2.0, 3.0, mu0=1.0, c=1.0, D=1.0, c1=1.0)
        assert lam_ss == 0.0

    def test_thresholds_object(self, reference_instance):
        consts = dp.ConstantsEstimate(
            c_poincare=1.0, D_embed=1.0, c1_embed=1.0, r_q=2.0, trials=100, seed=0
        )
        thr = dp.thresholds(reference_instance, consts)
        assert thr.lambda_star_star == pytest.approx(1.0 / 12.0)
        # constant q makes the middle term vanish; the raw expression is
        # 2/8 - 3 < 0, so the no-inflection threshold clamps to zero
        assert thr.lambda_star == 0.0
        assert thr.star_clamped
        assert thr.lambda_bar == 0.0

    def test_lambda_star_positive_for_large_weight(self):
        P = make_reference_instance(lam=0.1, mu=10.0)
        consts = dp.ConstantsEstimate(
            c_poincare=0.16, D_embed=1.0, c1_embed=1.0, r_q=2.0, trials=100, seed=0
        )
        thr = dp.thresholds(P, consts)
        assert thr.lambda_star > 0
        assert not thr.star_clamped
        assert thr.lambda_bar == min(thr.lambda_star, thr.lambda_star_star)

    def test_minus_branch_positive_energy_below_threshold(self, reference_instance):
        # sampled maximum-branch points all sit at positive energy for
        # lambda below half the estimated threshold
        consts = dp.estimate_constants(
            reference_instance.exponents,
            reference_instance.weight,
            reference_instance.metric,
            trials=100,
            seed=5,
        )
        thr = dp.thresholds(reference_instance, consts)
        P = reference_instance.with_lambda(thr.lambda_star_star / 2.0)
        found = 0
        for i in range(50):
            u = _rand(P.chart, "lem", i, amp=float(10 ** np.random.default_rng(i).uniform(-1, 1)))
            try:
                res = dp.project(P, u)
            except dp.NoRootError:
                continue
            for t, cls in zip(res.t_roots, res.classes):
                if cls is dp.NehariClass.MINUS:
                    found += 1
                    J = dp.energy(P, P.chart.field(t * u.values)).total
                    assert J > 0.0
        assert found >= 40
