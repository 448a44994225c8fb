import math

import numpy as np
import pytest

import doublephase as dp
from doublephase import problem
from conftest import make_reference_instance, make_variable_instance


@pytest.fixture(scope="module")
def ref():
    return make_reference_instance(lam=0.5)


@pytest.fixture(scope="module")
def var():
    return make_variable_instance(lam=0.7)


def _rand(chart, *path, amp=1.0, mean=0.0):
    rng = dp.substream(101, *path)
    return dp.random_band_limited(chart, rng, amplitude=amp, mean=mean)


class TestNonlinearity:
    def test_zero_at_zero(self, ref):
        nl = ref.nonlinearity
        zero = ref.chart.constant(0.0)
        assert np.all(nl.f_values(zero.values) == 0.0)
        assert dp.energy(ref, zero).F_term == 0.0

    def test_power_arithmetic(self, ref):
        nl = ref.nonlinearity
        u = ref.chart.constant(2.0)
        assert np.allclose(nl.f_values(u.values), 8.0)
        # a 2^4 / 4 = 4 per unit volume on the unit torus
        assert dp.energy(ref, u).F_term == pytest.approx(4.0, rel=1e-13)

    def test_primitive_matches_trapezoid_of_f(self, ref):
        nl = ref.nonlinearity
        u = _rand(ref.chart, "f1", amp=2.0, mean=0.3)
        ts = np.linspace(0.0, 1.0, 10_001)[None, :] * u.values[:, None]
        # f(s) = |s|^{beta-2} s with beta = 4 is |s|^2 s
        f_vals = nl.amplitude.values[:, None] * np.abs(ts) ** 2 * ts
        trap = np.trapezoid(f_vals, ts, axis=1)
        # F_term integrates the primitive against the node weight
        expected = dp.pairwise_sum(trap * ref.node_weight)
        assert dp.energy(ref, u).F_term == pytest.approx(expected, abs=1e-7)

    def test_invariants_rejected(self, ref):
        with pytest.raises(ValueError, match="beta"):
            dp.PowerNonlinearity(beta=0.5, amplitude=ref.chart.constant(1.0))
        with pytest.raises(ValueError, match="positive"):
            dp.PowerNonlinearity(beta=4.0, amplitude=ref.chart.constant(-1.0))

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_beta_must_be_finite(self, ref, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            dp.PowerNonlinearity(beta=beta, amplitude=ref.chart.constant(1.0))

    def test_beta_must_exceed_p_plus_when_paired(self, ref):
        with pytest.raises(ValueError, match="beta > p"):
            dp.ProblemInstance(
                chart=ref.chart,
                metric=ref.metric,
                exponents=ref.exponents,
                weight=ref.weight,
                lam=0.5,
                nonlinearity=dp.PowerNonlinearity(beta=3.0, amplitude=ref.chart.constant(1.0)),
            )

    def test_beta_must_keep_the_probe_powers_finite(self, ref):
        def with_beta(beta):
            nonlinearity = dp.PowerNonlinearity(beta=beta, amplitude=ref.chart.constant(1.0))
            return dp.ProblemInstance(ref.chart, ref.metric, ref.exponents, ref.weight, ref.lam, nonlinearity)

        assert with_beta(51.35).nonlinearity.beta == 51.35
        with pytest.raises(ValueError, match=r"beta = 51.4 exceeds 51.37578592665279, .* \[1e-06, 1e\+06\]"):
            with_beta(51.4)

    def test_beta_bound_is_the_last_finite_probe_power(self):
        # the top of the bracket to the bound is finite; one ulp more overflows
        hi = problem.PROBE_BRACKET[1]
        assert math.isfinite(hi**problem.BETA_MAX)
        with pytest.raises(OverflowError):
            hi ** math.nextafter(problem.BETA_MAX, math.inf)


class TestHypotheses:
    # the constructor enforces (f1) and (f3); these pin what that buys

    def test_f1_is_an_equality_on_the_energy_path(self, var):
        # beta F(x, s) = f(x, s) s for the power source, node by node
        chart = var.chart
        x = chart.axis_coords(0)
        nl = dp.PowerNonlinearity(beta=4.0, amplitude=chart.field(1.0 + 0.5 * np.sin(2 * np.pi * x)))
        P = dp.ProblemInstance(
            chart=chart,
            metric=var.metric,
            exponents=var.exponents,
            weight=var.weight,
            lam=var.lam,
            nonlinearity=nl,
        )
        u = _rand(chart, "f1eq", amp=2.0, mean=0.3)
        fu_u = dp.pairwise_sum(nl.f_values(u.values) * u.values * P.node_weight)
        assert nl.beta * dp.energy(P, u).F_term == pytest.approx(fu_u, rel=1e-13)

    def test_beta_must_exceed_a_variable_p_plus(self, var):
        # p+ is the maximum of a variable p, not its mean or its value at a node
        p_plus = var.exponents.p_plus
        assert p_plus > float(np.mean(var.exponents.p.values))
        for beta in (float(np.mean(var.exponents.p.values)), p_plus):
            with pytest.raises(ValueError, match="beta > p"):
                dp.ProblemInstance(
                    chart=var.chart,
                    metric=var.metric,
                    exponents=var.exponents,
                    weight=var.weight,
                    lam=var.lam,
                    nonlinearity=dp.PowerNonlinearity(beta=beta, amplitude=var.chart.constant(1.0)),
                )

    def test_f3_holds_just_above_the_exponents(self):
        # q = 2.999 < p = 3 < beta = 3.001 satisfies (f3): f(s) / |s|^{q-1}
        # = |s|^{beta-q} -> 0, however slowly, so the instance builds
        chart, metric = dp.build_torus(1, [16])
        P = dp.ProblemInstance(
            chart=chart,
            metric=metric,
            exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.999)),
            weight=dp.WeightField(mu=chart.constant(1.0)),
            lam=0.5,
            nonlinearity=dp.PowerNonlinearity(beta=3.001, amplitude=chart.constant(1.0)),
        )
        s = np.array([1e-2, 1e-8, 1e-32])
        f = np.array([P.nonlinearity.f_values(chart.constant(si).values)[0] for si in s])
        ratios = f / s ** (2.999 - 1.0)
        assert np.all(np.diff(ratios) < 0)
        assert ratios == pytest.approx(s**0.002, rel=1e-12)


class TestEnergy:
    def test_zero_field_all_terms_zero(self, ref):
        br = dp.energy(ref, ref.chart.constant(0.0))
        assert br.to_dict() == {k: 0.0 for k in br.to_dict()}

    def test_constant_closed_form(self):
        P = make_reference_instance(lam=0.37)
        c = 1.3
        br = dp.energy(P, P.chart.constant(c))
        assert br.grad_p_term == 0.0 and br.grad_q_term == 0.0
        expected = -0.37 * c**2 / 2 + c**3 / 3 - c**4 / 4
        assert br.total == pytest.approx(expected, rel=1e-13)

    def test_decomposition_exact(self, var):
        u = _rand(var.chart, "dec", amp=1.5, mean=0.2)
        br = dp.energy(var, u)
        recomposed = br.grad_p_term + br.grad_q_term - br.lambda_q_term + br.u_p_term - br.F_term
        assert abs(br.total - recomposed) <= 1e-12 * max(1.0, abs(br.total))

    def test_refinement_oracle(self):
        # the discrete gradient changes with the grid, so the total carries
        # an O(h^2) operator term; 8192 nodes put it below 1e-6 relative
        totals = {}
        for n in (8192, 32768):
            P = make_variable_instance(lam=0.7, n=n)
            x = P.chart.axis_coords(0)
            u = P.chart.field(0.5 + np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))
            totals[n] = dp.energy(P, u).total
        assert totals[8192] == pytest.approx(totals[32768], rel=1e-6)

    def test_even_symmetry_bitwise(self, var):
        u = _rand(var.chart, "even", amp=1.1, mean=0.4)
        assert dp.energy(var, u).total == dp.energy(var, var.chart.field(-u.values)).total

    def test_coercivity_witness_along_rays(self):
        # in the pre-asymptotic window t <= 1e3 with small directions the
        # p-growth dominates; the superlinear source only takes over later
        P = make_reference_instance(lam=0.21)
        for i in range(50):
            u0 = _rand(P.chart, "coercive", i, amp=0.1, mean=0.0)
            if i % 2:
                u0 = P.chart.field(u0.values + 0.05)
            J = [dp.energy(P, P.chart.field(t * u0.values)).total for t in (10.0, 100.0, 1000.0)]
            assert J[2] > J[1]
            assert J[2] > 0.0


class TestGateaux:
    def test_zero_at_zero(self, var):
        phi = _rand(var.chart, "phi0")
        assert dp.gateaux(var, var.chart.constant(0.0), phi) == 0.0

    def test_linear_in_direction(self, var):
        u = _rand(var.chart, "lin-u", amp=1.0, mean=0.3)
        p1 = _rand(var.chart, "lin-p1")
        p2 = _rand(var.chart, "lin-p2")
        a, b = 1.7, -0.6
        combo = var.chart.field(a * p1.values + b * p2.values)
        lhs = dp.gateaux(var, u, combo)
        rhs = a * dp.gateaux(var, u, p1) + b * dp.gateaux(var, u, p2)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_matches_central_difference(self, var):
        h = 1e-5
        for i in range(100):
            u = _rand(var.chart, "fd-u", i, amp=1.0, mean=0.2)
            phi = _rand(var.chart, "fd-p", i, amp=1.0)
            g = dp.gateaux(var, u, phi)
            up = var.chart.field(u.values + h * phi.values)
            dn = var.chart.field(u.values - h * phi.values)
            fd = (dp.energy(var, up).total - dp.energy(var, dn).total) / (2 * h)
            assert abs(g - fd) <= 1e-6 * (1.0 + abs(g)), f"trial {i}"

    def test_psi_is_gateaux_with_itself(self, var):
        u = _rand(var.chart, "psi", amp=1.2, mean=0.1)
        assert dp.psi(var, u) == dp.gateaux(var, u, u)


class TestResidual:
    def test_zero_at_zero(self, var):
        r, norm = dp.residual_gradient(var, var.chart.constant(0.0))
        assert np.all(r.values == 0.0)
        assert norm == 0.0

    def test_matches_basis_gateaux(self, var):
        u = _rand(var.chart, "res", amp=1.0, mean=0.3)
        r, _ = dp.residual_gradient(var, u)
        w = var.node_weight
        n = var.chart.n_nodes
        for i in range(0, n, 7):
            delta = np.zeros(n)
            delta[i] = 1.0
            g = dp.gateaux(var, u, var.chart.field(delta))
            assert r.values[i] == pytest.approx(g / w[i], rel=1e-10, abs=1e-12)

    def test_matches_basis_gateaux_curved_metric(self):
        rng = dp.substream(55, "curved")
        base = rng.standard_normal((8, 8, 2, 2))
        g_tab = np.einsum("...ab,...cb->...ac", base, base) + 0.6 * np.eye(2)
        chart, metric = dp.build_torus(2, [8, 8], g_tab)
        P = dp.ProblemInstance(
            chart=chart,
            metric=metric,
            exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0)),
            weight=dp.WeightField(mu=chart.constant(1.0)),
            lam=0.5,
            nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=chart.constant(1.0)),
        )
        u = dp.random_band_limited(chart, rng, amplitude=1.0, mean=0.2)
        r, _ = dp.residual_gradient(P, u)
        w = P.node_weight
        for i, j in ((0, 0), (3, 5), (7, 2)):
            delta = np.zeros(chart.shape)
            delta[i, j] = 1.0
            g_dir = dp.gateaux(P, u, chart.field(delta))
            assert r.values[i, j] == pytest.approx(g_dir / w[i, j], rel=1e-9, abs=1e-12)


    @pytest.mark.parametrize("name", ["reference", "variable", "aniso2d", "per-node3d"])
    def test_stacked_rows_are_bitwise_their_own_calls(self, ref, var, name):
        if name in ("reference", "variable"):
            P = ref if name == "reference" else var
        else:
            dim, n = (2, 16) if name == "aniso2d" else (3, 6)
            g = np.array([[1.0, 0.3], [0.3, 2.0]])
            if dim == 3:
                base = 0.2 * dp.substream(56, "stack").standard_normal((n,) * 3 + (3, 3))
                g = np.eye(3) + np.einsum("...ab,...cb->...ac", base, base)
            chart, metric = dp.build_torus(dim, [n] * dim, g)
            P = dp.ProblemInstance(
                chart=chart,
                metric=metric,
                exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(1.8)),
                weight=dp.WeightField(mu=chart.constant(1.0)),
                lam=0.5,
                nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=chart.constant(1.0)),
            )
        # mixed signs, a constant (zero gradient everywhere) and zero
        rows = [_rand(P.chart, "stack", name, i, amp=1.0, mean=m).values for i, m in enumerate((0.8, 0.1, -0.3))]
        stack = np.array(rows + [np.full(P.chart.shape, 0.7), np.zeros(P.chart.shape)])
        for truncated in (False, True):
            r, norms = dp.residual_gradient(P, stack, truncated=truncated)
            assert r.shape == stack.shape and norms.shape == (len(stack),)
            for i, vals in enumerate(stack):
                r_i, norm_i = dp.residual_gradient(P, P.chart.field(vals), truncated=truncated)
                assert r[i].tobytes() == r_i.values.tobytes()
                assert repr(float(norms[i])) == repr(norm_i)


def test_instance_rejects_non_power_source(ref):
    class CubicSource:
        beta = 4.0

        def f_values(self, u):
            return np.abs(u) ** 2 * u

    with pytest.raises(TypeError, match="PowerNonlinearity"):
        dp.ProblemInstance(
            chart=ref.chart,
            metric=ref.metric,
            exponents=ref.exponents,
            weight=ref.weight,
            lam=0.5,
            nonlinearity=CubicSource(),
        )


def test_instance_warnings(ref):
    assert any("not below the dimension" in w for w in ref.warnings)
    assert any("inapplicable" in w for w in ref.warnings)
    with pytest.raises(ValueError, match="lambda"):
        make_reference_instance(lam=-1.0)


def test_instance_is_immutable_and_with_lambda_builds_a_checked_one(ref):
    for name in ("chart", "lam", "nonlinearity", "warnings", "node_weight"):
        with pytest.raises(AttributeError):
            setattr(ref, name, getattr(ref, name))
    other = ref.with_lambda(0.25)
    assert other.lam == 0.25 and ref.lam != 0.25
    assert other.chart is ref.chart and other.nonlinearity is ref.nonlinearity
    assert other.warnings == ref.warnings and np.array_equal(other.node_weight, ref.node_weight)
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        ref.with_lambda(-1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0])
def test_lambda_must_be_finite_and_positive(lam):
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        make_reference_instance(lam=lam)


def _gather_scatter_power(base, expo):
    """The masked power as a gather and a scatter of the nonzero bases: the oracle."""
    out = np.zeros_like(base)
    nz = base > 0
    if np.ndim(expo) == 0:
        out[nz] = base[nz] ** float(expo)
    else:
        out[nz] = base[nz] ** np.broadcast_to(expo, base.shape)[nz]
    return out


@pytest.mark.parametrize("shape", [(64,), (8, 8), (4, 4, 4)])
@pytest.mark.parametrize("stack", [None, 5])
def test_masked_power_is_bitwise_the_gather_scatter_formula(shape, stack):
    from doublephase.problem import _power

    rng = np.random.default_rng(30)
    full = shape if stack is None else (stack,) + shape
    base = np.abs(rng.standard_normal(full)) * 10.0 ** rng.uniform(-3, 3, full)
    base.flat[::5] = 0.0
    per_node = [1.0 + rng.uniform(0, 2, shape), rng.uniform(-1.5, 0.5, shape)]
    for expo in [2, 2.0, 1.0, 0.0, -0.3, 1.3, -1.0, *per_node]:
        got = _power(base, expo)
        assert np.array_equal(got, _gather_scatter_power(base, expo))
        assert np.all(got[base == 0.0] == 0.0)
