import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doublephase as dp
from doublephase import spaces
from doublephase.spaces import holder_factor
from conftest import make_variable_instance


@pytest.fixture(scope="module")
def torus():
    return dp.build_torus(1, [64])


@pytest.fixture(scope="module")
def variable_q(torus):
    chart, _ = torus
    x = chart.axis_coords(0)
    return chart.field(1.7 + 0.2 * np.sin(2 * np.pi * x))


def test_exponent_field_ordering_enforced(torus):
    chart, _ = torus
    with pytest.raises(ValueError, match="ordering"):
        dp.ExponentField(p=chart.constant(2.0), q=chart.constant(2.0))
    with pytest.raises(ValueError, match="ordering"):
        dp.ExponentField(p=chart.constant(3.0), q=chart.constant(1.0))
    e = dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0))
    assert (e.q_minus, e.q_plus, e.p_minus, e.p_plus) == (2.0, 2.0, 3.0, 3.0)


def test_weight_field_requires_positive_minimum(torus):
    chart, _ = torus
    with pytest.raises(ValueError):
        dp.WeightField(mu=chart.constant(0.0))
    w = dp.WeightField(mu=chart.constant(2.5))
    assert w.mu0 == 2.5


def test_modular_constant_exponent_constant_field(torus):
    chart, metric = torus
    assert dp.modular(chart.constant(3.0), chart.constant(2.0), metric) == pytest.approx(9.0, rel=1e-14)


def test_modular_of_one_is_volume(torus, variable_q):
    chart, metric = torus
    assert dp.modular(chart.constant(1.0), variable_q, metric) == pytest.approx(1.0, rel=1e-14)


def test_modular_zero_iff_zero(torus, variable_q):
    chart, metric = torus
    assert dp.modular(chart.constant(0.0), variable_q, metric) == 0.0
    u = chart.field(np.where(np.arange(64) == 5, 1e-8, 0.0))
    assert dp.modular(u, variable_q, metric) > 0.0


def test_modular_refinement_oracle():
    # integrand has |.|^{e} kinks at the sine zeros, so spectral accuracy
    # degrades to an algebraic rate; 1024 nodes put both grids below 1e-8
    vals = {}
    for n in (1024, 4096):
        chart, metric = dp.build_torus(1, [n])
        x = chart.axis_coords(0)
        u = chart.field(np.sin(2 * np.pi * x))
        e = chart.field(2.5 + 0.3 * np.sin(2 * np.pi * x))
        vals[n] = dp.modular(u, e, metric)
    assert vals[1024] == pytest.approx(vals[4096], abs=1e-8)


def test_luxemburg_constant_exponent_homogeneous_case(torus):
    chart, metric = torus
    rng = dp.substream(21, "lux")
    u = dp.random_band_limited(chart, rng, amplitude=2.0, mean=0.5)
    s = 2.7
    e = chart.constant(s)
    expected = dp.modular(u, e, metric) ** (1.0 / s)
    assert dp.luxemburg_norm(u, e, metric) == pytest.approx(expected, rel=1e-11)


def test_luxemburg_zero_field(torus, variable_q):
    chart, metric = torus
    assert dp.luxemburg_norm(chart.constant(0.0), variable_q, metric) == 0.0


def test_luxemburg_variable_exponent_independent_root(torus, variable_q):
    chart, metric = torus
    u = chart.constant(2.0)
    nu = dp.luxemburg_norm(u, variable_q, metric)
    # independent scalar root-find on sum (2/gamma)^{e_i} w_i = 1
    e_vals = variable_q.values
    w = metric.sqrt_det * chart.cell_volume

    def rho(gamma):
        return math.fsum((2.0 / gamma) ** e_vals * w) - 1.0

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert nu == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_luxemburg_defining_equation(torus, variable_q):
    chart, metric = torus
    for i in range(20):
        rng = dp.substream(33, "unit", i)
        u = dp.random_band_limited(chart, rng, amplitude=float(10 ** rng.uniform(-2, 2)))
        nu = dp.luxemburg_norm(u, variable_q, metric)
        rho = dp.modular(chart.field(u.values / nu), variable_q, metric)
        assert abs(rho - 1.0) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(t=st.floats(min_value=1e-12, max_value=1e12))
def test_luxemburg_homogeneity(t):
    chart, metric = dp.build_torus(1, [32])
    x = chart.axis_coords(0)
    e = chart.field(1.7 + 0.2 * np.sin(2 * np.pi * x))
    u = chart.field(0.3 + np.sin(2 * np.pi * x))
    base = dp.luxemburg_norm(u, e, metric)
    scaled = dp.luxemburg_norm(chart.field(t * u.values), e, metric)
    assert scaled == pytest.approx(t * base, rel=1e-10)


def _per_node_torus():
    """A 2-D torus whose metric table, and so sqrt(det g), varies from node to node."""
    x, y = dp.build_torus(2, [12, 10])[0].coords()
    g = np.empty((12, 10, 2, 2))
    g[..., 0, 0] = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    g[..., 1, 1] = 2.0 + 0.8 * np.cos(2 * np.pi * (x + y))
    g[..., 0, 1] = g[..., 1, 0] = 0.3 * np.sin(2 * np.pi * y)
    return dp.build_torus(2, [12, 10], metric_spec=g)


_GRIDS = {
    "1d": lambda: dp.build_torus(1, [64]),
    "2d": lambda: dp.build_torus(2, [16, 12], metric_spec=[[2.0, 0.5], [0.5, 1.0]]),
    "2d-per-node": _per_node_torus,
    "3d": lambda: dp.build_torus(3, [8, 8, 6]),
}


@pytest.mark.parametrize("low", [1.0, 0.5])
@pytest.mark.parametrize("name", ["luxemburg_norm", "weighted_norm", "modular", "weighted_modular"])
@pytest.mark.parametrize("grid", ["1d", "3d"])
def test_exponent_at_most_one_at_one_node_is_rejected(grid, name, low):
    chart, metric = _GRIDS[grid]()
    e_vals = np.full(chart.shape, 2.0)
    e_vals.flat[chart.n_nodes // 2] = low
    e = chart.field(e_vals)
    u = chart.constant(1.0)
    weight = (dp.WeightField(mu=chart.constant(1.0)),) if name.startswith("weighted") else ()
    with pytest.raises(ValueError, match=f"exponent must exceed 1 everywhere, min is {low}"):
        getattr(dp, name)(u, e, *weight, metric)


@pytest.mark.parametrize("support", ["random", "one_node", "five_nodes"])
@pytest.mark.parametrize("weighted", [False, True], ids=["luxemburg", "weighted"])
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_norm_puts_modular_at_one(grid, variable, weighted, support):
    chart, metric = _GRIDS[grid]()
    x = chart.coords()[0]
    e = chart.field(1.7 + 0.2 * np.sin(2 * np.pi * x)) if variable else chart.constant(2.5)
    w = dp.WeightField(mu=chart.field(1.0 + 0.5 * np.cos(2 * np.pi * x)))
    for i in range(3):
        rng = dp.substream(5, "unit-modular", grid, i)
        amp = float(10 ** rng.uniform(-2, 2))
        if support == "random":
            u = dp.random_band_limited(chart, rng, amplitude=amp)
        else:
            vals = np.zeros(chart.shape)
            if support == "one_node":
                vals.flat[int(rng.integers(vals.size))] = amp
            else:
                vals.flat[rng.choice(vals.size, 5, replace=False)] = amp * rng.uniform(0.1, 1.0, 5)
            u = chart.field(vals)
        if weighted:
            nu = dp.weighted_norm(u, e, w, metric)
            rho = dp.weighted_modular(chart.field(u.values / nu), e, w, metric)
        else:
            nu = dp.luxemburg_norm(u, e, metric)
            rho = dp.modular(chart.field(u.values / nu), e, metric)
        assert abs(rho - 1.0) <= 1e-14


def _count_evaluations(monkeypatch):
    """A list that grows by one per modular evaluation: the norm loop sums each through ``pairwise_sum_rows``."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return pairwise_sum_rows(rows)

    pairwise_sum_rows = spaces.pairwise_sum_rows
    monkeypatch.setattr(spaces, "pairwise_sum_rows", counted)
    return calls


def test_norm_with_widely_spread_exponents(monkeypatch):
    chart, metric = dp.build_torus(1, [64])
    e_vals = np.full(64, 2.0)
    e_vals[5] = 1001.0
    u_vals = np.zeros(64)
    u_vals[0], u_vals[5] = 1.0, 0.99
    e = chart.field(e_vals)
    calls = _count_evaluations(monkeypatch)
    nu = dp.luxemburg_norm(chart.field(u_vals), e, metric)
    assert len(calls) < spaces._MAX_STEPS  # a stop rule ended the loop, not the step cap
    assert math.isfinite(nu)
    assert abs(dp.modular(chart.field(u_vals / nu), e, metric) - 1.0) <= 1e-12


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_constant_exponent_norm_takes_one_evaluation(grid, monkeypatch):
    chart, metric = _GRIDS[grid]()
    x = chart.coords()[0]
    w = dp.WeightField(mu=chart.field(1.0 + 0.5 * np.cos(2 * np.pi * x)))
    calls = _count_evaluations(monkeypatch)
    for s in (1.3, 2.0, 2.5, 7.0):
        e = chart.constant(s)
        for i, amp in enumerate((1e-3, 1.0, 1e3)):
            u = dp.random_band_limited(chart, dp.substream(41, "one-evaluation", grid, i), amplitude=amp, mean=0.2)
            for weight in ((), (w,)):
                calls.clear()
                norm = (dp.weighted_norm if weight else dp.luxemburg_norm)(u, e, *weight, metric)
                assert len(calls) == 1 and norm > 0.0


def test_norms_of_the_default_instance_average_at_most_two_and_a_half_evaluations(monkeypatch):
    # the inputs of the benchmark's norm workload: smooth fields of spread amplitudes and offsets,
    # each normed in L^q(x), L^p(x) and a randomly weighted L^q(x); no path means default_config_text()
    from doublephase import config

    P = config.parse_config(None).build_instance()
    chart, e, metric = P.chart, P.exponents, P.metric
    x = chart.axis_coords(0)
    modes = np.arange(1, 9)[:, None]

    def smooth(rng):
        a, b = rng.standard_normal((2, 8, 1))
        f = ((a * np.cos(2 * np.pi * modes * x) + b * np.sin(2 * np.pi * modes * x)) / modes**2).sum(0)
        return f / np.abs(f).max()

    calls = _count_evaluations(monkeypatch)
    for i in range(300):
        rng = np.random.default_rng([43, i])
        u = chart.field(rng.uniform(-1.0, 1.0) + 10.0 ** rng.uniform(-1.0, 1.0) * smooth(rng))
        w = dp.WeightField(mu=chart.field(np.exp(rng.uniform(-1.0, 1.0)) * (1.2 + smooth(rng))))
        dp.luxemburg_norm(u, e.q, metric)
        dp.luxemburg_norm(u, e.p, metric)
        dp.weighted_norm(u, e.q, w, metric)
    assert set(calls) == {3}  # the terms, slope terms and curvature terms of one evaluation, summed together
    assert len(calls) <= 2.5 * 900


def test_weighted_reduces_to_unweighted(torus, variable_q):
    chart, metric = torus
    rng = dp.substream(8, "wred")
    u = dp.random_band_limited(chart, rng, amplitude=1.5, mean=0.2)
    ones = dp.WeightField(mu=chart.constant(1.0))
    assert dp.weighted_modular(u, variable_q, ones, metric) == pytest.approx(
        dp.modular(u, variable_q, metric), rel=1e-14
    )
    assert dp.weighted_norm(u, variable_q, ones, metric) == pytest.approx(
        dp.luxemburg_norm(u, variable_q, metric), rel=1e-11
    )


def test_weighted_constant_scaling(torus):
    chart, metric = torus
    rng = dp.substream(8, "wc")
    u = dp.random_band_limited(chart, rng, amplitude=1.5, mean=0.2)
    e = chart.constant(2.0)
    w4 = dp.WeightField(mu=chart.constant(4.0))
    assert dp.weighted_modular(u, e, w4, metric) == pytest.approx(
        4.0 * dp.modular(u, e, metric), rel=1e-13
    )
    assert dp.weighted_norm(u, e, w4, metric) == pytest.approx(
        2.0 * dp.luxemburg_norm(u, e, metric), rel=1e-10
    )


def test_weighted_modular_refinement_oracle():
    # weight shaped like the growth example: (1 + d(x))^{eps(x)} with d the
    # periodic distance to the origin (kink at the antipode only)
    vals = {}
    for n in (16384, 65536):
        chart, metric = dp.build_torus(1, [n])
        x = chart.axis_coords(0)
        d = np.minimum(x, 1.0 - x)
        eps = 1.5 + 0.2 * np.sin(2 * np.pi * x)
        w = dp.WeightField(mu=chart.field((1.0 + d) ** eps))
        u = chart.field(np.sin(2 * np.pi * x))
        e = chart.field(2.5 + 0.3 * np.cos(2 * np.pi * x))
        vals[n] = dp.weighted_modular(u, e, w, metric)
    assert vals[16384] == pytest.approx(vals[65536], abs=1e-8)


def test_holder_trivial_cases(torus):
    chart, metric = torus
    e = chart.constant(2.0)
    rep = dp.holder_check(chart.constant(1.0), chart.constant(1.0), e, metric)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, rel=1e-14)
    assert rep.rhs == pytest.approx(2.0, rel=1e-11)
    rep0 = dp.holder_check(chart.constant(1.0), chart.constant(0.0), e, metric)
    assert rep0.passed and rep0.lhs == 0.0 and rep0.rhs == 0.0


def test_holder_randomized(torus, variable_q):
    chart, metric = torus
    for i in range(100):
        rng = dp.substream(13, "holder", i)
        u = dp.random_band_limited(chart, rng, amplitude=float(10 ** rng.uniform(-1, 1)), mean=float(rng.uniform(-1, 1)))
        v = dp.random_band_limited(chart, rng, amplitude=float(10 ** rng.uniform(-1, 1)))
        rep = dp.holder_check(u, v, variable_q, metric)
        assert rep.passed, f"trial {i}: lhs={rep.lhs} rhs={rep.rhs}"


def test_holder_factor_value(torus):
    chart, _ = torus
    x = chart.axis_coords(0)
    e = chart.field(1.7 + 0.2 * np.sin(2 * np.pi * x))
    assert holder_factor(e) == pytest.approx(1 + 1 / e.values.min() + 1 / e.values.max())


def test_relations_norm_exactly_one(torus, variable_q):
    chart, metric = torus
    rng = dp.substream(17, "rel1")
    u = dp.random_band_limited(chart, rng, amplitude=1.0, mean=0.3)
    nu = dp.luxemburg_norm(u, variable_q, metric)
    rep = dp.modular_norm_relations(chart.field(u.values / nu), variable_q, metric)
    assert rep.ok
    assert abs(rep.modular_value - 1.0) <= 1e-9


def test_relations_constant_exponent_collapse(torus):
    chart, metric = torus
    rng = dp.substream(17, "rel2")
    u = dp.random_band_limited(chart, rng, amplitude=0.4)
    e = chart.constant(2.5)
    rep = dp.modular_norm_relations(u, e, metric)
    assert rep.ok
    # all clauses collapse to modular = norm^e
    assert rep.modular_value == pytest.approx(rep.norm**2.5, rel=1e-10)


def test_relations_randomized(torus, variable_q):
    chart, metric = torus
    for i in range(100):
        rng = dp.substream(19, "rel", i)
        u = dp.random_band_limited(chart, rng, amplitude=float(10 ** rng.uniform(-1.5, 1.5)), mean=float(rng.uniform(-0.5, 0.5)))
        rep = dp.modular_norm_relations(u, variable_q, metric)
        assert rep.ok, f"trial {i}: {rep.failed()}"


def test_relations_clause_iv_sequences(torus, variable_q):
    chart, metric = torus
    rng = dp.substream(23, "seq")
    u = dp.random_band_limited(chart, rng, amplitude=1.0, mean=0.5)
    norms, mods = [], []
    for k in range(0, 30, 6):
        scaled = chart.field(u.values / 2.0**k)
        norms.append(dp.luxemburg_norm(scaled, variable_q, metric))
        mods.append(dp.modular(scaled, variable_q, metric))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert all(b < a for a, b in zip(mods, mods[1:]))
    assert norms[-1] < 1e-6 and mods[-1] < 1e-6


def test_conjugate_exponent_guard(torus):
    chart, _ = torus
    e = chart.constant(2.0)
    conj = dp.conjugate_exponent(e)
    assert np.allclose(conj.values, 2.0)
    near_one = chart.constant(1.0)
    conj2 = dp.conjugate_exponent(near_one)
    assert np.all(np.isfinite(conj2.values))


@pytest.fixture(scope="module")
def setup():
    chart, metric = dp.build_torus(1, [64])
    e = dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0))
    w = dp.WeightField(mu=chart.constant(1.0))
    return chart, metric, e, w


class TestEstimateConstants:
    def test_requires_enough_trials(self, setup):
        chart, metric, e, w = setup
        with pytest.raises(ValueError, match="at least 100"):
            dp.estimate_constants(e, w, metric, trials=10, seed=0)

    def test_poincare_reaches_first_mode(self, setup):
        chart, metric, e, w = setup
        consts = dp.estimate_constants(e, w, metric, trials=100, seed=42)
        assert consts.c_poincare >= 1.0 / (2 * math.pi) - 1e-3

    def test_single_mode_ratio_closed_form(self, setup):
        # the discrete ratio for the first mode is h / sin(2 pi h)
        chart, metric, e, w = setup
        x = chart.axis_coords(0)
        u = chart.field(np.sin(2 * np.pi * x))
        gn = dp.grad_norm_g(dp.gradient(u), metric)
        ratio = dp.luxemburg_norm(u, e.q, metric) / dp.luxemburg_norm(gn, e.q, metric)
        h = 1.0 / 64
        assert ratio == pytest.approx(h / math.sin(2 * math.pi * h), rel=1e-10)
        assert ratio == pytest.approx(1.0 / (2 * math.pi), rel=(2 * math.pi * h) ** 2 / 6 * 1.1)

    def test_more_trials_never_decrease(self, setup):
        chart, metric, e, w = setup
        c100 = dp.estimate_constants(e, w, metric, trials=100, seed=7)
        c150 = dp.estimate_constants(e, w, metric, trials=150, seed=7)
        assert c150.c_poincare >= c100.c_poincare
        assert c150.D_embed >= c100.D_embed
        assert c150.c1_embed >= c100.c1_embed

    def test_r_q_value(self, setup):
        chart, metric, e, w = setup
        consts = dp.estimate_constants(e, w, metric, trials=100, seed=1)
        assert consts.r_q == pytest.approx(1 + 1 / e.q_minus + 1 / e.q_plus)

    def test_deterministic(self, setup):
        chart, metric, e, w = setup
        a = dp.estimate_constants(e, w, metric, trials=100, seed=3)
        b = dp.estimate_constants(e, w, metric, trials=100, seed=3)
        assert a == b


def _constant_exponents(chart, metric):
    e = dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0))
    return e, dp.WeightField(mu=chart.constant(1.0)), metric


def _reference_1d():
    return _constant_exponents(*dp.build_torus(1, [64]))


def _anisotropic_2d(n=16):
    return _constant_exponents(*dp.build_torus(2, [n, n], metric_spec=[[1.0, 0.3], [0.3, 2.0]]))


def _variable_1d():
    P = make_variable_instance()
    return P.exponents, P.weight, P.metric


def _variable_3d():
    chart, metric = dp.build_torus(3, [8, 8, 8])
    x, y, _ = chart.coords()
    p = chart.field(3.0 + 0.4 * np.sin(2 * np.pi * x))
    q = chart.field(1.8 + 0.2 * np.cos(2 * np.pi * y))
    w = dp.WeightField(mu=chart.field(1.5 + 0.5 * np.sin(2 * np.pi * (x + y))))
    return dp.ExponentField(p=p, q=q), w, metric


INSTANCES = [_reference_1d, _variable_1d, _anisotropic_2d, _variable_3d]
INSTANCE_IDS = ["reference1d", "variable1d", "aniso2d", "variable3d"]
# q = 2 on a constant metric: the ascent runs the least-sigma mode alone
QUADRATIC = [_reference_1d, _anisotropic_2d]


def _public_ratios(field, exponents, weight, metric):
    """(Poincare, embedding, weighted) ratios of one field, each from its own public norm calls."""
    q, p = exponents.q, exponents.p
    nu = dp.luxemburg_norm(field, q, metric)
    ng = dp.luxemburg_norm(dp.grad_norm_g(dp.gradient(field), metric), q, metric)
    s = nu + ng
    poincare = nu / ng if ng != 0.0 else 0.0
    embed = dp.luxemburg_norm(field, p, metric) / s
    weighted = dp.weighted_modular(field.chart.field(field.values / s), q, weight, metric)
    return poincare, embed, weighted


@pytest.mark.parametrize("make", INSTANCES, ids=INSTANCE_IDS)
def test_stack_ratios_equal_one_field_public_calls(make):
    # the constant field, oscillating fields and a mean-shifted one, scored as one stack
    e, w, metric = make()
    chart = metric.chart
    rngs = [dp.substream(5, "stack-ratios", i) for i in range(3)]
    osc = dp.grid.random_band_limited_values(chart, rngs, [0.1, 1.0, 3.0])
    stack = np.concatenate((np.ones((1,) + chart.shape), osc, osc[:1] + 0.7))
    poincare, embed, weighted, _ = spaces._stack_ratios(stack, e, w, metric)
    for k, vals in enumerate(stack):
        assert (poincare[k], embed[k], weighted[k]) == _public_ratios(chart.field(vals), e, w, metric)


@pytest.mark.parametrize("make", INSTANCES, ids=INSTANCE_IDS)
def test_estimate_is_witnessed_by_fields(make):
    e, w, metric = make()
    chart = metric.chart
    got = dp.estimate_constants(e, w, metric, trials=100, seed=5)
    ascent = spaces._poincare_ascent(e, w, metric, 100, 5)
    # c_poincare is the public ratio of the field the ascent returns, bit for bit
    field = chart.field(ascent.field)
    ratio = dp.luxemburg_norm(field, e.q, metric) / dp.luxemburg_norm(
        dp.grad_norm_g(dp.gradient(field), metric), e.q, metric
    )
    assert got.c_poincare == ratio == ascent.c_poincare
    # zero-mean, as a band field
    assert abs(dp.pairwise_sum(ascent.field)) <= 1e-12 * ascent.field.size * np.abs(ascent.field).max()
    # on these instances the constant field sets both embedding constants
    _, d_const, c1_const = _public_ratios(chart.constant(1.0), e, w, metric)
    assert (got.D_embed, got.c1_embed) == (d_const, c1_const)


@pytest.mark.parametrize("make", INSTANCES, ids=INSTANCE_IDS)
def test_ascent_never_lowers_the_ratio(make):
    e, w, metric = make()
    ascent = spaces._poincare_ascent(e, w, metric, 200, 42)
    assert len(ascent.paths) == (1 if make in QUADRATIC else 1 + spaces.ASCENT_SEEDED_STARTS)
    for path in ascent.paths:
        assert all(b > a for a, b in zip(path, path[1:]))
    assert ascent.c_poincare == max(max(path) for path in ascent.paths)
    assert ascent.scored <= 200


@pytest.mark.parametrize("make", QUADRATIC, ids=["reference1d", "aniso2d"])
def test_quadratic_constants_do_not_depend_on_seed_or_trials(make):
    # the mode lane ends after one tried step, so the estimate is the same
    # two scored fields (and the constant field) at every seed and budget
    e, w, metric = make()
    got = set()
    for seed in (42, 7, 3):
        for trials in (100, 200, 1000):
            assert spaces._poincare_ascent(e, w, metric, trials, seed).scored == 2
            c = dp.estimate_constants(e, w, metric, trials=trials, seed=seed)
            got.add((c.c_poincare, c.D_embed, c.c1_embed))
    assert len(got) == 1


def _nearly_quadratic_1d():
    e, w, metric = _reference_1d()
    q = e.q.values.copy()
    q[17] = 2.0 + 1e-9
    return dp.ExponentField(p=e.p, q=metric.chart.field(q)), w, metric


def _nearly_constant_metric_1d():
    g = np.ones((64, 1, 1))
    g[17] = 1.0 + 1e-9
    return _constant_exponents(*dp.build_torus(1, [64], metric_spec=g))


@pytest.mark.parametrize(
    "make", [_nearly_quadratic_1d, _nearly_constant_metric_1d], ids=["q-off-at-one-node", "metric-off-at-one-node"]
)
def test_seeded_starts_run_unless_exactly_quadratic(make):
    e, w, metric = make()
    ascent = spaces._poincare_ascent(e, w, metric, 200, 42)
    assert len(ascent.paths) == 1 + spaces.ASCENT_SEEDED_STARTS
    assert ascent.scored > 2


def test_trials_is_the_budget_of_scored_fields():
    # the variable instance does not converge within these budgets, so every
    # budget is spent; each run scores a prefix of the next one's sequence
    e, w, metric = _variable_1d()
    previous = None
    for budget in range(1, 41):
        ascent = spaces._poincare_ascent(e, w, metric, budget, 42)
        assert ascent.scored == budget
        if previous is not None:
            assert ascent.c_poincare >= previous.c_poincare
            assert ascent.D_embed >= previous.D_embed
            assert ascent.c1_embed >= previous.c1_embed
            assert all(old == new[: len(old)] for old, new in zip(previous.paths, ascent.paths))
        previous = ascent


@pytest.mark.parametrize("weighted", [False, True], ids=["luxemburg", "weighted"])
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
@pytest.mark.parametrize("grid", ["1d", "aniso2d"])
def test_luxemburg_gradient_matches_central_differences(grid, variable, weighted):
    if grid == "1d":
        chart, metric = dp.build_torus(1, [64])
    else:
        chart, metric = dp.build_torus(2, [12, 12], metric_spec=[[1.0, 0.3], [0.3, 2.0]])
    x = chart.coords()[0]
    e = 1.7 + 0.2 * np.sin(2 * np.pi * x) if variable else np.full(chart.shape, 2.5)
    mu = 1.0 + 0.5 * np.cos(2 * np.pi * x) if weighted else None
    rng = dp.substream(6, "norm-gradient", grid)
    u = dp.random_band_limited(chart, rng, amplitude=2.0, mean=0.3).values
    norm = spaces._luxemburg(np.abs(u), e, mu, metric)
    got = spaces._luxemburg_gradient(u[None], [norm], e, mu, metric)[0]
    h = 1e-6
    fd = np.empty(chart.n_nodes)
    for i in range(chart.n_nodes):
        bump = np.zeros(chart.n_nodes)
        bump[i] = h
        bump = bump.reshape(chart.shape)
        up = spaces._luxemburg(np.abs(u + bump), e, mu, metric)
        down = spaces._luxemburg(np.abs(u - bump), e, mu, metric)
        fd[i] = (up - down) / (2 * h)
    assert np.max(np.abs(fd - got.ravel())) <= 1e-6 * np.max(np.abs(got))


# (sizes, upper triangle of a constant metric g)
CONSTANT_METRICS = [
    ([32, 32], (1.0, 0.3, 2.0)),
    ([16, 24], (2.0, -0.5, 0.7)),
    ([8, 12, 6], (1.5, 0.2, -0.1, 1.0, 0.3, 0.8)),
    ([8, 12, 6], (1.0, 0.4, 0.0, 2.0, -0.3, 1.5)),
]


@pytest.mark.parametrize("seed", [42, 7, 3])
@pytest.mark.parametrize("sizes, upper", CONSTANT_METRICS, ids=["32x32", "16x24", "8x12x6", "8x12x6-close"])
def test_poincare_estimate_is_the_band_supremum_on_constant_metrics(sizes, upper, seed):
    # q = 2 on a constant metric: ||u||_2 / || |grad u|_g ||_2 is at most
    # 1 / sqrt(min sigma) over the nonzero band modes, attained by the mode
    # of least sigma(k) = sum_ab g^{ab} s_a s_b, the ascent's only start;
    # the last metric's two least symbols are close (ratio 0.92).
    dim = len(sizes)
    g = np.zeros((dim, dim))
    g[np.triu_indices(dim)] = upper
    g = g + np.triu(g, 1).T
    e, w, metric = _constant_exponents(*dp.build_torus(dim, sizes, metric_spec=g))
    chart = metric.chart
    g_inv = np.linalg.inv(g)
    k = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in sizes], indexing="ij")
    s = [np.sin(2 * np.pi * k_a / n) / h for k_a, n, h in zip(k, sizes, chart.spacings)]
    sigma = sum(g_inv[a, b] * s[a] * s[b] for a in range(dim) for b in range(dim))
    band = np.all([np.abs(k_a) <= n // 4 for k_a, n in zip(k, sizes)], axis=0)
    band[(0,) * dim] = False
    exact = 1.0 / math.sqrt(sigma[band].min())
    got = dp.estimate_constants(e, w, metric, trials=100, seed=seed).c_poincare
    assert got == pytest.approx(exact, rel=1e-15)


def _norm_rows(chart):
    """|u| rows: random fields of spread amplitudes and means, a one-node field,
    a field with one zero node, the zero field, a full-support field and a
    field on 5 nodes, whose sums take the tree of ``pairwise_sum_rows``."""
    rows = []
    for i in range(6):
        rng = dp.substream(3, "norm-rows", i)
        amp = float(10 ** rng.uniform(-3, 3))
        rows.append(dp.random_band_limited(chart, rng, amplitude=amp, mean=float(rng.uniform(-1, 1))).values)
    one_node = np.zeros(chart.shape)
    one_node.flat[7] = 2.5
    holed = rows[0].copy()
    holed.flat[3] = 0.0
    few = np.zeros(chart.shape)
    few.flat[[0, 2, 9, 17, 30]] = rows[2].flat[:5]
    return np.abs(np.stack(rows + [one_node, holed, np.zeros(chart.shape), rows[1] + 10.0, few]))


def _bisected_norm(abs_vals, e, coef):
    """The Luxemburg norm by bisection on log gamma of the ``math.fsum`` of the
    modular terms coef_i (|u_i| / gamma)^e_i, run until the midpoint repeats an end."""
    support = abs_vals > 0.0
    a, e, coef = abs_vals[support], e[support], coef[support]
    center = math.log(a.max())
    lo, hi = center - 60.0, center + 60.0  # modular above 1 at lo, below 1 at hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.exp(mid)
        if math.fsum(coef * (a / math.exp(mid)) ** e) > 1.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("weighted", [False, True], ids=["luxemburg", "weighted"])
@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_luxemburg_rows_equal_scalar_solves(grid, variable, weighted):
    chart, metric = _GRIDS[grid]()
    x = chart.coords()[0]
    e = 1.7 + 0.2 * np.sin(2 * np.pi * x) if variable else np.full(chart.shape, 2.5)
    mu = 1.0 + 0.5 * np.cos(2 * np.pi * x) if weighted else None
    rows = _norm_rows(chart)
    got = spaces._luxemburg_rows(rows, e, mu, metric)
    want = [spaces._luxemburg(row, e, mu, metric) for row in rows]
    assert got.tolist() == want
    assert got[8] == 0.0
    # an independent oracle: every nonzero row's norm to rounding
    coef = (1.0 if mu is None else mu) * metric.sqrt_det * chart.cell_volume
    for k, row in enumerate(rows):
        if k != 8:
            assert abs(got[k] / _bisected_norm(row, e, coef) - 1.0) <= 4e-15
    # alone, every row is the one-row stack
    for k in (0, 6, 7, 8, 10):
        assert spaces._luxemburg_rows(rows[k : k + 1], e, mu, metric).tolist() == [want[k]]
    # one exponent field per row
    row_e = np.stack([e + 0.1 * k for k in range(len(rows))])
    got = spaces._luxemburg_rows(rows, row_e, mu, metric)
    assert got.tolist() == [spaces._luxemburg(row, ek, mu, metric) for row, ek in zip(rows, row_e)]


def test_luxemburg_rows_with_widely_spread_exponents():
    chart, metric = dp.build_torus(1, [64])
    e = np.full(64, 2.0)
    e[5] = 1001.0
    sparse = np.zeros(64)
    sparse[0], sparse[5] = 1.0, 0.99
    # full support, so the sums of every row meet the 1001st power too
    full = np.full(64, 1e-3)
    full[0], full[5] = 1.0, 0.99
    rows = np.stack([sparse, full, 0.5 * full])
    got = spaces._luxemburg_rows(rows, e, None, metric)
    assert np.all(np.isfinite(got))
    assert got.tolist() == [spaces._luxemburg(row, e, None, metric) for row in rows]


def test_estimate_computes_three_norms_per_scored_field(monkeypatch):
    e, w, metric = _variable_1d()
    rows = []

    def counted(abs_rows, *args):
        rows.append(len(abs_rows))
        return luxemburg_rows(abs_rows, *args)

    luxemburg_rows = spaces._luxemburg_rows
    monkeypatch.setattr(spaces, "_luxemburg_rows", counted)
    dp.estimate_constants(e, w, metric, trials=100, seed=5)
    # the constant field, then the 100 fields of the budget, which this instance spends
    assert sum(rows) == 3 * (1 + 100)


def test_estimate_peak_memory_is_blocked():
    # one round of the ascent holds a few lanes; the budget's 200 fields as one stack would not fit
    # (q = 1.9, so the seeded lanes run and the budget is spent)
    _, w, metric = _anisotropic_2d(32)
    e = dp.ExponentField(p=metric.chart.constant(3.0), q=metric.chart.constant(1.9))
    tracemalloc.start()
    try:
        dp.estimate_constants(e, w, metric, trials=200, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_said_embedding_estimate_holds():
    chart, metric = dp.build_torus(1, [64])
    x = chart.axis_coords(0)
    p = chart.field(3.0 + 0.5 * np.sin(2 * np.pi * x + 2.0))
    q = chart.field(1.7 + 0.2 * np.sin(2 * np.pi * x))
    e = dp.ExponentField(p=p, q=q)
    w = dp.WeightField(mu=chart.constant(1.0))
    consts = dp.estimate_constants(e, w, metric, trials=150, seed=11)
    factor = (1.01 * consts.D_embed * (1.01 * consts.c_poincare + 1.0)) ** e.p_plus
    for i in range(200):
        rng = dp.substream(29, "said", i)
        u0 = dp.random_band_limited(chart, rng, amplitude=float(10 ** rng.uniform(-0.5, 0.5)))
        gq = dp.grad_norm_g(dp.gradient(u0), metric)
        norm_p = dp.luxemburg_norm(u0, p, metric)
        norm_g = dp.luxemburg_norm(gq, q, metric)
        if norm_p == 0 or norm_g == 0:
            continue
        s = 1.000001 * max(1.0 / norm_p, 1.0 / norm_g)
        lhs = dp.modular(chart.field(s * u0.values), p, metric)
        rhs = factor * dp.modular(chart.field(s * gq.values), q, metric) ** (e.p_plus / e.q_minus)
        assert lhs <= rhs, f"trial {i}: {lhs} > {rhs}"
