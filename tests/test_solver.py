import math
import tracemalloc
import warnings

import numpy as np
import pytest

import doublephase as dp
from conftest import make_reference_instance
from doublephase.solver import NONNEG_TOL


@pytest.fixture(scope="module")
def quick_cfg():
    return dp.SolverConfig(seed=7, multistart=3, max_outer_iters=2000, constants_trials=100)


@pytest.fixture(scope="module")
def instance():
    return make_reference_instance(lam=0.125)


def _rand(chart, *path, amp=1.0, mean=0.0):
    rng = dp.substream(303, *path)
    return dp.random_band_limited(chart, rng, amplitude=amp, mean=mean)


def _count_calls(monkeypatch, owner, name):
    """{"calls": n}, n counting the calls of ``owner.name`` until monkeypatch.undo()."""
    counts = {"calls": 0}
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counts


def _count_profiles(monkeypatch):
    """{"calls": n}, n counting the ``_RayProfile`` constructions until monkeypatch.undo()."""
    from doublephase import nehari

    return _count_calls(monkeypatch, nehari._RayProfile, "__init__")


class TestTruncatedEnergy:
    def test_nonpositive_field_has_no_source(self, instance):
        u = instance.chart.constant(-0.8)
        val = dp.energy(instance, u, truncated=True).total
        assert val == 0.0
        br = dp.energy(instance, u, truncated=True)
        assert br.lambda_q_term == 0.0 and br.u_p_term == 0.0 and br.F_term == 0.0

    def test_nonnegative_field_matches_untruncated(self, instance):
        u = _rand(instance.chart, "pos", amp=0.4, mean=1.0)
        assert np.all(u.values >= 0)
        assert dp.energy(instance, u, truncated=True).total == dp.energy(instance, u).total

    def test_mixed_sign_equals_masked_quadrature(self, instance):
        u = _rand(instance.chart, "mixed", amp=1.0, mean=0.2)
        assert np.any(u.values < 0) and np.any(u.values >= 0)
        br = dp.energy(instance, u, truncated=True)
        mask = (u.values >= 0).astype(float)
        lam_q = dp.integrate(
            instance.chart.field(instance.lam * mask * np.abs(u.values) ** 2 / 2), instance.metric
        )
        u_p = dp.integrate(
            instance.chart.field(mask * np.abs(u.values) ** 3 / 3), instance.metric
        )
        f_term = dp.integrate(
            instance.chart.field(mask * np.abs(u.values) ** 4 / 4), instance.metric
        )
        assert br.lambda_q_term == pytest.approx(lam_q, rel=1e-13)
        assert br.u_p_term == pytest.approx(u_p, rel=1e-13)
        assert br.F_term == pytest.approx(f_term, rel=1e-13)

    def test_truncated_psi_shares_gateaux_path(self, instance):
        u = _rand(instance.chart, "tpsi", amp=1.0, mean=0.2)
        assert dp.psi(instance, u, truncated=True) == dp.gateaux(instance, u, u, truncated=True)

    def test_derivative_matches_central_difference(self, instance):
        h = 1e-5
        for i in range(20):
            u = _rand(instance.chart, "tfd", i, amp=1.0, mean=0.1)
            phi = _rand(instance.chart, "tfdp", i, amp=1.0)
            g = dp.gateaux(instance, u, phi, truncated=True)
            up = instance.chart.field(u.values + h * phi.values)
            dn = instance.chart.field(u.values - h * phi.values)
            J_up = dp.energy(instance, up, truncated=True).total
            J_dn = dp.energy(instance, dn, truncated=True).total
            fd = (J_up - J_dn) / (2 * h)
            assert abs(g - fd) <= 1e-6 * (1 + abs(g))


@pytest.mark.parametrize("min_u, warned", [(-1e-3, True), (-1e-11, False)], ids=["below-tol", "within-tol"])
def test_negative_minimizer_warns_below_the_tolerance(instance, quick_cfg, monkeypatch, min_u, warned):
    # each branch reports a field whose least node is min_u; the experiment
    # warns about it exactly when min_u < -NONNEG_TOL
    from doublephase import solver

    def report(P, cfg, constants=None):
        sign = -1.0 if cfg.target is dp.NehariClass.PLUS else 1.0
        vals = np.full(P.chart.shape, 0.5 + 0.3 * sign)
        vals[10] = min_u
        return solver.SolutionReport(
            u=P.chart.field(vals),
            J_value=sign,
            nehari_class=cfg.target,
            psi_value=0.0,
            residual_norm=0.0,
            min_u=float(vals.min()),
            iterations=0,
            start_index=0,
            n_converged_starts=1,
            warnings=(),
            constants=constants,
        )

    monkeypatch.setattr(solver, "minimize_on_branch", report)
    result = dp.two_solution_experiment(instance, quick_cfg)
    assert result.status == "converged"
    negative = [w for w in result.warnings if "negative nodes" in w]
    if warned:
        assert negative == [
            f"{tag} minimizer has negative nodes: min = {min_u:.3e}" for tag in ("plus", "minus")
        ]
    else:
        assert negative == []


class TestProjectOnto:
    def test_non_finite_candidate_is_dropped(self, instance, quick_cfg):
        from doublephase.solver import _project_onto

        for bad in (np.nan, np.inf, -np.inf):
            vals = np.ones(instance.chart.shape)
            vals[5] = bad
            for local in (False, True):
                assert _project_onto(instance, vals[None], quick_cfg, local) == [None]

    @pytest.mark.parametrize("target", [dp.NehariClass.PLUS, dp.NehariClass.MINUS])
    def test_energy_is_the_energy_of_the_projected_field(self, instance, quick_cfg, target):
        from doublephase.solver import _project_onto

        cfg = quick_cfg.with_target(target)
        checked = 0
        for i in range(6):
            vals = _rand(instance.chart, "onto", i, amp=0.02, mean=0.6).values
            for local in (False, True):
                (out,) = _project_onto(instance, vals[None], cfg, local)
                if out is None:
                    continue
                u, J = out
                br = dp.energy(instance, instance.chart.field(u), truncated=True)
                magnitude = (
                    br.grad_p_term + br.grad_q_term + br.lambda_q_term + br.u_p_term + br.F_term
                )
                assert J == pytest.approx(br.total, abs=1e-13 * magnitude)
                checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("target", [dp.NehariClass.PLUS, dp.NehariClass.MINUS])
    def test_local_miss_probes_the_full_bracket_on_the_same_profile(
        self, instance, quick_cfg, target, monkeypatch
    ):
        # the constant 0.01 has its roots near t = 14.6 (plus) and 85 (minus),
        # outside the local window [0.25, 4]
        from doublephase.solver import _project_onto

        vals = np.full(instance.chart.shape, 0.01)
        res = dp.project(instance, instance.chart.field(vals), truncated=True)
        assert res.classes == (dp.NehariClass.PLUS, dp.NehariClass.MINUS)
        assert min(res.t_roots) > 4.0

        cfg = quick_cfg.with_target(target)
        counts = _count_profiles(monkeypatch)
        out = {}
        for local in (False, True):
            counts["calls"] = 0
            (out[local],) = _project_onto(instance, vals[None], cfg, local)
            assert counts["calls"] == 1
        monkeypatch.undo()
        (u_full, J_full), (u_local, J_local) = out[False], out[True]
        assert u_local.tobytes() == u_full.tobytes()
        assert repr(J_local) == repr(J_full)
        t = res.t_roots[res.classes.index(target)]
        assert u_full.tobytes() == (t * vals).tobytes()

    @pytest.mark.parametrize("target", [dp.NehariClass.PLUS, dp.NehariClass.MINUS])
    def test_stacked_rows_are_bitwise_their_own_calls(self, instance, quick_cfg, target, monkeypatch):
        from doublephase.solver import _project_onto

        cfg = quick_cfg.with_target(target)
        chart = instance.chart
        rows = [_rand(chart, "onto-stack", i, amp=0.01 * (i + 1), mean=0.3).values for i in range(4)]
        non_finite = np.ones(chart.shape)
        non_finite[3] = np.nan
        # the constant 0.01 has no root in the local window; zero and -1 have none at all
        extra = [np.full(chart.shape, 0.01), non_finite, np.zeros(chart.shape), np.full(chart.shape, -1.0)]
        stack = np.array(rows[:2] + extra + rows[2:])
        for local in (False, True):
            counts = _count_profiles(monkeypatch)
            stacked = _project_onto(instance, stack, cfg, local)
            assert counts["calls"] == 1
            monkeypatch.undo()
            alone = [_project_onto(instance, vals[None], cfg, local)[0] for vals in stack]
            assert [out is None for out in stacked] == [out is None for out in alone]
            assert sum(out is not None for out in stacked) >= 3
            for got, want in zip(stacked, alone):
                if want is not None:
                    assert got[0].tobytes() == want[0].tobytes()
                    assert repr(got[1]) == repr(want[1])

    def test_zero_field_does_not_project(self, instance, quick_cfg):
        from doublephase.solver import _project_onto

        vals = np.zeros(instance.chart.shape)
        for local in (False, True):
            assert _project_onto(instance, vals[None], quick_cfg, local) == [None]


class TestMinimizeOnBranch:
    def test_minus_branch_converges(self, instance, quick_cfg):
        cfg = quick_cfg.with_target(dp.NehariClass.MINUS)
        rep = dp.minimize_on_branch(instance, cfg)
        assert rep.nehari_class is dp.NehariClass.MINUS
        assert rep.J_value > 0
        assert rep.residual_norm <= cfg.residual_tol
        assert abs(rep.psi_value) <= 1e-8 * (1 + abs(rep.J_value))
        # lambda = 1/8: the constant max-branch point is (1 + sqrt(1/2)) / 2
        expected = (1 + np.sqrt(0.5)) / 2
        assert np.allclose(rep.u.values, expected, atol=1e-5)

    def test_plus_branch_converges_negative_energy(self, instance, quick_cfg):
        cfg = quick_cfg.with_target(dp.NehariClass.PLUS)
        rep = dp.minimize_on_branch(instance, cfg)
        assert rep.nehari_class is dp.NehariClass.PLUS
        assert rep.J_value < 0
        assert rep.residual_norm <= cfg.residual_tol
        expected = (1 - np.sqrt(0.5)) / 2
        assert np.allclose(rep.u.values, expected, atol=1e-5)

    def test_theta_nonincreasing_in_multistart(self, instance):
        thetas = []
        for m in (1, 4):
            cfg = dp.SolverConfig(
                seed=7, multistart=m, max_outer_iters=2000, target=dp.NehariClass.MINUS
            )
            try:
                thetas.append(dp.minimize_on_branch(instance, cfg).J_value)
            except dp.BranchError:
                thetas.append(np.inf)
        assert thetas[1] <= thetas[0] + 1e-14

    def test_determinism(self, instance, quick_cfg):
        a = dp.minimize_on_branch(instance, quick_cfg)
        b = dp.minimize_on_branch(instance, quick_cfg)
        assert np.array_equal(a.u.values, b.u.values)
        assert a.to_dict() == b.to_dict()

    def test_branch_error_kind(self, monkeypatch):
        # far above the fold no constant-like start projects onto plus;
        # a tiny bracket-less budget cannot stall silently
        from doublephase import solver

        monkeypatch.setattr(solver, "START_AMPS", (0.001, 0.002))
        P = make_reference_instance(lam=5.0)
        cfg = dp.SolverConfig(seed=1, multistart=2, max_outer_iters=50, target=dp.NehariClass.PLUS)
        with pytest.raises(dp.BranchError) as err:
            dp.minimize_on_branch(P, cfg)
        assert err.value.kind in ("empty", "stalled")

    def test_stalled_error_says_why_the_best_start_ended(self, instance):
        cfg = dp.SolverConfig(seed=7, multistart=2, max_outer_iters=1, target=dp.NehariClass.MINUS)
        with pytest.raises(dp.BranchError) as err:
            dp.minimize_on_branch(instance, cfg)
        assert err.value.kind == "stalled"
        assert "iteration cap reached" in str(err.value)


def _torus_instance(dim, n, metric_spec):
    """p = 3, q = 2, beta = 4, lambda = 1/8 on an n^dim torus: the constant
    critical points of the 1-D reference instance, whatever the metric."""
    chart, metric = dp.build_torus(dim, [n] * dim, metric_spec)
    return dp.ProblemInstance(
        chart=chart,
        metric=metric,
        exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0)),
        weight=dp.WeightField(mu=chart.constant(1.0)),
        lam=0.125,
        nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=chart.constant(1.0)),
    )


def _outcome_record(o):
    u = None if o.u is None else o.u.tobytes()
    return (o.converged, o.projected, u, repr(o.J), repr(o.residual_norm), o.iterations, o.note)


def _lane_cases():
    """(id, instance, config, backtracks allowed, the notes the lanes must end with)."""
    from conftest import make_variable_instance

    ref = make_reference_instance(lam=0.2)
    aniso = _torus_instance(2, 32, np.array([[1.0, 0.3], [0.3, 2.0]]))
    cube = _torus_instance(3, 8, np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 2.0]]))
    var = make_variable_instance(lam=0.05)
    plus, minus = dp.NehariClass.PLUS, dp.NehariClass.MINUS
    converged, unprojected = "", "start did not project"
    cap, stall = "iteration cap reached", "backtracking stalled"
    for name, P, m in (("ref1d", ref, 8), ("aniso2d", aniso, 4), ("cube8", cube, 4)):
        yield f"{name}-plus", P, dp.SolverConfig(seed=7, target=plus, multistart=m), None, {converged, unprojected}
        yield f"{name}-minus", P, dp.SolverConfig(seed=7, target=minus, multistart=m), None, {converged}
    yield "ref1d-minus-stall", ref, dp.SolverConfig(seed=7, target=minus, multistart=4), 2, {converged, stall}
    for cap_iters in (1, 5):
        for target in (plus, minus):
            cfg = dp.SolverConfig(seed=42, target=target, multistart=8, max_outer_iters=cap_iters)
            yield f"var-cap{cap_iters}-{target.value}", var, cfg, None, {cap, unprojected} if target is plus else {cap}


@pytest.mark.parametrize("name, P, cfg, backtracks, notes", [pytest.param(*c, id=c[0]) for c in _lane_cases()])
def test_every_lane_is_bitwise_its_own_one_lane_descent(name, P, cfg, backtracks, notes, monkeypatch):
    from doublephase import solver

    if backtracks is not None:
        monkeypatch.setattr(solver, "MAX_BACKTRACKS", backtracks)
    starts = solver._start_values(P, cfg, range(cfg.multistart))
    stacked = solver._descend(P, cfg, starts)
    assert {o.note for o in stacked} == notes
    for i, out in enumerate(stacked):
        (alone,) = solver._descend(P, cfg, starts[i : i + 1])
        assert _outcome_record(out) == _outcome_record(alone)


@pytest.mark.parametrize("target", [dp.NehariClass.PLUS, dp.NehariClass.MINUS])
def test_descent_builds_no_field_and_the_report_one(target, monkeypatch):
    # starts, iterates and trial points stay node values; only the reported
    # point becomes a field, whose construction checks that it is finite
    from doublephase import solver

    P = make_reference_instance(lam=0.2)
    cfg = dp.SolverConfig(seed=7, target=target, multistart=4)
    starts = solver._start_values(P, cfg, range(cfg.multistart))
    counts = _count_calls(monkeypatch, dp.ScalarField, "__post_init__")
    outcomes = solver._descend(P, cfg, starts)
    assert sum(o.iterations for o in outcomes) > 0
    assert counts["calls"] == 0
    rep = dp.minimize_on_branch(P, cfg)
    monkeypatch.undo()
    assert counts["calls"] == 1
    assert rep.residual_norm <= cfg.residual_tol


def _start0_iterations(P, target):
    from doublephase.solver import _descend, _start_values

    cfg = dp.SolverConfig(seed=7, target=target, max_outer_iters=500)
    (out,) = _descend(P, cfg, _start_values(P, cfg, [0]))
    assert out.converged, out.note
    return out.iterations


@pytest.mark.parametrize("target", [dp.NehariClass.PLUS, dp.NehariClass.MINUS])
class TestGridIndependence:
    def test_reference_instance_n64_to_n256(self, target):
        coarse = _start0_iterations(make_reference_instance(lam=0.125, n=64), target)
        fine = _start0_iterations(make_reference_instance(lam=0.125, n=256), target)
        assert fine <= 2 * coarse

    def test_anisotropic_metric_32_to_64(self, target):
        g = np.array([[1.0, 0.3], [0.3, 2.0]])
        coarse = _start0_iterations(_torus_instance(2, 32, g), target)
        fine = _start0_iterations(_torus_instance(2, 64, g), target)
        assert fine <= 2 * coarse


def _per_node_metric():
    n = 32
    x, y = dp.build_torus(2, [n, n])[0].coords()
    g = np.empty((n, n, 2, 2))
    g[..., 0, 0] = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    g[..., 1, 1] = 2.0 + 0.8 * np.cos(2 * np.pi * (x + y))
    g[..., 0, 1] = g[..., 1, 0] = 0.3 * np.sin(2 * np.pi * y)
    return _torus_instance(2, n, g)


def _conformal_metric(dim, n):
    """g = c^2 I with c = 1 + 0.9 sin(2 pi x), times cos(2 pi y) in 2-D: the
    volume element c^dim, and with it the node weight, varies 19^dim-fold."""
    coords = dp.build_torus(dim, [n] * dim)[0].coords()
    wave = np.sin(2 * np.pi * coords[0])
    if dim == 2:
        wave = wave * np.cos(2 * np.pi * coords[1])
    c = 1.0 + 0.9 * wave
    return _torus_instance(dim, n, (c * c)[..., None, None] * np.eye(dim))


_METRICS = {
    "per_node": _per_node_metric,
    "conformal1d": lambda: _conformal_metric(1, 64),
    "conformal2d": lambda: _conformal_metric(2, 32),
}


# the per-node cases keep the bare target ids that existing test selections name
@pytest.mark.parametrize(
    "metric, target",
    [
        pytest.param(m, t, id=str(t) if m == "per_node" else f"{m}-{t}")
        for m in _METRICS
        for t in (dp.NehariClass.PLUS, dp.NehariClass.MINUS)
    ],
)
def test_per_node_metric_reaches_constant_critical_points(metric, target):
    P = _METRICS[metric]()
    rep = dp.minimize_on_branch(P, dp.SolverConfig(seed=7, target=target, multistart=2))
    sign = 1.0 if target is dp.NehariClass.MINUS else -1.0
    assert rep.nehari_class is target
    assert np.max(np.abs(rep.u.values - (1 + sign * np.sqrt(0.5)) / 2)) <= 1e-6


@pytest.fixture(scope="module")
def result(instance, quick_cfg):
    return dp.two_solution_experiment(instance, quick_cfg)


class TestTwoSolutionExperiment:
    def test_converged_with_expected_signs(self, result):
        assert result.status == "converged"
        assert result.report_plus.J_value < 0 < result.report_minus.J_value

    def test_distinct_and_nonnegative(self, result, instance):
        assert result.distinct
        assert result.separation > 1e-6
        for rep in (result.report_plus, result.report_minus):
            assert rep.min_u == float(rep.u.values.min()) >= -NONNEG_TOL

    def test_residuals_are_weak_solution_level(self, result, instance):
        for rep in (result.report_plus, result.report_minus):
            _, norm = dp.residual_gradient(instance, rep.u, truncated=True)
            assert norm <= 1e-6

    def test_thresholds_and_provenance_recorded(self, result):
        assert result.thresholds.lambda_star_star > 0
        assert result.report_plus.constants is not None
        assert result.report_plus.constants == result.thresholds.constants

    def test_warning_when_lambda_not_small(self, result, instance):
        # constant q clamps the no-inflection threshold to zero, so the
        # smallness warning always fires for this family
        assert any("lambda_bar" in w for w in result.warnings)


class TestSweep:
    def test_rows_and_signs(self, instance, quick_cfg):
        lambdas = [0.05, 0.125, 0.24]
        rows = dp.sweep(instance, lambdas, quick_cfg, n_samples=24)
        assert len(rows) == 3
        for row in rows:
            assert row.n_minus_found > 0
            assert row.theta_minus_estimate > 0
            if row.n_plus_found:
                assert row.theta_plus_estimate < 0
            assert row.lambda_star_star == rows[0].lambda_star_star

    def test_plus_found_below_fold(self, instance, quick_cfg):
        rows = dp.sweep(instance, [0.125], quick_cfg, n_samples=16)
        assert rows[0].n_plus_found > 0

    def test_census_builds_one_ray_profile_per_projection(self, instance, quick_cfg, monkeypatch):
        # each lambda projects its samples and its start ladder as two stacks,
        # one profile each; the rows equal a census of per-ray projections
        from doublephase import nehari

        lambdas = [0.125, 0.2]
        counts = _count_profiles(monkeypatch)
        rows = dp.sweep(instance, lambdas, quick_cfg, n_samples=16)
        monkeypatch.undo()
        assert counts["calls"] == 2 * len(lambdas)
        assert rows[0].n_minus_found > 0 and rows[0].n_plus_found > 0

        def per_ray_census(P, fields, target):
            theta, found = math.inf, 0
            for u in fields:
                try:
                    res = dp.project(P, u)
                except dp.NoRootError:
                    continue
                t = next((t for t, cls in zip(res.t_roots, res.classes) if cls is target), None)
                if t is not None:
                    found += 1
                    theta = min(theta, nehari._RayProfile(P, u).energy_at(t))
            return (theta if found else math.nan), found

        from doublephase.solver import START_AMPS

        amps = np.geomspace(*START_AMPS, quick_cfg.multistart)
        for j, (lam, row) in enumerate(zip(lambdas, rows)):
            P = instance.with_lambda(lam)
            samples = _sequential_census_samples(P.chart, quick_cfg.seed, j, 16)
            starts = [
                dp.random_band_limited(
                    P.chart, dp.substream(quick_cfg.seed, "start", i), amplitude=float(amps[i]), mean=1.0
                )
                for i in range(quick_cfg.multistart)
            ]
            theta_minus, n_minus = per_ray_census(P, samples, dp.NehariClass.MINUS)
            theta_plus, n_plus = per_ray_census(P, starts, dp.NehariClass.PLUS)
            assert repr((row.theta_minus_estimate, row.n_minus_found)) == repr((theta_minus, n_minus))
            assert repr((row.theta_plus_estimate, row.n_plus_found)) == repr((theta_plus, n_plus))

    def test_point_count_is_the_auto_grid(self, instance, quick_cfg):
        # N points geometric from lambda**/8 to 2 lambda**, from the sweep's own estimate
        consts = dp.estimate_constants(
            instance.exponents, instance.weight, instance.metric, trials=quick_cfg.constants_trials, seed=7
        )
        lam_ss = dp.thresholds(instance, consts).lambda_star_star
        rows = dp.sweep(instance, 3, quick_cfg, n_samples=8)
        grid = np.geomspace(lam_ss / 8.0, 2.0 * lam_ss, 3)
        assert repr(rows) == repr(dp.sweep(instance, grid, quick_cfg, n_samples=8))
        assert [row.lam for row in rows] == grid.tolist()

    def test_auto_grid_needs_a_positive_threshold(self, instance, quick_cfg, monkeypatch):
        from doublephase import solver

        monkeypatch.setattr(
            solver, "thresholds", lambda P, consts: dp.thresholds(P, consts)._replace(lambda_star_star=0.0)
        )
        with pytest.raises(ValueError, match="^auto lambda grid needs a positive threshold$"):
            dp.sweep(instance, 3, quick_cfg, n_samples=8)

    def test_start_ladder_is_drawn_once(self, instance, quick_cfg, monkeypatch):
        # the ladder depends on the chart, the seed and multistart, not on lambda
        from doublephase import solver

        counts = _count_calls(monkeypatch, solver, "_start_values")
        rows = dp.sweep(instance, [0.05, 0.125, 0.24], quick_cfg, n_samples=4)
        monkeypatch.undo()
        assert len(rows) == 3
        assert counts["calls"] == 1


def _sequential_census_samples(chart, seed, j, n):
    """The census samples as n ``random_band_limited`` calls in turn on one substream."""
    rng = dp.substream(seed, "sweep-minus", j)
    return [dp.random_band_limited(chart, rng, amplitude=float(10.0 ** rng.uniform(-1, 1))) for _ in range(n)]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("j", [0, 7])
@pytest.mark.parametrize(
    "sizes, n",
    # 32 samples per block; 8 per block with a partial last one; one per
    # block, the chart having more nodes than grid.BLOCK
    [([64], 256), ([16, 16], 37), ([16, 16, 16], 3)],
)
def test_census_samples_are_sequential_draws_on_one_substream(sizes, n, seed, j, monkeypatch):
    from doublephase import solver

    chart, _ = dp.build_torus(len(sizes), sizes)
    expected = np.stack([u.values for u in _sequential_census_samples(chart, seed, j, n)])
    counts = _count_calls(monkeypatch, solver, "substream")
    samples = solver._census_samples(chart, seed, j, n)
    monkeypatch.undo()
    assert counts["calls"] == 1
    assert samples.shape == (n,) + chart.shape
    assert samples.tobytes() == expected.tobytes()
    # the blocks do not change the draws: move every block boundary
    monkeypatch.setattr(dp.grid, "BLOCK", 3 * chart.n_nodes)
    assert solver._census_samples(chart, seed, j, n).tobytes() == expected.tobytes()
    if n == 37:
        # fewer samples are a prefix of more
        assert samples.tobytes() == solver._census_samples(chart, seed, j, 256)[:37].tobytes()


def test_census_samples_peak_memory_is_blocked():
    # the 256 x 64 stack itself is 128 KiB and one block adds about as much;
    # all 256 samples' coefficients and FFT temporaries at once peak above 1 MB
    from doublephase.solver import _census_samples

    chart, _ = dp.build_torus(1, [64])
    tracemalloc.start()
    try:
        _census_samples(chart, 42, 0, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**19


def test_census_round_frees_its_samples_before_probing():
    # the 256 x 64 sample stack is 128 KiB; a census round that keeps it
    # alive through the 16-ray probe blocks peaks at about 375 KiB, one that
    # frees it once the ray profile is built at about 323 KiB
    from doublephase.solver import _census, _census_samples

    P = make_reference_instance()
    _census(P, _census_samples(P.chart, 42, 0, 256), dp.NehariClass.MINUS)
    tracemalloc.start()
    try:
        _census(P, _census_samples(P.chart, 42, 0, 256), dp.NehariClass.MINUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 340 * 2**10


def test_a_beta_near_the_bound_probes_without_overflow_warnings():
    # t^beta S overflows at the top of the probe bracket for beta = 51.35;
    # it reads -inf, phi's true sign, so the rows and roots are those of a
    # probe that warned
    chart, metric = dp.build_torus(1, [16])
    P = dp.ProblemInstance(
        chart=chart,
        metric=metric,
        exponents=dp.ExponentField(p=chart.constant(3.0), q=chart.constant(2.0)),
        weight=dp.WeightField(mu=chart.constant(1.0)),
        lam=0.125,
        nonlinearity=dp.PowerNonlinearity(beta=51.35, amplitude=chart.constant(1.0)),
    )
    u = dp.random_band_limited(chart, dp.substream(42, "start", 0), amplitude=1.0, mean=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = dp.sweep(P, [0.05, 0.125], dp.SolverConfig(seed=42, multistart=4, constants_trials=100), n_samples=8)
        res = dp.project(P, u)
    thresholds = {"lambda_star": 0.0, "lambda_star_star": 0.42345839001714985}
    assert rows == [
        dp.SweepRow(0.05, -1.2967554673213437e-05, 40.389602017805224, 1, 6, **thresholds),
        dp.SweepRow(0.125, -0.0002713006773174027, 57.47325158095785, 2, 5, **thresholds),
    ]
    assert res.t_roots == (0.7092270349868592,) and res.classes == (dp.NehariClass.MINUS,)
    assert res.phi_at_roots == (-0.12073428438639411,)


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_solver_config_rejects_a_residual_tol_that_is_not_finite_and_positive(tol):
    # at nan no residual passes the stop test, at inf every start stops at once
    with pytest.raises(ValueError, match="residual_tol"):
        dp.SolverConfig(residual_tol=tol)


def test_solver_config_is_immutable_and_with_target_keeps_the_budget():
    cfg = dp.SolverConfig(seed=7, multistart=3, max_outer_iters=20, residual_tol=1e-7, constants_trials=150)
    for name in ("target", "seed", "multistart"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))
    plus = cfg.with_target(dp.NehariClass.PLUS)
    assert cfg.target is dp.NehariClass.MINUS and plus.target is dp.NehariClass.PLUS
    budget = ("multistart", "seed", "max_outer_iters", "residual_tol", "constants_trials")
    assert [getattr(plus, name) for name in budget] == [3, 7, 20, 1e-7, 150]


def test_record_serialisations_are_pinned():
    consts = dp.ConstantsEstimate(c_poincare=0.25, D_embed=1.5, c1_embed=2.0, r_q=2.0, trials=100, seed=7)
    consts_dict = {"c_poincare": 0.25, "D_embed": 1.5, "c1_embed": 2.0, "r_q": 2.0, "trials": 100, "seed": 7}
    assert consts.to_dict() == consts_dict
    thr = dp.Thresholds(lambda_star=0.0, lambda_star_star=0.125, lambda_bar=0.0, star_clamped=True,
                        star_star_degenerate=False, constants=consts)
    assert thr.to_dict() == {"lambda_star": 0.0, "lambda_star_star": 0.125, "lambda_bar": 0.0,
                             "star_clamped": True, "star_star_degenerate": False, "constants": consts_dict}
    row = dp.SweepRow(lam=0.5, theta_plus_estimate=-0.25, theta_minus_estimate=1.5, n_plus_found=3,
                      n_minus_found=64, lambda_star=0.0, lambda_star_star=0.125)
    assert row.to_csv_row() == [0.5, -0.25, 1.5, 3, 64, 0.0, 0.125]
    assert len(row.to_csv_row()) == len(dp.solver.SWEEP_CSV_HEADER)
