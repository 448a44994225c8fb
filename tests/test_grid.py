import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doublephase as dp


def test_build_torus_identity_sqrt_det():
    chart, metric = dp.build_torus(1, [64], "identity")
    assert np.all(metric.sqrt_det == 1.0)
    assert dp.pairwise_sum(metric.sqrt_det) * chart.cell_volume == pytest.approx(1.0, rel=1e-15)


def test_build_torus_scalar_metric():
    _, metric = dp.build_torus(1, [64], 4.0)
    assert np.all(metric.sqrt_det == 2.0)


def test_build_torus_pernode_spd_table():
    rng = dp.substream(7, "metric")
    shape = (32, 32)
    base = rng.standard_normal(shape + (2, 2))
    g = np.einsum("...ab,...cb->...ac", base, base) + 0.5 * np.eye(2)
    chart, metric = dp.build_torus(2, [32, 32], g)
    ident = np.einsum("...ab,...bc->...ac", metric.inv, g)
    gap = np.max(np.abs(ident - np.eye(2)))
    assert gap <= 1e-12


def test_build_torus_rejects_non_spd_with_node_index():
    g = np.broadcast_to(np.eye(2), (8, 8, 2, 2)).copy()
    g[3, 5] = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
    with pytest.raises(ValueError, match=r"positive definite at node \(3, 5\)"):
        dp.build_torus(2, [8, 8], g)


def test_chart_validation():
    with pytest.raises(ValueError):
        dp.Chart(dim=1, sizes=(3,), spacings=(0.1,))
    with pytest.raises(ValueError):
        dp.Chart(dim=2, sizes=(8, 8), spacings=(0.1, -0.1))
    with pytest.raises(ValueError):
        dp.Chart(dim=4, sizes=(8,) * 4, spacings=(0.1,) * 4)


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_chart_rejects_non_finite_spacings(h):
    with pytest.raises(ValueError, match="spacings must be finite and positive"):
        dp.Chart(dim=2, sizes=(8, 8), spacings=(0.1, h))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_metric_rejects_non_finite_entries(value):
    chart = dp.Chart(dim=2, sizes=(8, 8), spacings=(0.1, 0.1))
    with pytest.raises(ValueError, match="non-finite"):
        dp.MetricField.from_spec(chart, [[1.0, value], [value, 1.0]])


def test_gradient_of_constant_is_exactly_zero():
    chart, _ = dp.build_torus(2, [16, 16])
    g = dp.gradient(chart.constant(3.7))
    assert np.all(g.components == 0.0)


def test_gradient_sine_error_bound():
    chart, _ = dp.build_torus(1, [64])
    x = chart.axis_coords(0)
    u = chart.field(np.sin(2 * np.pi * x))
    g = dp.gradient(u)
    err = np.max(np.abs(g.components[..., 0] - 2 * np.pi * np.cos(2 * np.pi * x)))
    h = 1.0 / 64
    assert err <= (2 * np.pi) ** 3 * h**2 / 6 * (1 + 1e-12)


def test_gradient_2d_both_components():
    chart, _ = dp.build_torus(2, [64, 64])
    xx, yy = chart.coords()
    u = chart.field(np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy))
    g = dp.gradient(u)
    h = 1.0 / 64
    bound = (2 * np.pi) ** 3 * h**2 / 6 * (1 + 1e-12)
    gx = 2 * np.pi * np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
    gy = 2 * np.pi * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    assert np.max(np.abs(g.components[..., 0] - gx)) <= bound
    assert np.max(np.abs(g.components[..., 1] - gy)) <= bound


def test_gradient_translation_equivariance_bitwise():
    chart, _ = dp.build_torus(1, [64])
    rng = dp.substream(3, "shift")
    u = dp.random_band_limited(chart, rng)
    shifted = chart.field(np.roll(u.values, 5))
    lhs = dp.gradient(shifted).components
    rhs = np.roll(dp.gradient(u).components, 5, axis=0)
    assert np.array_equal(lhs, rhs)


def test_grad_norm_euclidean():
    chart, metric = dp.build_torus(2, [8, 8])
    comps = np.zeros(chart.shape + (2,))
    comps[..., 0] = 3.0
    comps[..., 1] = 4.0
    out = dp.grad_norm_g(dp.VectorField(comps, chart), metric)
    assert np.allclose(out.values, 5.0, rtol=0, atol=1e-14)


def test_grad_norm_scalar_metric():
    chart, metric = dp.build_torus(1, [8], 4.0)
    comps = np.full(chart.shape + (1,), 2.0)
    out = dp.grad_norm_g(dp.VectorField(comps, chart), metric)
    # g^{11} = 1/4 so the norm is sqrt(4/4) = 1
    assert np.allclose(out.values, 1.0, rtol=0, atol=1e-14)


def test_grad_norm_matches_quadratic_form():
    rng = dp.substream(11, "gnorm")
    shape = (8, 8)
    base = rng.standard_normal(shape + (2, 2))
    g = np.einsum("...ab,...cb->...ac", base, base) + 0.3 * np.eye(2)
    chart, metric = dp.build_torus(2, [8, 8], g)
    comps = rng.standard_normal(shape + (2,))
    out = dp.grad_norm_g(dp.VectorField(comps, chart), metric)
    for i in range(8):
        for j in range(8):
            expected = math.sqrt(comps[i, j] @ np.linalg.inv(g[i, j]) @ comps[i, j])
            assert out.values[i, j] == pytest.approx(expected, rel=1e-12)


def test_build_torus_3d_smoke():
    chart, metric = dp.build_torus(3, [4, 4, 4], 2.0)
    assert chart.n_nodes == 64
    expected = math.sqrt(2.0**3)
    assert dp.integrate(chart.constant(1.0), metric) == pytest.approx(expected, rel=1e-13)
    assert np.all(dp.gradient(chart.constant(1.0)).components == 0.0)


def test_grad_norm_zero_iff_zero_vector():
    rng = dp.substream(12, "iff")
    base = rng.standard_normal((8, 8, 2, 2))
    g = np.einsum("...ab,...cb->...ac", base, base) + 0.3 * np.eye(2)
    chart, metric = dp.build_torus(2, [8, 8], g)
    comps = rng.standard_normal((8, 8, 2))
    comps[2, 3] = 0.0
    out = dp.grad_norm_g(dp.VectorField(comps, chart), metric)
    assert out.values[2, 3] == 0.0
    mask = np.ones((8, 8), dtype=bool)
    mask[2, 3] = False
    assert np.all(out.values[mask] > 0.0)


def test_integrate_unit_volume_and_symmetry():
    chart, metric = dp.build_torus(1, [64])
    assert dp.integrate(chart.constant(1.0), metric) == pytest.approx(1.0, rel=1e-15)
    x = chart.axis_coords(0)
    assert abs(dp.integrate(chart.field(np.sin(2 * np.pi * x)), metric)) <= 1e-14


def test_integrate_volume_doubles_with_metric():
    chart, metric = dp.build_torus(1, [64], 4.0)
    assert dp.integrate(chart.constant(1.0), metric) == pytest.approx(2.0, rel=1e-13)


def test_integrate_constant_metric_volume_2d():
    g = np.array([[2.0, 0.3], [0.3, 1.5]])
    chart, metric = dp.build_torus(2, [16, 16], g)
    expected = math.sqrt(np.linalg.det(g))
    assert dp.integrate(chart.constant(1.0), metric) == pytest.approx(expected, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-50, max_value=50),
    b=st.floats(min_value=-50, max_value=50),
)
def test_integrate_is_linear(a, b):
    chart, metric = dp.build_torus(1, [32], 1.7)
    rng = dp.substream(5, "linear")
    u = dp.random_band_limited(chart, rng)
    v = dp.random_band_limited(chart, rng)
    lhs = dp.integrate(chart.field(a * u.values + b * v.values), metric)
    rhs = a * dp.integrate(u, metric) + b * dp.integrate(v, metric)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_pairwise_sum_matches_fsum():
    rng = dp.substream(1, "psum")
    for n in (1, 2, 3, 7, 64, 1000, 32768):
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3)
        exact = math.fsum(vals)
        assert dp.pairwise_sum(vals) == pytest.approx(exact, rel=1e-13, abs=1e-13)
    for n in (64, 32768):
        rows = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-3, 3, size=(3, 1))
        for row, total in zip(rows, dp.pairwise_sum_rows(rows)):
            assert total == pytest.approx(math.fsum(row), rel=1e-13, abs=1e-13)
    assert dp.pairwise_sum([]) == 0.0


def _bitwise_rows(stack):
    """Every row sum of ``stack`` is its one-row ``pairwise_sum``, bit for bit."""
    sums = dp.pairwise_sum_rows(stack)
    assert np.shape(sums) == np.shape(stack)[:-1]
    rows = np.reshape(stack, (-1, np.shape(stack)[-1]))
    assert np.ravel(sums).tolist() == [dp.pairwise_sum(row) for row in rows]


@pytest.mark.parametrize("n", [*range(1, 71), 127, 128, 129, 1024, 32768])
def test_pairwise_sum_rows_bitwise_equal_to_pairwise_sum(n):
    rng = dp.substream(1, "psum-rows", n)
    rows = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-3, 3, size=(5, 1))
    _bitwise_rows(rows)
    # a one-row stack against the 1-D call, and 3-D stacks
    assert dp.pairwise_sum_rows(rows[1:2]).tolist() == [dp.pairwise_sum_rows(rows[1])]
    _bitwise_rows(rows[:4].reshape(2, 2, n))
    # strides of every kind: transposed, strided slices, broadcast
    _bitwise_rows(np.ascontiguousarray(rows.T).T)
    _bitwise_rows(rng.standard_normal((n, 3)).T)
    _bitwise_rows(rng.standard_normal((6, 2 * n))[::2, ::2])
    _bitwise_rows(np.broadcast_to(rows[0], (4, n)))
    _bitwise_rows(np.broadcast_to(rows[:, :1], (5, n)))


def test_pairwise_sum_rows_order_is_set_by_the_row_length():
    # a short row runs the tree: (1e16 + 1) + (-1e16 + 1) rounds to 0,
    # where a left-to-right sum gives 1
    vals = [1e16, 1.0, -1e16, 1.0]
    assert dp.pairwise_sum(vals) == 0.0
    assert dp.pairwise_sum_rows([vals, vals]).tolist() == [0.0, 0.0]
    assert ((1e16 + 1.0) + -1e16) + 1.0 == 1.0
    # from REDUCE_MIN_LEN on, numpy's compiled pairwise reduction
    rng = dp.substream(1, "psum-cut")
    for n in (dp.grid.REDUCE_MIN_LEN, 100, 5000):
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        assert dp.pairwise_sum(vals) == np.add.reduce(vals)
    assert dp.pairwise_sum_rows(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 100, 2**11 + 1])
@pytest.mark.parametrize("item_size", [1, 3, 64, 2**11, 2**11 + 1, 4096])
def test_blocks_cover_the_range_in_order_within_the_item_bound(n, item_size):
    parts = dp.grid.blocks(n, item_size)
    bound = max(1, dp.grid.BLOCK // item_size)
    assert [i for b in parts for i in range(n)[b]] == list(range(n))
    if n == 0:
        assert [range(n)[b] for b in parts] == [range(0)]
    else:
        assert all(1 <= len(range(n)[b]) <= bound for b in parts)
        # only the last block may be short
        assert all(len(range(n)[b]) == bound for b in parts[:-1])


def test_scalar_field_rejects_nan_and_shape_mismatch():
    chart, _ = dp.build_torus(1, [8])
    with pytest.raises(ValueError):
        chart.field(np.full(8, np.nan))
    with pytest.raises(ValueError):
        chart.field(np.zeros(9))


def test_fields_are_immutable():
    chart, _ = dp.build_torus(1, [8])
    u = chart.constant(1.0)
    with pytest.raises(ValueError):
        u.values[0] = 2.0


def test_chart_is_a_hashable_value_that_keys_one_spectrum():
    from doublephase.grid import _spectrum

    a = dp.Chart(dim=2, sizes=[8, 12], spacings=[0.125, 0.25])
    b = dp.Chart(2, (8.0, 12), (0.125, 0.25))
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a != dp.Chart(2, (12, 8), (0.125, 0.25)) and a != dp.Chart(2, (8, 12), (0.125, 0.5))
    assert a != (2, (8, 12), (0.125, 0.25))
    _spectrum.cache_clear()
    assert _spectrum(a) is _spectrum(b)
    info = _spectrum.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_chart_attributes_cannot_be_assigned_or_deleted():
    chart = dp.Chart(1, [8], [0.125])
    for name in ("dim", "sizes", "spacings", "n_nodes", "cell_volume"):
        with pytest.raises(AttributeError):
            setattr(chart, name, getattr(chart, name))
        with pytest.raises(AttributeError):
            delattr(chart, name)
    assert (chart.sizes, chart.n_nodes) == ((8,), 8)


def test_scalar_field_post_init_runs_once_per_field(monkeypatch):
    chart, _ = dp.build_torus(1, [8])
    checked = []
    original = dp.ScalarField.__post_init__

    def counted(self):
        checked.append(self)
        original(self)

    monkeypatch.setattr(dp.ScalarField, "__post_init__", counted)
    u = chart.field(np.arange(8))
    v = chart.constant(2.0)
    assert len(checked) == 2 and checked[0] is u and checked[1] is v
    assert u.values.dtype == float and not u.values.flags.writeable


@pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
def test_substream_rejects_a_seed_outside_its_range(seed):
    # masked to 64 bits, -5 and 2**64 - 5 drew the same stream
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        dp.substream(seed, "s", 0)


def test_substream_takes_both_ends_of_its_range():
    assert dp.substream(0, "s").random() != dp.substream(2**64 - 1, "s").random()
    assert dp.substream(2**64 - 1, "s").random() == dp.substream(2**64 - 1, "s").random()


@pytest.mark.parametrize("sizes", [[64], [16, 12], [8, 8, 6]])
def test_extrema_are_the_min_and_max_of_the_values(sizes):
    chart, _ = dp.build_torus(len(sizes), sizes)
    u = dp.random_band_limited(chart, dp.substream(19, "extrema", len(sizes)), amplitude=2.0, mean=0.3)
    lo, hi = u.extrema
    assert (lo, hi) == (u.values.min(), u.values.max())
    assert type(lo) is float and type(hi) is float
    # kept after the first read
    assert u.extrema is u.extrema and vars(u)["extrema"] == (lo, hi)


def _log_volume_metrics():
    yield "identity", dp.build_torus(2, [16, 12])[1]
    yield "constant", dp.build_torus(2, [16, 12], metric_spec=[[2.0, 0.5], [0.5, 1.0]])[1]
    x, y = dp.build_torus(2, [16, 12])[0].coords()
    table = np.zeros((16, 12, 2, 2))
    table[..., 0, 0] = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    table[..., 1, 1] = 2.0 + 0.8 * np.cos(2 * np.pi * (x + y))
    table[..., 0, 1] = table[..., 1, 0] = 0.3 * np.sin(2 * np.pi * y)
    yield "per-node", dp.build_torus(2, [16, 12], metric_spec=table)[1]


@pytest.mark.parametrize("name, metric", [pytest.param(n, m, id=n) for n, m in _log_volume_metrics()])
def test_log_volume_is_read_only_and_bitwise_the_log_volume_element(name, metric):
    got = metric.log_volume
    want = np.log(metric.sqrt_det * metric.chart.cell_volume)
    assert got.shape == metric.chart.shape and got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0.0
    assert metric.log_volume is got


def test_random_band_limited_is_band_limited_and_deterministic():
    chart, _ = dp.build_torus(1, [64])
    u1 = dp.random_band_limited(chart, dp.substream(9, "x"), amplitude=2.0, mean=1.0)
    u2 = dp.random_band_limited(chart, dp.substream(9, "x"), amplitude=2.0, mean=1.0)
    assert np.array_equal(u1.values, u2.values)
    spectrum = np.fft.fft(u1.values - 1.0)
    high = np.abs(np.fft.fftfreq(64, d=1 / 64)) > 16
    assert np.max(np.abs(spectrum[high])) <= 1e-10
    assert np.max(np.abs(u1.values - 1.0)) == pytest.approx(2.0, rel=1e-12)


STACK_CHARTS = ([64], [12, 8], [8, 6, 4])


@pytest.mark.parametrize("sizes", STACK_CHARTS)
def test_stacked_band_limited_builder_equals_per_field(sizes):
    from doublephase.grid import random_band_limited_values

    chart, _ = dp.build_torus(len(sizes), sizes)
    amps = [0.1 * (i + 1) for i in range(5)]
    stack = random_band_limited_values(chart, [dp.substream(3, "stack", i) for i in range(5)], amps, mean=0.4)
    assert stack.shape == (5,) + chart.shape
    for i, amp in enumerate(amps):
        alone = dp.random_band_limited(chart, dp.substream(3, "stack", i), amplitude=amp, mean=0.4)
        assert stack[i].tobytes() == alone.values.tobytes()


@pytest.mark.parametrize("sizes", STACK_CHARTS)
def test_random_band_limited_values_are_two_sequential_draws(sizes):
    # one generator call draws the real parts, then the imaginary parts, as
    # two standard_normal(shape) calls in turn; the stream goes on unchanged
    from doublephase.grid import band_limited_values, random_band_limited_values

    chart, _ = dp.build_torus(len(sizes), sizes)
    shape = chart.shape
    rng, ref = dp.substream(11, "coef", shape), dp.substream(11, "coef", shape)
    vals = random_band_limited_values(chart, [rng], [0.7], mean=0.2)
    real = ref.standard_normal(shape)
    imag = ref.standard_normal(shape)
    want = band_limited_values(chart, np.stack((real, imag))[None], [0.7], mean=0.2)
    assert vals.shape == (1,) + shape
    assert vals.tobytes() == want.tobytes()
    assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()


def test_band_limited_amplitude_and_mean_are_keyword_only():
    chart, _ = dp.build_torus(1, [16])
    with pytest.raises(TypeError):
        dp.random_band_limited(chart, dp.substream(3, "kw"), 0.25)


@pytest.mark.parametrize("sizes", STACK_CHARTS)
def test_stacked_gradient_values_equal_per_field(sizes):
    from doublephase.grid import gradient_values

    chart, _ = dp.build_torus(len(sizes), sizes, spacings=[0.3 + 0.1 * a for a in range(len(sizes))])
    stack = dp.substream(4, "grad").standard_normal((3, 2) + chart.shape)
    grads = gradient_values(stack, chart)
    assert grads.shape == stack.shape + (chart.dim,)
    for idx in np.ndindex(3, 2):
        assert grads[idx].tobytes() == gradient_values(stack[idx], chart).tobytes()


def test_band_filter_keeps_low_modes():
    chart, _ = dp.build_torus(1, [64])
    x = chart.axis_coords(0)
    vals = np.sin(2 * np.pi * x) + np.cos(2 * np.pi * 30 * x)
    out = dp.band_filter(vals, chart)
    assert np.allclose(out, np.sin(2 * np.pi * x), atol=1e-12)


def test_spectral_tables_are_cached_and_read_only():
    from doublephase.grid import _spectrum

    chart, _ = dp.build_torus(2, [8, 12])
    tables = _spectrum(chart)
    assert _spectrum(chart) is tables
    modes, mask, stencil = tables
    for arr in (*modes, mask, *stencil):
        with pytest.raises(ValueError):
            arr[(0, 0)] = 1


def test_stencil_factors_are_the_central_difference_symbol():
    from doublephase.grid import _spectrum, central_difference

    chart, _ = dp.build_torus(3, [8, 12, 6], spacings=(0.3, 0.1, 0.7))
    u = dp.substream(4, "stencil").standard_normal(chart.shape)
    _, _, stencil = _spectrum(chart)
    for a, s_a in enumerate(stencil):
        expected = np.fft.ifftn(1j * s_a * np.fft.fftn(u)).real
        assert np.allclose(central_difference(u, chart, a), expected, atol=1e-12)


def test_metric_symbol_is_the_mean_metric_central_difference_laplacian():
    from doublephase.grid import central_difference, metric_symbol

    g = np.array([[1.5, 0.2, -0.1], [0.2, 1.0, 0.3], [-0.1, 0.3, 0.8]])
    chart, metric = dp.build_torus(3, [8, 12, 6], metric_spec=g, spacings=(0.3, 0.1, 0.7))
    u = dp.substream(5, "symbol").standard_normal(chart.shape)
    g_inv = np.linalg.inv(g)
    laplacian = -sum(
        g_inv[a, b] * central_difference(central_difference(u, chart, b), chart, a)
        for a in range(3)
        for b in range(3)
    )
    got = np.fft.ifftn(metric_symbol(metric) * np.fft.fftn(u)).real
    assert np.allclose(got, laplacian, atol=1e-10 * np.max(np.abs(laplacian)))


def test_metric_symbol_on_the_identity_is_the_sum_of_squared_stencils():
    from doublephase.grid import _spectrum, metric_symbol

    chart, metric = dp.build_torus(2, [8, 12], spacings=(0.3, 0.1))
    _, _, stencil = _spectrum(chart)
    assert metric_symbol(metric).tobytes() == sum(s_a**2 for s_a in stencil).tobytes()


def test_chart_counts_are_the_products_of_sizes_and_spacings():
    for sizes, spacings in (([64], [1 / 64]), ([12, 8], [0.3, 0.1]), ([8, 12, 6], [0.3, 0.1, 0.7])):
        chart = dp.Chart(dim=len(sizes), sizes=sizes, spacings=spacings)
        assert chart.n_nodes == int(np.prod(chart.sizes))
        assert chart.cell_volume == float(np.prod(chart.spacings))
        # computed when the chart is built, not on every read
        assert vars(chart)["n_nodes"] == chart.n_nodes
        assert vars(chart)["cell_volume"] == chart.cell_volume


def _pairing_metrics():
    g2 = np.array([[1.0, 0.3], [0.3, 2.0]])
    g3 = np.array([[1.5, 0.2, -0.1], [0.2, 1.0, 0.3], [-0.1, 0.3, 0.8]])
    for dim, sizes, g in ((1, [64], np.eye(1)), (2, [16, 12], g2), (3, [8, 12, 6], g3)):
        yield f"{dim}d-constant", dp.build_torus(dim, sizes, metric_spec=g)[1]
        # a per-node table: the constant metric plus a positive semidefinite bump
        base = 0.2 * dp.substream(13, "pairing", dim).standard_normal(tuple(sizes) + (dim, dim))
        table = g + np.einsum("...ab,...cb->...ac", base, base)
        yield f"{dim}d-per-node", dp.build_torus(dim, sizes, metric_spec=table)[1]


@pytest.mark.parametrize("name, metric", [pytest.param(n, m, id=n) for n, m in _pairing_metrics()])
def test_metric_pairing_is_bitwise_the_einsum(name, metric):
    from doublephase.grid import metric_pairing, norm_g_values

    chart = metric.chart
    rng = dp.substream(14, "pairing", name)
    for lead in ((), (3,)):
        v = rng.standard_normal(lead + chart.shape + (chart.dim,))
        w = rng.standard_normal(v.shape)
        want = np.einsum("...ab,...a,...b->...", metric.inv, v, w)
        assert metric_pairing(metric, v, w).tobytes() == want.tobytes()
        quad = np.einsum("...ab,...a,...b->...", metric.inv, v, v)
        assert norm_g_values(v, metric).tobytes() == np.sqrt(np.maximum(quad, 0.0)).tobytes()


@pytest.mark.parametrize("sizes", STACK_CHARTS)
def test_gradient_adjoint_is_the_transpose_of_the_gradient(sizes):
    from doublephase.grid import gradient_adjoint_values, gradient_values

    chart, _ = dp.build_torus(len(sizes), sizes, spacings=[0.3 + 0.1 * a for a in range(len(sizes))])
    rng = dp.substream(15, "adjoint")
    u = rng.standard_normal(chart.shape)
    flux = rng.standard_normal(chart.shape + (chart.dim,))
    lhs = np.sum(gradient_values(u, chart) * flux)
    rhs = np.sum(u * gradient_adjoint_values(flux, chart))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


_G2 = np.array([[1.0, 0.3], [0.3, 2.0]])
_G3 = np.array([[1.5, 0.2, -0.1], [0.2, 1.0, 0.3], [-0.1, 0.3, 0.8]])
# (id, sizes, spec, the spec's one tensor)
_CONSTANT_SPECS = (
    ("identity-1d", [64], "identity", np.eye(1)),
    ("scalar-1d", [64], 4.0, np.array([[4.0]])),
    ("identity-2d", [12, 8], "identity", np.eye(2)),
    ("scalar-2d", [12, 8], 2.5, 2.5 * np.eye(2)),
    ("matrix-2d", [12, 8], _G2, _G2),
    ("identity-3d", [8, 6, 4], "identity", np.eye(3)),
    ("matrix-3d", [8, 6, 4], _G3, _G3),
)


def _instance(chart, metric):
    x = chart.coords()[0]
    return dp.ProblemInstance(
        chart=chart,
        metric=metric,
        exponents=dp.ExponentField(
            p=chart.field(3.0 + 0.3 * np.sin(2 * np.pi * x)), q=chart.field(1.7 + 0.1 * np.cos(2 * np.pi * x))
        ),
        weight=dp.WeightField(mu=chart.constant(1.5)),
        lam=0.3,
        nonlinearity=dp.PowerNonlinearity(beta=4.0, amplitude=chart.constant(1.0)),
    )


@pytest.mark.parametrize("name, sizes, spec, tensor", _CONSTANT_SPECS, ids=[c[0] for c in _CONSTANT_SPECS])
def test_constant_metric_is_stored_once_and_bitwise_its_table(name, sizes, spec, tensor):
    chart, metric = dp.build_torus(len(sizes), sizes, spec)
    n = chart.dim
    table = dp.MetricField.from_spec(chart, np.broadcast_to(tensor, chart.shape + (n, n)).copy())
    for field in ("inv", "sqrt_det"):
        stored, per_node = getattr(metric, field), getattr(table, field)
        assert not stored.flags.writeable
        assert stored.strides[:n] == (0,) * n
        assert stored.shape == per_node.shape and stored.tobytes() == per_node.tobytes()
    u = dp.random_band_limited(chart, dp.substream(17, "stored-once", name), amplitude=1.0, mean=0.2)
    results = []
    for m in (metric, table):
        P = _instance(chart, m)
        r, norm = dp.residual_gradient(P, u, truncated=True)
        results.append((dp.energy(P, u, truncated=True).to_dict(), r.values.tobytes(), norm))
    assert results[0] == results[1]


def test_constant_metric_build_allocates_no_node_tables():
    import tracemalloc

    tracemalloc.start()
    try:
        dp.build_torus(3, [32] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _flux_metrics(dims):
    for dim, sizes, g in ((1, [64], np.array([[2.5]])), (2, [16, 12], _G2), (3, [8, 12, 6], _G3)):
        if dim not in dims:
            continue
        yield f"{dim}d-identity", dp.build_torus(dim, sizes)[1]
        yield f"{dim}d-constant", dp.build_torus(dim, sizes, metric_spec=g)[1]
        base = 0.2 * dp.substream(18, "flux", dim).standard_normal(tuple(sizes) + (dim, dim))
        table = g + np.einsum("...ab,...cb->...ac", base, base)
        yield f"{dim}d-per-node", dp.build_torus(dim, sizes, metric_spec=table)[1]


@pytest.mark.parametrize("name, metric", [pytest.param(n, m, id=n) for n, m in _flux_metrics((1, 2))])
def test_flux_divergence_is_bitwise_the_einsum_formula(name, metric):
    from doublephase.grid import flux_divergence, gradient_adjoint_values

    chart = metric.chart
    rng = dp.substream(19, "flux", name)
    for lead in ((), (3,)):
        v = rng.uniform(-1e3, 1e3, lead + chart.shape + (chart.dim,))
        coef = rng.uniform(0.1, 10.0, lead + chart.shape)
        flux = np.einsum("...ab,...b->...a", metric.inv, v)
        want = gradient_adjoint_values(coef[..., None] * flux, chart)
        assert flux_divergence(metric, coef, v).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, metric", [pytest.param(n, m, id=n) for n, m in _flux_metrics((3,))])
def test_flux_divergence_is_the_adjoint_of_the_weighted_gradient_pairing(name, metric):
    from doublephase.grid import flux_divergence, gradient_values, metric_pairing

    chart = metric.chart
    rng = dp.substream(20, "flux", name)
    v = rng.uniform(-1e3, 1e3, chart.shape + (chart.dim,))
    coef = rng.uniform(0.1, 10.0, chart.shape)
    phi = rng.standard_normal(chart.shape)
    lhs = math.fsum((flux_divergence(metric, coef, v) * phi).ravel())
    rhs = math.fsum((coef * metric_pairing(metric, v, gradient_values(phi, chart))).ravel())
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("name, metric", [pytest.param(n, m, id=n) for n, m in _flux_metrics((1, 2, 3))])
def test_metric_symbol_is_bitwise_the_whole_table_node_mean(name, metric):
    from doublephase.grid import _spectrum, metric_symbol, pairwise_sum_rows

    chart, dim = metric.chart, metric.chart.dim
    g_bar = pairwise_sum_rows(metric.inv.reshape(-1, dim * dim).T).reshape(dim, dim) / chart.n_nodes
    s = _spectrum(chart)[2]
    want = sum(g_bar[a, b] * s[a] * s[b] for a in range(dim) for b in range(dim))
    assert metric_symbol(metric).tobytes() == want.tobytes()


def test_metric_symbol_does_not_copy_the_metric_table():
    import tracemalloc

    from doublephase.grid import metric_symbol

    _, metric = dp.build_torus(3, [32] * 3)
    metric_symbol(metric)
    tracemalloc.start()
    try:
        metric_symbol(metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the symbol itself is 2**18 B; the (32^3, 3, 3) table would be 2.25 MiB
    assert peak <= 2**19
