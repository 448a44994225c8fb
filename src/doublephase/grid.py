"""Periodic metric grids: charts, fields, quadrature, difference operators.

Everything is dimension-generic (1 to 3 axes) and periodic, so a grid models
a flat or curved-metric torus. All reductions go through ``pairwise_sum_rows``
(or its one-row case ``pairwise_sum``), whose summation order depends only
on the row length: rows of at least ``REDUCE_MIN_LEN`` values are summed by
numpy's compiled pairwise reduction, shorter rows by a binary tree. So every
row of a stack sums bitwise to its one-row sum, and results are
bit-reproducible at a fixed thread count. The one exception lives outside
this module: the ray profile in ``nehari`` groups node coefficients by
exponent value with ``np.bincount``, a sequential sum in node order that is
just as reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Chart",
    "MetricField",
    "ScalarField",
    "VectorField",
    "build_torus",
    "gradient",
    "grad_norm_g",
    "integrate",
    "pairwise_sum",
    "pairwise_sum_rows",
    "random_band_limited",
    "band_filter",
    "substream",
]


# Rows this long or longer are summed by ``np.add.reduce``, shorter ones by
# ``_pairwise_tree``: numpy's reduction has a per-row cost that the tree,
# vectorised across rows, beats on many short rows.
REDUCE_MIN_LEN = 32


def pairwise_sum(values) -> float:
    """Sum of all values: ``pairwise_sum_rows`` of the flattened array as one row.

    The order depends only on the number of values: numpy's compiled
    pairwise reduction from ``REDUCE_MIN_LEN`` values on, a binary tree below
    that. A row of any stack sums bitwise to this one-row sum.
    """
    return float(pairwise_sum_rows(np.ravel(values)))


def pairwise_sum_rows(values) -> np.ndarray:
    """Sum of every row along the last axis, in an order set by the row length.

    A row of at least ``REDUCE_MIN_LEN`` values is summed by numpy's compiled
    pairwise reduction (eight running sums per block of at most 128 values,
    blocks split in halves), run on a C-contiguous copy so that each row is
    one inner loop. A shorter row is summed by a binary tree: adjacent
    elements are paired on every round, an odd trailing element is carried
    over unchanged. Either way the order depends only on the row length, so
    each row's sum is bitwise equal to ``pairwise_sum`` of that row alone,
    whatever the stack's shape or strides and however BLAS is threaded.
    Rows of length 0 sum to 0.
    """
    a = np.asarray(values, dtype=float)
    if a.shape[-1] >= REDUCE_MIN_LEN:
        return np.add.reduce(np.ascontiguousarray(a), axis=-1)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return _pairwise_tree(a.T).T


# every pass over a stack runs in blocks of at most this many values per
# temporary: (ray, node) values when a ray profile is built or census samples
# are drawn, (ray, t, term) products when rays are probed or refined; this
# bounds the memory of large stacks and of variable exponents
BLOCK = 2**11


def blocks(n: int, item_size: int) -> list:
    """Slices of ``range(n)`` in order, each of at most ``BLOCK // item_size`` items and at least one.

    ``n = 0`` gives one empty slice, so a blocked pass over an empty stack runs once.
    """
    step = max(1, BLOCK // item_size)
    return [slice(b, min(b + step, n)) for b in range(0, max(n, 1), step)]


def _pairwise_tree(a: np.ndarray):
    """The short-row tree of ``pairwise_sum_rows`` along the first axis of a nonempty array."""
    n = len(a)
    while n > 1:
        even = n & ~1
        paired = a[0:even:2] + a[1:even:2]
        if n & 1:
            paired = np.concatenate((paired, a[-1:]))
        a, n = paired, len(paired)
    return a[0]


def substream(seed, *path) -> np.random.Generator:
    """Independent counter-based generator for ``(seed, *path)``.

    Path components are hashed with blake2s, so strings and ints give stable
    entropy regardless of PYTHONHASHSEED. Built on Philox, so substreams are
    statistically independent and cheap to spawn.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        digest = hashlib.blake2s(repr(part).encode(), digest_size=8).digest()
        entropy.append(int.from_bytes(digest, "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class Chart:
    """Uniform periodic grid on [0, L_1) x ... x [0, L_n), n in {1, 2, 3}."""

    dim: int
    sizes: tuple
    spacings: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "spacings", tuple(float(h) for h in self.spacings))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.sizes) != self.dim or len(self.spacings) != self.dim:
            raise ValueError("sizes and spacings must have one entry per axis")
        if any(s < 4 for s in self.sizes):
            raise ValueError(f"need at least 4 nodes per axis, got sizes={self.sizes}")
        if not all(math.isfinite(h) and h > 0 for h in self.spacings):
            raise ValueError(f"spacings must be finite and positive, got {self.spacings}")
        # plain attributes, not fields: the norm loops read them per solve
        object.__setattr__(self, "n_nodes", int(np.prod(self.sizes)))
        object.__setattr__(self, "cell_volume", float(np.prod(self.spacings)))

    @property
    def shape(self):
        return self.sizes

    @property
    def lengths(self):
        return tuple(s * h for s, h in zip(self.sizes, self.spacings))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.sizes[axis]) * self.spacings[axis]

    def coords(self):
        """Node coordinate arrays, one (broadcast to shape) per axis."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def field(self, values) -> "ScalarField":
        return ScalarField(np.asarray(values, dtype=float), self)

    def constant(self, c: float) -> "ScalarField":
        return self.field(np.full(self.shape, float(c)))


@dataclass(frozen=True)
class ScalarField:
    """One real value per node of a chart."""

    values: np.ndarray
    chart: Chart

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.chart.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match chart {self.chart.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # computed on first use and kept: every norm taken in this field as its exponent reads them
    @cached_property
    def extrema(self) -> tuple:
        """(min, max) of the values, as floats."""
        return float(np.minimum.reduce(self.values, axis=None)), float(np.maximum.reduce(self.values, axis=None))


@dataclass(frozen=True)
class VectorField:
    """Chart-coordinate components, stored as (*shape, dim)."""

    components: np.ndarray
    chart: Chart

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        if comp.shape != self.chart.shape + (self.chart.dim,):
            raise ValueError(
                f"components shape {comp.shape} does not match chart "
                f"{self.chart.shape} with dim {self.chart.dim}"
            )
        if not np.all(np.isfinite(comp)):
            raise ValueError("vector field contains non-finite values")
        comp = comp.copy()
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)


@dataclass(frozen=True)
class MetricField:
    """A symmetric positive-definite metric as the energy reads it: the read-only
    inverse g^{ab} ``inv``, (*shape, n, n), and density sqrt(det g) ``sqrt_det``, (*shape,).
    A constant metric stores both as ``np.broadcast_to`` views, zero strides on the chart axes."""

    sqrt_det: np.ndarray
    inv: np.ndarray
    chart: Chart

    def __post_init__(self):
        for name in ("sqrt_det", "inv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # computed on first use and kept: every unweighted Luxemburg norm adds it to its log terms
    @cached_property
    def log_volume(self) -> np.ndarray:
        """Read-only log(sqrt(det g) * cell volume), (*shape,): the log volume element of every node."""
        out = np.log(self.sqrt_det * self.chart.cell_volume)
        out.setflags(write=False)
        return out

    @classmethod
    def from_spec(cls, chart: Chart, spec="identity") -> "MetricField":
        """Build a metric from "identity", a scalar, a constant SPD matrix, or a
        per-node (*shape, n, n) table; a constant is checked, inverted and
        reduced to its determinant as its one (n, n) tensor, a table per node."""
        n = chart.dim
        if isinstance(spec, str):
            if spec != "identity":
                raise ValueError(f"unknown metric spec {spec!r}")
            g = np.eye(n)
        else:
            g = np.asarray(spec, dtype=float)
            if g.ndim == 0:
                g = float(g) * np.eye(n)
            elif g.shape not in ((n, n), chart.shape + (n, n)):
                raise ValueError(f"metric spec shape {g.shape} not understood for dim {n}")
        if not np.all(np.isfinite(g)):
            raise ValueError("metric tensor contains non-finite values")
        sym_gap = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
        if sym_gap > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
            raise ValueError("metric tensor must be symmetric at every node")
        min_eig = np.linalg.eigvalsh(g).min(axis=-1)
        if np.any(min_eig <= 0):
            bad = np.argwhere(np.broadcast_to(min_eig <= 0, chart.shape))[0]
            raise ValueError(
                f"metric is not positive definite at node {tuple(int(i) for i in bad)}"
            )
        sqrt_det = np.broadcast_to(np.sqrt(np.linalg.det(g)), chart.shape)
        inv = np.broadcast_to(np.linalg.inv(g), chart.shape + (n, n))
        return cls(sqrt_det=sqrt_det, inv=inv, chart=chart)


def build_torus(dim, sizes, metric_spec="identity", spacings=None):
    """Periodic chart plus metric. Default spacings give the unit torus."""
    sizes = tuple(int(s) for s in np.atleast_1d(sizes))
    if spacings is None:
        spacings = tuple(1.0 / s for s in sizes)
    chart = Chart(dim=dim, sizes=sizes, spacings=tuple(spacings))
    metric = MetricField.from_spec(chart, metric_spec)
    return chart, metric


def central_difference(vals: np.ndarray, chart: Chart, axis: int) -> np.ndarray:
    """Periodic central difference along one chart axis, second order in h.

    The one difference stencil of the package: ``gradient`` stacks it over
    the axes, and ``gradient_adjoint_values`` (it is its own negative
    adjoint on the periodic grid) sums it as the discrete divergence. The chart
    axes are the trailing ones, so ``vals`` may carry leading stack axes.
    """
    h = chart.spacings[axis]
    axis -= chart.dim
    return (np.roll(vals, -1, axis=axis) - np.roll(vals, 1, axis=axis)) / (2.0 * h)


def gradient_values(vals: np.ndarray, chart: Chart) -> np.ndarray:
    """Raw-array core of ``gradient``: components as (*vals.shape, dim), unchecked.

    Leading axes of ``vals`` before the chart shape are a stack of fields.
    """
    comps = np.empty(vals.shape + (chart.dim,))
    for a in range(chart.dim):
        comps[..., a] = central_difference(vals, chart, a)
    return comps


def gradient_adjoint_values(comps: np.ndarray, chart: Chart) -> np.ndarray:
    """The adjoint of ``gradient_values``: minus the discrete divergence of (..., *shape, dim) components."""
    return -sum(central_difference(comps[..., a], chart, a) for a in range(chart.dim))


def metric_pairing(metric: MetricField, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g^{ab} v_a w_b per node for (..., *shape, dim) components: the products
    (g^{ab} v_a) w_b summed over a, then b, which is bitwise
    ``np.einsum("...ab,...a,...b->...")`` and faster in 2-D and 3-D."""
    dim, inv = metric.chart.dim, metric.inv
    return sum(inv[..., a, b] * v[..., a] * w[..., b] for a in range(dim) for b in range(dim))


def flux_divergence(metric: MetricField, coef: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """-div(coef g^{ab} v_b) per node for (..., *shape, dim) components v: the index
    raised by the products g^{ab} v_b summed over b, as in ``metric_pairing``,
    then ``gradient_adjoint_values`` of the flux, the adjoint of the gradient."""
    dim, inv = metric.chart.dim, metric.inv
    flux = np.stack([coef * sum(inv[..., a, b] * comps[..., b] for b in range(dim)) for a in range(dim)], axis=-1)
    return gradient_adjoint_values(flux, metric.chart)


def norm_g_values(comps: np.ndarray, metric: MetricField) -> np.ndarray:
    """Raw-array core of ``grad_norm_g``: sqrt(g^{ab} v_a v_b) per node, unchecked."""
    return np.sqrt(np.maximum(metric_pairing(metric, comps, comps), 0.0))


def gradient(u: ScalarField) -> VectorField:
    """Central differences with periodic wrap, second order in h."""
    return VectorField(gradient_values(u.values, u.chart), u.chart)


def grad_norm_g(v: VectorField, metric: MetricField) -> ScalarField:
    """Pointwise Riemannian norm sqrt(g^{ab} v_a v_b)."""
    if v.chart is not metric.chart and v.chart != metric.chart:
        raise ValueError("vector field and metric live on different charts")
    return v.chart.field(norm_g_values(v.components, metric))


def integrate(w: ScalarField, metric: MetricField) -> float:
    """Rectangle rule against the Riemannian volume element."""
    if w.chart != metric.chart:
        raise ValueError("field and metric live on different charts")
    return pairwise_sum(w.values * metric.sqrt_det) * w.chart.cell_volume


# the spectral band of every Fourier operation: modes |k_a| <= floor(n_a * MAX_MODE_FRAC) per axis
MAX_MODE_FRAC = 0.25


@lru_cache(maxsize=16)
def _spectrum(chart: Chart):
    """Read-only Fourier tables (modes, mask, stencil), built once per chart.

    modes holds the integer mode number k_a of every axis, as an array that
    varies along axis a only and broadcasts to the chart shape; mask keeps
    the band |k_a| <= floor(n_a * MAX_MODE_FRAC) on every axis; and stencil
    holds s_a = sin(2 pi k_a / n_a) / h_a per axis, shaped as k_a: the
    central difference multiplies mode k by i s_a.
    """
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in chart.shape]
    modes = tuple(np.meshgrid(*freqs, indexing="ij", sparse=True))
    mask = np.ones(chart.shape, dtype=bool)
    for k, n in zip(modes, chart.shape):
        mask &= np.abs(k) <= int(n * MAX_MODE_FRAC)
    stencil = tuple(np.sin(2.0 * np.pi * k / n) / h for k, n, h in zip(modes, chart.shape, chart.spacings))
    for arr in (*modes, mask, *stencil):
        arr.setflags(write=False)
    return modes, mask, stencil


def metric_symbol(metric: MetricField) -> np.ndarray:
    """sigma(k) = sum_ab g_bar^{ab} s_a s_b per Fourier mode, g_bar the node mean of ``metric.inv``.

    The symbol of the central-difference -div(g_bar grad): the mean-metric
    Laplacian that the descent filter and the Poincare ascent invert. Each
    component is summed on its own, so a constant metric's broadcast table
    is never copied whole, and the symbol is the only array of the chart's
    size it allocates.
    """
    chart = metric.chart
    dim = chart.dim
    g_bar = np.array([[pairwise_sum(metric.inv[..., a, b]) for b in range(dim)] for a in range(dim)]) / chart.n_nodes
    s = _spectrum(chart)[2]
    sigma = np.zeros(chart.shape)
    for a in range(dim):
        for b in range(dim):
            sigma += g_bar[a, b] * s[a] * s[b]
    return sigma


def band_filter(values: np.ndarray, chart: Chart) -> np.ndarray:
    """Fourier truncation to the band |k_a| <= floor(n_a * MAX_MODE_FRAC) per axis."""
    return np.fft.ifftn(np.fft.fftn(values) * _spectrum(chart)[1]).real


def random_band_limited(
    chart: Chart,
    rng: np.random.Generator,
    *,
    amplitude: float = 1.0,
    mean: float = 0.0,
) -> ScalarField:
    """Random smooth field on the band |k_a| <= floor(n_a * MAX_MODE_FRAC) per axis.

    The oscillating part has (near) zero mean and peak amplitude
    ``amplitude``; ``mean`` is added afterwards. The one-field case of
    ``random_band_limited_values``.
    """
    return chart.field(random_band_limited_values(chart, (rng,), (amplitude,), mean=mean)[0])


def random_band_limited_values(chart: Chart, rngs, amplitudes, *, mean: float = 0.0) -> np.ndarray:
    """Raw-array core of ``random_band_limited``: one field per generator, stacked.

    Field i draws its coefficients from ``rngs[i]`` alone and has peak
    oscillation ``amplitudes[i]``; one inverse FFT over the trailing chart
    axes serves the whole (len(rngs), *shape) stack, and each field is
    bitwise the one a single-field call gives.
    """
    coef = np.empty((len(rngs),) + chart.shape, dtype=complex)
    for i, rng in enumerate(rngs):
        coef[i] = normal_coefficients(rng, chart.shape)
    return band_limited_values(chart, coef, amplitudes, mean=mean)


def normal_coefficients(rng: np.random.Generator, shape) -> np.ndarray:
    """The complex normal coefficients of one random band-limited field: real parts drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def band_limited_values(chart: Chart, coef: np.ndarray, amplitudes, *, mean: float = 0.0) -> np.ndarray:
    """Random band-limited fields from their (fields, *shape) ``normal_coefficients``.

    Coefficients outside the band and of the zero mode are dropped, the
    others are damped by 1 / (1 + |k|^2); one inverse FFT serves the stack,
    and field i is scaled to peak oscillation ``amplitudes[i]``.
    """
    modes, mask, _ = _spectrum(chart)
    coef = np.where(mask, coef / (1.0 + sum(k**2 for k in modes)), 0.0)
    coef[(Ellipsis,) + (0,) * chart.dim] = 0.0
    axes = tuple(range(-chart.dim, 0))
    u = np.fft.ifftn(coef, axes=axes).real
    peaks = np.abs(u).max(axis=axes).tolist()
    scale = [amp / peak if peak > 0 else 1.0 for amp, peak in zip(amplitudes, peaks)]
    return u * np.reshape(scale, (-1,) + (1,) * chart.dim) + mean
