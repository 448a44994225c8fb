"""Text round-trip format for grid fields and metric tables.

Layout::

    nehari-field v1            (or "nehari-field v1 metric")
    dim 2 sizes 32 32
    <value>                    (one node per line, row-major)

Scalars are written with 17 significant digits so a write/read cycle is
bit-identical. Metric lines carry the n(n+1)/2 upper-triangle entries of the
node tensor, row-major. Every value must be finite, and every read error
names the file and the line.
"""

from __future__ import annotations

import numpy as np

from .grid import Chart, MetricField, ScalarField

__all__ = ["FieldFormatError", "read_field", "write_field", "read_metric"]

MAGIC = "nehari-field v1"


class FieldFormatError(ValueError):
    """Malformed field file; message is anchored as path:line."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_header(lines, path, metric: bool):
    if not lines:
        raise FieldFormatError(f"{path}:1: empty file")
    head = lines[0].strip()
    want = MAGIC + (" metric" if metric else "")
    if head != want:
        raise FieldFormatError(f"{path}:1: expected header {want!r}, got {head!r}")
    if len(lines) < 2:
        raise FieldFormatError(f"{path}:2: missing 'dim n sizes ...' line")
    parts = lines[1].split()
    if len(parts) < 4 or parts[0] != "dim" or parts[2] != "sizes":
        raise FieldFormatError(f"{path}:2: expected 'dim n sizes s1 ...', got {lines[1].strip()!r}")
    try:
        dim = int(parts[1])
        sizes = tuple(int(p) for p in parts[3:])
    except ValueError as exc:
        raise FieldFormatError(f"{path}:2: {exc}") from exc
    if len(sizes) != dim:
        raise FieldFormatError(f"{path}:2: dim {dim} but {len(sizes)} sizes given")
    return dim, sizes


def write_field(path, field: ScalarField):
    chart = field.chart
    with open(path, "w") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"dim {chart.dim} sizes " + " ".join(str(s) for s in chart.sizes) + "\n")
        for v in field.values.ravel():
            fh.write(_fmt(v) + "\n")


def _read(path, chart: Chart, metric: bool) -> np.ndarray:
    """The (nodes, width) finite values of a field file whose header matches ``chart``.

    Every non-blank line after the header is one node's row: 1 value for a
    field, n(n+1)/2 for a metric table. Each malformed row is an error at
    ``path:line``.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FieldFormatError(f"{path}: {exc.strerror or exc}") from exc
    dim, sizes = _parse_header(lines, path, metric)
    if chart.dim != dim or chart.sizes != sizes:
        raise FieldFormatError(
            f"{path}:2: file grid dim={dim} sizes={sizes} does not match chart "
            f"dim={chart.dim} sizes={chart.sizes}"
        )
    n_nodes = chart.n_nodes
    width = dim * (dim + 1) // 2 if metric else 1
    unit = "rows" if metric else "values"
    rows = np.empty((n_nodes, width))
    row = 0
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            continue
        if row >= n_nodes:
            raise FieldFormatError(f"{path}:{lineno}: more {unit} than {n_nodes} nodes")
        if len(parts) != width:
            raise FieldFormatError(f"{path}:{lineno}: expected {width} values per row, got {len(parts)}")
        try:
            rows[row] = [float(p) for p in parts]
        except ValueError as exc:
            raise FieldFormatError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(rows[row]).all():
            raise FieldFormatError(f"{path}:{lineno}: non-finite value in {line.strip()!r}")
        row += 1
    if row != n_nodes:
        raise FieldFormatError(f"{path}:{len(lines)}: expected {n_nodes} {unit}, got {row}")
    return rows


def read_field(path, chart: Chart) -> ScalarField:
    """Read a scalar field on ``chart``; the file's grid must match it."""
    return chart.field(_read(path, chart, metric=False).reshape(chart.shape))


def symmetric_from_upper(tri, dim: int) -> np.ndarray:
    """Symmetric (..., dim, dim) tensors from their row-major upper-triangle entries (..., dim(dim+1)/2)."""
    g = np.zeros(np.shape(tri)[:-1] + (dim, dim))
    g[(...,) + np.triu_indices(dim)] = tri
    diag = np.zeros_like(g)
    i = np.arange(dim)
    diag[..., i, i] = g[..., i, i]
    return g + np.swapaxes(g, -1, -2) - diag


def read_metric(path, chart: Chart) -> MetricField:
    """Read a metric table on ``chart``; the file's grid must match it."""
    dim = chart.dim
    g = symmetric_from_upper(_read(path, chart, metric=True), dim)
    return MetricField.from_spec(chart, g.reshape(chart.shape + (dim, dim)))
