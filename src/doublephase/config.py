"""Plain-text run configuration: sections of key = value pairs.

Field specs (exponents, weight, source amplitude) are strings:

    constant 2.0
    affine 2.0  0.3 [0.1 [0.2]]     (base plus slope per axis)
    fourier 2.5  0 1 0.0 0.3  [axis k cos_amp sin_amp ...]
    file PATH                        (grid field file)

Fourier terms use the axis period, so specs built from them are smooth and
periodic. The metric spec is "identity", "constant g11 [g12 g22 ...]"
(upper triangle), or "file PATH" for a per-node table.
"""

from __future__ import annotations

import configparser
import math
import re

import numpy as np

from .fieldio import read_field, read_metric, symmetric_from_upper
from .grid import Chart, MetricField, ScalarField, master_seed
from .problem import PowerNonlinearity, ProblemInstance, check_superlinearity
from .solver import SolverConfig
from .spaces import MIN_TRIALS, ExponentField, WeightField

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "field_from_spec",
    "default_config_text",
]


class ConfigError(ValueError):
    """Bad configuration; message carries path:line when determinable."""


def _option_line(text: str, section: str, option: str | None = None) -> int:
    """Line of an option inside a section; of the section header when the
    option is None or absent; 0 when the section is absent too."""
    current, header = None, 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current == section and not header:
                header = lineno
        elif current == section and re.split("[=:]", stripped)[0].strip().lower() == option:
            return lineno
    return header


class RunConfig:
    """The problem parts a configuration builds, its run settings, and the
    raw text echo for artifacts. ``lambda_grid`` is the strictly increasing
    grid, or the point count N of ``auto N``."""

    __slots__ = ("chart", "metric", "exponents", "weight", "nonlinearity", "path", "echo", "solver", "lam",
                 "lambda_grid", "seed", "verify_trials", "constants_trials")

    def __init__(
        self,
        chart: Chart,
        metric: MetricField,
        exponents: ExponentField,
        weight: WeightField,
        nonlinearity: PowerNonlinearity,
        path: str,
        echo: dict,
        solver: dict,
        lam: float | None = None,
        lambda_grid: tuple | int | None = None,
        seed: int = 0,
        verify_trials: int = 200,
        constants_trials: int = 200,
    ):
        self.chart = chart
        self.metric = metric
        self.exponents = exponents
        self.weight = weight
        self.nonlinearity = nonlinearity
        self.path = path
        self.echo = echo
        self.solver = solver
        self.lam = lam
        self.lambda_grid = lambda_grid
        self.seed = seed
        self.verify_trials = verify_trials
        self.constants_trials = constants_trials

    def build_instance(self, lam: float | None = None) -> ProblemInstance:
        lam = self.lam if lam is None else lam
        if lam is None:
            raise ConfigError(f"{self.path}: [problem] lambda is required for this command")
        return ProblemInstance(
            chart=self.chart,
            metric=self.metric,
            exponents=self.exponents,
            weight=self.weight,
            lam=float(lam),
            nonlinearity=self.nonlinearity,
        )

    def build_solver_config(self) -> SolverConfig:
        return SolverConfig(**self.solver, seed=self.seed, constants_trials=self.constants_trials)


def _metric_from_spec(spec: str, chart: Chart) -> MetricField:
    if spec.startswith("constant"):
        vals = [float(tok) for tok in spec.split()[1:]]
        need = chart.dim * (chart.dim + 1) // 2
        if len(vals) == 1:
            return MetricField.from_spec(chart, vals[0])
        if len(vals) != need:
            raise ConfigError(f"metric 'constant' needs 1 or {need} values, got {len(vals)}")
        return MetricField.from_spec(chart, symmetric_from_upper(vals, chart.dim))
    if spec.startswith("file"):
        return read_metric(_file_path(spec), chart)
    # "identity", or an unknown spec that from_spec rejects
    return MetricField.from_spec(chart, spec)


def field_from_spec(spec: str, chart: Chart) -> ScalarField:
    tokens = spec.split()
    if not tokens:
        raise ConfigError("empty field spec")
    kind = tokens[0]
    if kind == "constant":
        if len(tokens) != 2:
            raise ConfigError(f"'constant' spec needs one value: {spec!r}")
        return chart.constant(float(tokens[1]))
    if kind == "affine":
        vals = [float(t) for t in tokens[1:]]
        if len(vals) != 1 + chart.dim:
            raise ConfigError(
                f"'affine' spec needs base plus {chart.dim} slopes: {spec!r}"
            )
        out = np.full(chart.shape, vals[0])
        for a, slope in enumerate(vals[1:]):
            out = out + slope * chart.coords()[a]
        return chart.field(out)
    if kind == "fourier":
        vals = tokens[1:]
        if not vals or (len(vals) - 1) % 4 != 0:
            raise ConfigError(
                f"'fourier' spec needs a base then (axis k cos sin) groups: {spec!r}"
            )
        out = np.full(chart.shape, float(vals[0]))
        coords = chart.coords()
        lengths = chart.lengths
        for i in range(1, len(vals), 4):
            axis = int(vals[i])
            k = float(vals[i + 1])
            cos_amp = float(vals[i + 2])
            sin_amp = float(vals[i + 3])
            if not 0 <= axis < chart.dim:
                raise ConfigError(f"'fourier' axis {axis} out of range in {spec!r}")
            phase = 2.0 * math.pi * k * coords[axis] / lengths[axis]
            out = out + cos_amp * np.cos(phase) + sin_amp * np.sin(phase)
        return chart.field(out)
    if kind == "file":
        return read_field(_file_path(spec), chart)
    raise ConfigError(f"unknown field spec kind {kind!r} in {spec!r}")


def _file_path(spec: str) -> str:
    """The PATH of a ``file PATH`` spec."""
    parts = spec.split(None, 1)
    if len(parts) < 2:
        raise ConfigError(f"'file' spec needs a path: {spec!r}")
    return parts[1].strip()


def _truncation(raw: str) -> None:
    """The solver always truncates; configs may say so, and nothing else."""
    if raw.strip().lower() not in ("1", "true", "yes", "on"):
        raise ValueError(f"must be true (the solver always truncates), got {raw.strip()}")


def _positive(raw: str) -> None:
    """A positive number that nothing reads: the source amplitude threshold of older configs."""
    if not float(raw) > 0:
        raise ValueError(f"must be positive, got {raw.strip()}")


def _numbers(caster):
    """Caster of a whitespace-separated list of numbers."""
    return lambda raw: tuple(caster(t) for t in raw.split())


def _finite_positive(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be finite and positive, got {raw.strip()}")
    return value


def _count(least: int):
    """Caster of an integer of at least ``least``."""

    def cast(raw: str) -> int:
        value = int(raw)
        if value < least:
            raise ValueError(f"must be at least {least}, got {value}")
        return value

    return cast


def _lambda_grid(raw: str):
    """The point count N of ``auto [N]`` (N defaults to 8), else the strictly increasing grid."""
    tokens = raw.split()
    if tokens and tokens[0] == "auto":
        if len(tokens) > 2:
            raise ValueError(f"'auto' takes at most one point count, got {raw!r}")
        count = int(tokens[1]) if len(tokens) == 2 else 8
        if count < 1:
            raise ValueError(f"'auto' needs at least 1 point, got {count}")
        return count
    if not tokens:
        raise ValueError("needs at least one lambda")
    grid = tuple(_finite_positive(t) for t in tokens)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("must be strictly increasing")
    return grid


def _dimension(raw: str) -> int:
    value = int(raw)
    if value not in (1, 2, 3):
        raise ValueError(f"must be 1, 2 or 3, got {value}")
    return value


# section -> option -> (name, caster): every option parse_config reads and
# the only ones it accepts. A name is a RunConfig attribute or an input of
# the problem parts (_PARTS); [solver] options go to RunConfig.solver, and a
# name of None only checks the value
_OPTIONS = {
    "chart": {
        "dim": ("dim", _dimension),
        "sizes": ("sizes", _numbers(_count(1))),
        "spacings": ("spacings", _numbers(_finite_positive)),
        "metric": ("metric", str),
    },
    "exponents": {"p": ("p", str), "q": ("q", str)},
    "weight": {"mu": ("mu", str)},
    "nonlinearity": {
        "beta": ("beta", _finite_positive),
        "amplitude": ("amplitude", str),
        "a_threshold": (None, _positive),
    },
    "problem": {"lambda": ("lam", _finite_positive), "lambda_grid": ("lambda_grid", _lambda_grid)},
    "solver": {
        "truncate": (None, _truncation),
        "multistart": ("solver", _count(1)),
        "max_outer_iters": ("solver", _count(1)),
        "residual_tol": ("solver", _finite_positive),
    },
    "verify": {"trials": ("verify_trials", _count(1))},
    "constants": {"trials": ("constants_trials", _count(MIN_TRIALS))},
    "run": {"seed": ("seed", master_seed)},
}
# the inputs of the problem parts, with their values when a config omits them
_PARTS = {"dim": 1, "metric": "identity", "p": "constant 3.0", "q": "constant 2.0",
          "mu": "constant 1.0", "beta": 4.0, "amplitude": "constant 1.0"}


def parse_config(path: str | None = None, needs: str | None = None) -> RunConfig:
    """Parse a run configuration file and build its problem parts; without a
    path, the built-in defaults. ``needs`` names the [problem] option the command requires.

    Every error is one ConfigError that names the path and the line; a bad
    value, or a condition between values, reads
    ``path:line: [section] option: message``.
    """
    if path is None:
        path, text = "<builtin defaults>", default_config_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", 0) or 0
        raise ConfigError(f"{path}:{lineno}: {exc.message if hasattr(exc, 'message') else exc}") from exc

    def error(section, option, message):
        name = f"[{section}] {option}" if option else f"[{section}]"
        return ConfigError(f"{path}:{_option_line(text, section, option)}: {name}: {message}")

    def build(section, option, make, *args):
        try:
            return make(*args)
        except ValueError as exc:
            raise error(section, option, exc) from exc

    for section in ([parser.default_section] if parser.defaults() else []) + parser.sections():
        if section not in _OPTIONS:
            raise ConfigError(
                f"{path}:{_option_line(text, section)}: unknown section [{section}]; "
                "known sections: " + ", ".join(_OPTIONS)
            )
        for option in parser.options(section):
            if option not in _OPTIONS[section]:
                known = ", ".join(_OPTIONS[section])
                raise error(section, option, f"unknown option; known options: {known}")

    values, solver = dict(_PARTS), {}
    for section, options in _OPTIONS.items():
        for option, (name, caster) in options.items():
            if not parser.has_option(section, option):
                continue
            value = build(section, option, caster, parser.get(section, option))
            if name == "solver":
                solver[option] = value
            elif name is not None:
                values[name] = value

    dim = values.pop("dim")
    sizes = values.pop("sizes", (64,) * dim)
    spacings = values.pop("spacings", None) or tuple(1.0 / s for s in sizes)
    chart = build("chart", "sizes", Chart, dim, sizes, spacings)
    metric = build("chart", "metric", _metric_from_spec, values.pop("metric"), chart)
    p = build("exponents", "p", field_from_spec, values.pop("p"), chart)
    q = build("exponents", "q", field_from_spec, values.pop("q"), chart)
    exponents = build("exponents", None, ExponentField, p, q)
    mu = build("weight", "mu", field_from_spec, values.pop("mu"), chart)
    weight = build("weight", "mu", WeightField, mu)
    beta = values.pop("beta")
    build("nonlinearity", "beta", check_superlinearity, beta, exponents)
    amplitude = build("nonlinearity", "amplitude", field_from_spec, values.pop("amplitude"), chart)
    nonlinearity = build("nonlinearity", "amplitude", PowerNonlinearity, beta, amplitude)
    if needs is not None and not parser.has_option("problem", needs):
        raise error("problem", needs, "is required for this command")

    echo = {s: dict(parser.items(s)) for s in parser.sections()}
    return RunConfig(chart, metric, exponents, weight, nonlinearity, path, echo, solver, **values)


def default_config_text() -> str:
    """A complete commented example; also the verify-subcommand default."""
    return """\
[chart]
dim = 1
sizes = 64
metric = identity

[exponents]
p = fourier 3.0  0 1 0.0 0.5
q = fourier 1.7  0 1 0.0 0.2

[weight]
mu = fourier 1.5  0 1 0.0 0.5

[nonlinearity]
beta = 4.0
amplitude = constant 1.0

[problem]
lambda = 0.7

[solver]
multistart = 8
max_outer_iters = 5000
residual_tol = 1e-6

[verify]
trials = 200

[constants]
trials = 200
"""
