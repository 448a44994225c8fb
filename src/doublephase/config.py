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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fieldio import read_field, read_metric
from .grid import Chart, MetricField, ScalarField
from .problem import PowerNonlinearity, ProblemInstance
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
    """Best-effort line anchor for an option inside a section, or for its header."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        text = line.strip()
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip()
            if option is None and current == section:
                return lineno
        elif current == section and re.split("[=:]", text)[0].strip().lower() == option:
            return lineno
    return 0


@dataclass
class RunConfig:
    """Resolved run settings plus the raw text echo for artifacts."""

    dim: int = 1
    sizes: tuple = (64,)
    spacings: tuple | None = None
    metric_spec: str = "identity"
    p_spec: str = "constant 3.0"
    q_spec: str = "constant 2.0"
    mu_spec: str = "constant 1.0"
    amplitude_spec: str = "constant 1.0"
    beta: float = 4.0
    lam: float | None = None
    lambda_grid: tuple | None = None
    lambda_grid_auto: int | None = None
    seed: int = 0
    solver: dict = dc_field(default_factory=dict)
    verify_trials: int = 200
    constants_trials: int = 200
    echo: dict = dc_field(default_factory=dict)
    path: str = "<defaults>"

    def build_chart_metric(self):
        sizes = tuple(int(s) for s in self.sizes)
        spacings = self.spacings or tuple(1.0 / s for s in sizes)
        chart = Chart(dim=self.dim, sizes=sizes, spacings=tuple(spacings))
        spec = self.metric_spec.strip()
        if spec == "identity":
            metric = MetricField.from_spec(chart, "identity")
        elif spec.startswith("constant"):
            vals = [float(tok) for tok in spec.split()[1:]]
            n = chart.dim
            need = n * (n + 1) // 2
            if len(vals) == 1:
                metric = MetricField.from_spec(chart, vals[0])
            elif len(vals) == need:
                g = np.zeros((n, n))
                iu = np.triu_indices(n)
                g[iu] = vals
                g = g + g.T - np.diag(np.diag(g))
                metric = MetricField.from_spec(chart, g)
            else:
                raise ConfigError(
                    f"{self.path}: metric 'constant' needs 1 or {need} values, got {len(vals)}"
                )
        elif spec.startswith("file"):
            metric = read_metric(_file_path(spec), chart)
        else:
            raise ConfigError(f"{self.path}: unknown metric spec {spec!r}")
        return chart, metric

    def build_instance(self, lam: float | None = None) -> ProblemInstance:
        chart, metric = self.build_chart_metric()
        p = field_from_spec(self.p_spec, chart)
        q = field_from_spec(self.q_spec, chart)
        mu = field_from_spec(self.mu_spec, chart)
        amp = field_from_spec(self.amplitude_spec, chart)
        lam = self.lam if lam is None else lam
        if lam is None:
            raise ConfigError(f"{self.path}: [problem] lambda is required for this command")
        return ProblemInstance(
            chart=chart,
            metric=metric,
            exponents=ExponentField(p=p, q=q),
            weight=WeightField(mu=mu),
            lam=float(lam),
            nonlinearity=PowerNonlinearity(beta=self.beta, amplitude=amp),
        )

    def build_solver_config(self) -> SolverConfig:
        kw = dict(self.solver)
        kw.setdefault("seed", self.seed)
        kw.setdefault("constants_trials", self.constants_trials)
        return SolverConfig(**kw)


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


# section -> option -> (RunConfig attribute, caster): every option parse_config
# reads and the only ones it accepts; [solver] options go to RunConfig.solver,
# and an attribute of None only checks the value
_OPTIONS = {
    "chart": {
        "dim": ("dim", int),
        "sizes": ("sizes", _numbers(int)),
        "spacings": ("spacings", _numbers(float)),
        "metric": ("metric_spec", str),
    },
    "exponents": {"p": ("p_spec", str), "q": ("q_spec", str)},
    "weight": {"mu": ("mu_spec", str)},
    "nonlinearity": {
        "beta": ("beta", float),
        "amplitude": ("amplitude_spec", str),
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
    "run": {"seed": ("seed", int)},
}


def parse_config(path: str | None = None) -> RunConfig:
    """Parse a run configuration file; without a path, the built-in defaults."""
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
        line = _option_line(text, section, option)
        return ConfigError(f"{path}:{line}: [{section}] {option}{message}")

    for section in ([parser.default_section] if parser.defaults() else []) + parser.sections():
        if section not in _OPTIONS:
            raise ConfigError(
                f"{path}:{_option_line(text, section)}: unknown section [{section}]; "
                "known sections: " + ", ".join(_OPTIONS)
            )
        for option in parser.options(section):
            if option not in _OPTIONS[section]:
                known = ", ".join(_OPTIONS[section])
                raise error(section, option, f": unknown option; known options: {known}")

    rc = RunConfig(path=path)
    for section, options in _OPTIONS.items():
        for option, (attr, caster) in options.items():
            if not parser.has_option(section, option):
                continue
            try:
                value = caster(parser.get(section, option))
            except ValueError as exc:
                raise error(section, option, f": {exc}") from exc
            if attr == "solver":
                rc.solver[option] = value
            elif attr is not None:
                setattr(rc, attr, value)
    if rc.dim > 1 and not parser.has_option("chart", "sizes"):
        rc.sizes = (64,) * rc.dim
    if isinstance(rc.lambda_grid, int):
        rc.lambda_grid_auto, rc.lambda_grid = rc.lambda_grid, None

    rc.echo = {s: dict(parser.items(s)) for s in parser.sections()}

    # validate the exponent ordering early, before any run
    try:
        chart, _ = rc.build_chart_metric()
        ExponentField(p=field_from_spec(rc.p_spec, chart), q=field_from_spec(rc.q_spec, chart))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return rc


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
