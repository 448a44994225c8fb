from pathlib import Path

import numpy as np
import pytest

import doublephase as dp
from doublephase.config import ConfigError, field_from_spec, parse_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def chart():
    return dp.build_torus(1, [64])[0]


class TestFieldSpecs:
    def test_constant(self, chart):
        f = field_from_spec("constant 2.5", chart)
        assert np.all(f.values == 2.5)

    def test_affine(self, chart):
        f = field_from_spec("affine 1.0 0.5", chart)
        x = chart.axis_coords(0)
        assert np.allclose(f.values, 1.0 + 0.5 * x)

    def test_affine_slope_jumps_at_the_wrap(self, chart):
        # the torus wraps x = 1 onto x = 0, so a nonzero slope is not
        # log-Hoelder there: the wrap step is the largest neighbour gap
        f = field_from_spec("affine 0 5", chart)
        gaps = np.abs(np.diff(f.values, append=f.values[:1]))
        assert np.argmax(gaps) == chart.shape[0] - 1
        assert gaps[-1] == pytest.approx(5.0 * (1.0 - 1.0 / chart.shape[0]))
        assert np.allclose(gaps[:-1], 5.0 / chart.shape[0])

    def test_fourier(self, chart):
        f = field_from_spec("fourier 2.0  0 1 0.25 0.5", chart)
        x = chart.axis_coords(0)
        expected = 2.0 + 0.25 * np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * x)
        assert np.allclose(f.values, expected)

    def test_fourier_2d_axis(self):
        chart, _ = dp.build_torus(2, [8, 8])
        f = field_from_spec("fourier 0.0  1 2 1.0 0.0", chart)
        _, yy = chart.coords()
        assert np.allclose(f.values, np.cos(4 * np.pi * yy / chart.lengths[1]))

    def test_bad_specs_rejected(self, chart):
        for spec in ("", "constant", "affine 1.0", "fourier 1.0 0 1 0.1", "wavelet 1"):
            with pytest.raises(ConfigError):
                field_from_spec(spec, chart)

    def test_file_spec_roundtrip(self, chart, tmp_path):
        rng = dp.substream(31, "spec")
        u = dp.random_band_limited(chart, rng, amplitude=1.0, mean=2.0)
        path = tmp_path / "u.field"
        dp.write_field(path, u)
        f = field_from_spec(f"file {path}", chart)
        assert np.array_equal(f.values, u.values)


def test_parse_echo_and_defaults(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[chart]\ndim = 1\nsizes = 64\n\n[problem]\nlambda = 0.5\n")
    rc = parse_config(str(cfg))
    assert rc.lam == 0.5
    assert rc.echo["chart"]["sizes"] == "64"
    inst = rc.build_instance()
    assert inst.exponents.p_plus == 3.0  # default exponents


BASE_CFG = "[chart]\ndim = 1\nsizes = 64\n\n[problem]\nlambda = 0.5\n"


def _stored(record):
    """Name -> value of every attribute a package record stores: a NamedTuple's
    fields, or a class's slots and instance dict."""
    if isinstance(record, tuple):
        return record._asdict()
    slots = [name for cls in type(record).__mro__ for name in getattr(cls, "__slots__", ())]
    return {name: getattr(record, name) for name in slots} | getattr(record, "__dict__", {})


def _assert_same(x, y):
    """x equals y, attribute by attribute for package records and bitwise for arrays."""
    assert type(x) is type(y)
    if isinstance(x, np.ndarray):
        assert x.shape == y.shape and np.array_equal(x, y)
    elif type(x).__module__.startswith("doublephase."):
        fields_x, fields_y = _stored(x), _stored(y)
        assert fields_x and fields_x.keys() == fields_y.keys()
        for name in fields_x:
            _assert_same(fields_x[name], fields_y[name])
    else:
        assert x == y


def _parse_error(tmp_path, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError) as info:
        parse_config(str(cfg))
    return str(info.value)


class TestConditionsBetweenValues:
    # each condition is anchored at its key, or at the section header when
    # the key is absent or the condition belongs to the section
    @pytest.mark.parametrize(
        "extra, line, name, message",
        [
            ("[exponents]\np = constant 3.0\nq = constant 3.0", 8, "[exponents]", "exponent ordering"),
            ("[weight]\nmu = affine 0.5 -1.0", 9, "[weight] mu", "weight must be positive"),
            ("[nonlinearity]\nbeta = 4.5\namplitude = constant 0", 10, "[nonlinearity] amplitude", "amplitude must"),
            ("[exponents]\np = constant 5.0\n\n[nonlinearity]\nbeta = 5.0", 12, "[nonlinearity] beta", "beta > p+"),
            ("[exponents]\np = constant 5.0\n\n[nonlinearity]\namplitude = constant 1.0", 11,
             "[nonlinearity] beta", "beta > p+ = 5.0, got beta = 4.0"),
            ("[exponents]\np = constant 5.0", 0, "[nonlinearity] beta", "beta > p+"),
        ],
    )
    def test_condition_is_line_anchored(self, tmp_path, extra, line, name, message):
        msg = _parse_error(tmp_path, BASE_CFG + "\n" + extra + "\n")
        assert msg.startswith(f"{tmp_path / 'c.cfg'}:{line}: {name}: ") and message in msg

    def test_field_files_are_read_once(self, tmp_path, monkeypatch):
        from doublephase import fieldio

        chart = dp.build_torus(1, [64])[0]
        p_path, g_path = tmp_path / "p.field", tmp_path / "g.metric"
        dp.write_field(p_path, chart.constant(3.0))
        g_path.write_text("nehari-field v1 metric\ndim 1 sizes 64\n" + "2.0\n" * 64)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG.replace("sizes = 64", f"sizes = 64\nmetric = file {g_path}")
                       + f"\n[exponents]\np = file {p_path}\n")
        reads, read = [], fieldio._read

        def counted(path, *args, **kwargs):
            reads.append(path)
            return read(path, *args, **kwargs)

        monkeypatch.setattr(fieldio, "_read", counted)
        P = parse_config(str(cfg)).build_instance()
        assert sorted(map(str, reads)) == [str(g_path), str(p_path)]
        assert np.all(P.metric.inv == 0.5) and P.exponents.p_plus == 3.0


class TestUnknownKeys:
    def test_unknown_option_is_line_anchored(self, tmp_path):
        for option in ("multistrat = 2", "use_bb_step = false", "start_mean = 1.0"):
            msg = _parse_error(tmp_path, BASE_CFG + f"\n[solver]\nmultistart = 3\n{option}\n")
            name = option.split()[0]
            assert "c.cfg:10:" in msg and f"[solver] {name}" in msg and "unknown option" in msg

    def test_unknown_option_in_known_section(self, tmp_path):
        msg = _parse_error(tmp_path, BASE_CFG.replace("sizes = 64", "sizes = 64\nsize = 32"))
        assert "c.cfg:4:" in msg and "[chart] size" in msg

    def test_unknown_section_is_line_anchored(self, tmp_path):
        msg = _parse_error(tmp_path, BASE_CFG + "\n[slover]\nmultistart = 3\n")
        assert "c.cfg:8:" in msg and "unknown section [slover]" in msg

    def test_default_section_is_rejected(self, tmp_path):
        msg = _parse_error(tmp_path, "[DEFAULT]\nseed = 3\n\n" + BASE_CFG)
        assert "c.cfg:1:" in msg and "[DEFAULT]" in msg

    def test_shipped_configs_use_known_keys(self):
        reference = ROOT / "configs" / "reference.cfg"
        assert parse_config(str(reference)).lam == 0.125
        sections = {"chart", "exponents", "weight", "nonlinearity", "problem", "solver"}
        assert parse_config(None).echo.keys() == sections | {"verify", "constants"}

    def test_shipped_configs_set_only_read_options(self):
        from doublephase.config import _OPTIONS

        for rc in (parse_config(None), parse_config(str(ROOT / "configs" / "reference.cfg"))):
            for section, options in rc.echo.items():
                for option in options:
                    assert _OPTIONS[section][option][0] is not None, f"{rc.path}: [{section}] {option}"


class TestListCasts:
    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("sizes = 64", "sizes = 64 x", 3),
            ("sizes = 64", "sizes: 64 x", 3),
            ("sizes = 64", "sizes = 64\nspacings = 0.1 y", 4),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = auto x", 7),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = auto 8 9", 7),
            ("lambda = 0.5", "lambda = nan", 6),
            ("lambda = 0.5", "lambda = inf", 6),
            ("lambda = 0.5", "lambda = 0", 6),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = nan", 7),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = 0.1 inf", 7),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = -0.1 0.1", 7),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = auto 0", 7),
            ("lambda = 0.5", "lambda = 0.5\nlambda_grid = auto -2", 7),
        ],
    )
    def test_bad_list_value_is_line_anchored(self, tmp_path, old, new, line):
        msg = _parse_error(tmp_path, BASE_CFG.replace(old, new))
        option = new.splitlines()[-1].split("=")[0].split(":")[0].strip()
        assert f"c.cfg:{line}: [" in msg and f"] {option}:" in msg

    def test_auto_grid_point_count(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG + "lambda_grid = auto 5\n")
        assert parse_config(str(cfg)).lambda_grid == 5
        cfg.write_text(BASE_CFG + "lambda_grid = auto\n")
        assert parse_config(str(cfg)).lambda_grid == 8

    def test_sizes_and_spacings_parse(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        chart = "dim = 2\nsizes = 8 16\nspacings = 0.125 0.0625"
        cfg.write_text(BASE_CFG.replace("dim = 1\nsizes = 64", chart))
        rc = parse_config(str(cfg))
        assert rc.chart.sizes == (8, 16) and rc.chart.spacings == (0.125, 0.0625)
        cfg.write_text(BASE_CFG.replace("dim = 1\nsizes = 64", "dim = 2"))
        assert parse_config(str(cfg)).chart.sizes == (64, 64)


class TestTrialCounts:
    @pytest.mark.parametrize(
        "section, value, least",
        [("constants", "50", 100), ("constants", "99", 100), ("constants", "-1", 100),
         ("verify", "0", 1), ("verify", "-5", 1)],
    )
    def test_bad_trial_count_is_line_anchored(self, tmp_path, section, value, least):
        msg = _parse_error(tmp_path, BASE_CFG + f"\n[{section}]\ntrials = {value}\n")
        assert f"c.cfg:9: [{section}] trials: must be at least {least}, got {value}" in msg

    def test_least_trial_counts_parse(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG + "\n[verify]\ntrials = 1\n\n[constants]\ntrials = 100\n")
        rc = parse_config(str(cfg))
        assert (rc.verify_trials, rc.constants_trials) == (1, 100)


class TestTruncate:
    # the solver always truncates; the key stays for the configs that say so
    @pytest.mark.parametrize("value", ["false", "maybe", "0"])
    def test_any_value_but_true_is_line_anchored(self, tmp_path, value):
        msg = _parse_error(tmp_path, BASE_CFG + f"\n[solver]\nmultistart = 3\ntruncate = {value}\n")
        assert "c.cfg:10: [solver] truncate: must be true" in msg and value in msg

    def test_configs_that_say_true_parse(self, tmp_path):
        # the workload configs set truncate = true and a_threshold = 1.0
        import sys

        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        texts = [workload().config_text() for workload in WORKLOADS.values()]
        assert any("truncate = true" in t and "a_threshold = 1.0" in t for t in texts)
        for i, text in enumerate(texts):
            cfg = tmp_path / f"c{i}.cfg"
            cfg.write_text(text)
            rc = parse_config(str(cfg))
            assert "truncate" not in rc.solver
            rc.build_solver_config()
            rc.build_instance()


class TestAThreshold:
    # [nonlinearity] a_threshold stays accepted for the configs that set it;
    # nothing reads it
    @pytest.mark.parametrize("value", ["0", "-1.0", "nan", "x"])
    def test_must_be_positive(self, tmp_path, value):
        msg = _parse_error(tmp_path, BASE_CFG + f"\n[nonlinearity]\nbeta = 4.0\na_threshold = {value}\n")
        assert "c.cfg:10: [nonlinearity] a_threshold:" in msg and value in msg

    def test_is_not_read(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CFG)
        plain = parse_config(str(cfg))
        cfg.write_text(BASE_CFG + "\n[nonlinearity]\na_threshold = 7.5\n")
        rc = parse_config(str(cfg))
        assert rc.echo["nonlinearity"] == {"a_threshold": "7.5"}
        rc.echo = plain.echo
        _assert_same(rc, plain)
