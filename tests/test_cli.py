import csv
import json

import numpy as np
import pytest

import doublephase as dp
from doublephase.cli import main
from conftest import make_calibrated_ray

REF_CFG = """\
[chart]
dim = 1
sizes = 64
metric = identity

[exponents]
p = constant 3.0
q = constant 2.0

[weight]
mu = constant 1.0

[nonlinearity]
beta = 4.0
amplitude = constant 1.0

[problem]
lambda = 0.125
lambda_grid = 0.05 0.125 0.24

[solver]
multistart = 3
max_outer_iters = 2000

[verify]
trials = 25

[constants]
trials = 100
"""


@pytest.fixture()
def ref_cfg(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(REF_CFG)
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestVerify:
    def test_default_config_passes(self, tmp_path):
        out = str(tmp_path / "v")
        assert main(["verify", "--seed", "42", "--out", out, "--trials", "20"]) == 0
        rows = _read_rows(tmp_path / "v" / "verify.csv")
        assert rows and all(r["pass"] == "1" for r in rows if not r["property"].endswith("_info"))
        assert {"gateaux_fd", "psi_ray_profile", "energy_ray_profile"} <= {r["property"] for r in rows}
        meta = json.loads((tmp_path / "v" / "verify_meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["passed"] is True
        assert "config" in meta

    def test_gateaux_fd_passes_where_the_step_met_the_kink(self, tmp_path):
        # at h = 1e-5 a central difference at seed 4 crossed the kink of
        # |grad u|^q at a node where |grad u|_g is tiny, and the row failed
        assert main(["verify", "--seed", "4", "--out", str(tmp_path / "v")]) == 0

    def test_gateaux_fd_catches_an_off_p_flux_exponent(self, tmp_path, monkeypatch):
        from doublephase import problem

        def off_flux_coef(self):
            mu = self.P.weight.mu.values
            return problem._power(self.gn, self.p - 2.0 + 1e-3) + mu * problem._power(self.gn, self.q - 2.0)

        monkeypatch.setattr(problem._Nodewise, "flux_coef", off_flux_coef)
        assert main(["verify", "--seed", "4", "--out", str(tmp_path / "v")]) == 1
        rows = [r for r in _read_rows(tmp_path / "v" / "verify.csv") if r["property"] == "gateaux_fd"]
        assert rows and all(r["pass"] == "0" for r in rows)

    def test_a_broken_holder_factor_fails(self, tmp_path, capsys, monkeypatch):
        from doublephase import spaces

        monkeypatch.setattr(spaces, "holder_factor", lambda e: 0.5)
        assert main(["verify", "--seed", "42", "--out", str(tmp_path / "vf"), "--trials", "5"]) == 1
        assert "first failing row: holder " in capsys.readouterr().err
        rows = _read_rows(tmp_path / "vf" / "verify.csv")
        assert any(r["property"] == "holder" and r["pass"] == "0" for r in rows)

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path / "x"), "--trials", "0"]) == 2


class TestSolve:
    def test_artifacts_and_roundtrip(self, tmp_path, ref_cfg):
        out = tmp_path / "s"
        assert main(["solve", "--config", ref_cfg, "--seed", "42", "--out", str(out)]) == 0
        exp = json.loads((out / "experiment.json").read_text())
        assert exp["status"] == "converged"
        assert exp["distinct"] is True
        assert exp["seed"] == 42
        assert exp["config"]["problem"]["lambda"] == "0.125"
        for tag in ("plus", "minus"):
            rep = json.loads((out / f"report_{tag}.json").read_text())
            assert rep["class"] == tag
            assert rep["residual_norm"] <= 1e-6
            field = dp.read_field(out / rep["field_file"], dp.build_torus(1, [64])[0])
            assert field.chart.sizes == (64,)
        plus = json.loads((out / "report_plus.json").read_text())
        minus = json.loads((out / "report_minus.json").read_text())
        assert plus["J_value"] < 0 < minus["J_value"]

    def test_bit_identical_reruns(self, tmp_path, ref_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", ref_cfg, "--seed", "42", "--out", str(out1)]) == 0
        assert main(["solve", "--config", ref_cfg, "--seed", "42", "--out", str(out2)]) == 0
        for name in ("report_plus.json", "report_minus.json", "u_plus.field", "u_minus.field", "experiment.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_timing_file(self, tmp_path, ref_cfg):
        out = tmp_path / "t"
        assert main(["solve", "--config", ref_cfg, "--seed", "42", "--out", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert timing.keys() == {"constants_s", "plus_s", "minus_s", "total_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timing.values())
        assert timing["total_s"] >= timing["constants_s"] + timing["plus_s"] + timing["minus_s"]
        for name in ("experiment.json", "report_plus.json", "report_minus.json"):
            assert not {"timing", *timing} & json.loads((out / name).read_text()).keys()

    def test_missing_lambda_errors(self, tmp_path):
        cfg = tmp_path / "nolam.cfg"
        cfg.write_text(REF_CFG.replace("lambda = 0.125\n", ""))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_inconclusive_exits_2(self, tmp_path):
        # above the fold value of this family there is no non-negative
        # critical point; a small budget must report inconclusive, not fail
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(
            REF_CFG.replace("lambda = 0.125", "lambda = 0.3").replace(
                "max_outer_iters = 2000", "max_outer_iters = 60"
            )
        )
        out = tmp_path / "inc"
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        exp = json.loads((out / "experiment.json").read_text())
        assert exp["status"] == "inconclusive"
        assert exp["failures"]


class TestSeedRange:
    # grid.substream takes seeds in [0, 2**64); masked to 64 bits, -5 and
    # 2**64 - 5 ran the same solve under two recorded seeds
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_range_fails_before_any_run(self, tmp_path, ref_cfg, capsys, seed):
        out = tmp_path / "x"
        assert main(["solve", "--config", ref_cfg, "--seed", str(seed), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_config_seed_outside_the_range_is_anchored_at_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(REF_CFG + "\n[run]\nseed = -1\n")
        line = (REF_CFG + "\n[run]\nseed = -1\n").splitlines().index("seed = -1") + 1
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [run] seed: seed must be in [0, 2**64), got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_both_ends_of_the_range_run(self, tmp_path, ref_cfg, seed):
        out = tmp_path / "s"
        assert main(["solve", "--config", ref_cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads((out / "experiment.json").read_text())["seed"] == seed


class TestSweep:
    def test_csv_columns_and_rows(self, tmp_path, ref_cfg):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", ref_cfg, "--seed", "42", "--out", str(out)]) == 0
        rows = _read_rows(out / "sweep.csv")
        assert len(rows) == 3
        assert list(rows[0]) == [
            "lambda",
            "theta_plus_estimate",
            "theta_minus_estimate",
            "n_plus_found",
            "n_minus_found",
            "lambda_star",
            "lambda_star_star",
        ]
        for row in rows:
            assert float(row["theta_minus_estimate"]) > 0
            assert int(row["n_minus_found"]) > 0

    def test_auto_grid_estimates_constants_once(self, tmp_path, monkeypatch):
        from doublephase import solver
        from doublephase.config import parse_config

        cfg = tmp_path / "auto.cfg"
        cfg.write_text(
            REF_CFG.replace("lambda_grid = 0.05 0.125 0.24", "lambda_grid = auto 2").replace(
                "multistart = 3", "multistart = 2"
            )
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return dp.estimate_constants(*args, **kwargs)

        monkeypatch.setattr(solver, "estimate_constants", counted)
        out = tmp_path / "auto"
        assert main(["sweep", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
        assert len(calls) == 1
        # the CSV is the one a sweep that estimates its own constants writes
        rc = parse_config(str(cfg))
        P = rc.build_instance(lam=rc.lam)
        lambdas = json.loads((out / "sweep_meta.json").read_text())["lambdas"]
        rc.seed = 42
        expected = dp.sweep(P, lambdas, rc.build_solver_config())
        assert len(calls) == 2
        rows = _read_rows(out / "sweep.csv")
        assert [list(r.values()) for r in rows] == [
            [repr(v) if isinstance(v, float) else str(v) for v in row.to_csv_row()]
            for row in expected
        ]

    def test_auto_grid_without_a_positive_threshold_is_one_line(self, tmp_path, monkeypatch, capsys):
        from doublephase import solver

        monkeypatch.setattr(
            solver, "thresholds", lambda P, consts: dp.thresholds(P, consts)._replace(lambda_star_star=0.0)
        )
        cfg = tmp_path / "auto.cfg"
        cfg.write_text(REF_CFG.replace("lambda_grid = 0.05 0.125 0.24", "lambda_grid = auto 2"))
        out = tmp_path / "auto"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: auto lambda grid needs a positive threshold\n"
        assert not out.exists()


class TestProject:
    def test_golden_field(self, tmp_path):
        P, u = make_calibrated_ray(1.0, 1.0, 1.0, lam=1.0)
        field_path = tmp_path / "golden.field"
        dp.write_field(field_path, u)
        mu = float(P.weight.mu.values.flat[0])
        amp = float(P.nonlinearity.amplitude.values.flat[0])
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(
            REF_CFG.replace("mu = constant 1.0", f"mu = constant {mu!r}")
            .replace("amplitude = constant 1.0", f"amplitude = constant {amp!r}")
            .replace("lambda = 0.125", "lambda = 1.0")
        )
        out = tmp_path / "p"
        code = main(
            ["project", "--config", str(cfg), "--field", str(field_path), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "projection.json").read_text())
        assert payload["classes"] == ["minus"]
        assert payload["t_roots"][0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)
        projected = dp.read_field(out / "projected_0.field", u.chart)
        assert np.allclose(projected.values, payload["t_roots"][0] * u.values, rtol=1e-15)

    def test_malformed_field_file(self, tmp_path, ref_cfg, capsys):
        bad = tmp_path / "bad.field"
        bad.write_text("nehari-field v1\ndim 1 sizes 64\nnope\n")
        code = main(["project", "--config", ref_cfg, "--field", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "bad.field:3" in capsys.readouterr().err

    def test_non_finite_field_is_one_line_naming_the_file(self, tmp_path, ref_cfg, capsys):
        bad = tmp_path / "nan.field"
        bad.write_text("nehari-field v1\ndim 1 sizes 64\n" + "1.0\n" * 5 + "nan\n" + "1.0\n" * 58)
        out = tmp_path / "x"
        assert main(["project", "--config", ref_cfg, "--field", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:8: non-finite value in 'nan'\n"
        assert not out.exists()


class TestOutPath:
    @pytest.mark.parametrize(
        "command, runner",
        [("solve", "two_solution_experiment"), ("sweep", "sweep"), ("verify", "run_verify_suite")],
    )
    def test_out_naming_a_file_fails_before_any_run(self, tmp_path, ref_cfg, capsys, monkeypatch, command, runner):
        def never(*args, **kwargs):
            pytest.fail(f"{runner} ran although --out names a file")

        # the verify command imports its runner when it runs
        monkeypatch.setattr(f"doublephase.{'verify' if command == 'verify' else 'cli'}.{runner}", never)
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        assert main([command, "--config", ref_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert out.read_text() == "keep me\n"

    @pytest.mark.parametrize(
        "command, runner",
        [("solve", "two_solution_experiment"), ("sweep", "sweep"), ("verify", "run_verify_suite")],
    )
    def test_out_under_a_file_fails_before_any_run(self, tmp_path, ref_cfg, capsys, monkeypatch, command, runner):
        def never(*args, **kwargs):
            pytest.fail(f"{runner} ran although --out lies under a file")

        # the verify command imports its runner when it runs
        monkeypatch.setattr(f"doublephase.{'verify' if command == 'verify' else 'cli'}.{runner}", never)
        parent = tmp_path / "some.file"
        parent.write_text("keep me\n")
        out = parent / "sub"
        assert main([command, "--config", ref_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(parent) in err
        assert parent.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.cfg", "some.file"]

    def test_failed_artifact_write_is_one_line(self, tmp_path, ref_cfg, capsys, monkeypatch):
        from doublephase import cli

        def refuse(path, payload):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(cli, "_json_dump", refuse)
        assert main(["solve", "--config", ref_cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestConfigErrors:
    def test_malformed_value_is_line_anchored(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[chart]\ndim = banana\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_exponent_ordering_validated_before_run(self, tmp_path, capsys):
        cfg = tmp_path / "order.cfg"
        cfg.write_text(REF_CFG.replace("q = constant 2.0", "q = constant 3.0"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "ordering" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, old, new, line",
        [
            ("solve", "lambda = 0.125", "lambda = nan", 18),
            ("solve", "lambda = 0.125", "lambda = inf", 18),
            ("sweep", "lambda_grid = 0.05 0.125 0.24", "lambda_grid = nan", 19),
            ("sweep", "lambda_grid = 0.05 0.125 0.24", "lambda_grid = 0.1 inf", 19),
            ("sweep", "lambda_grid = 0.05 0.125 0.24", "lambda_grid = auto 0", 19),
            ("sweep", "lambda_grid = 0.05 0.125 0.24", "lambda_grid = auto -2", 19),
        ],
    )
    def test_bad_lambda_rejected_before_any_run(self, tmp_path, capsys, command, old, new, line):
        cfg = tmp_path / "lam.cfg"
        cfg.write_text(REF_CFG.replace(old, new))
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"lam.cfg:{line}: [problem]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option, dropped",
        [
            pytest.param("solve", "lambda", "lambda = 0.125\n", id="solve-without-lambda"),
            pytest.param("sweep", "lambda_grid", "lambda_grid = 0.05 0.125 0.24\n", id="sweep-without-grid"),
            pytest.param("solve", "lambda", "[problem]\nlambda = 0.125\nlambda_grid = 0.05 0.125 0.24\n",
                         id="solve-without-section"),
        ],
    )
    def test_command_requirement_is_anchored_at_the_problem_header(self, tmp_path, capsys, command, option, dropped):
        text = REF_CFG.replace(dropped, "")
        # the [problem] header's line, or 0 when the section is absent
        line = text.splitlines().index("[problem]") + 1 if "[problem]" in text else 0
        cfg = tmp_path / "need.cfg"
        cfg.write_text(text)
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: [problem] {option}: is required for this command\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, old, new",
        [
            ("solve", "constants", "trials = 100", "trials = 50"),
            ("sweep", "constants", "trials = 100", "trials = 99"),
            ("verify", "verify", "trials = 25", "trials = 0"),
        ],
    )
    def test_bad_trial_count_rejected_before_any_run(self, tmp_path, capsys, command, section, old, new):
        cfg = tmp_path / "trials.cfg"
        cfg.write_text(REF_CFG.replace(old, new))
        line = REF_CFG.splitlines().index(f"[{section}]") + 2
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"trials.cfg:{line}: [{section}] trials: must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_decreasing_lambda_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(REF_CFG.replace("lambda_grid = 0.05 0.125 0.24", "lambda_grid = 0.3 0.2"))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, project",
        [
            pytest.param("p = constant 3.0", "p = file", False, id="field-file-without-path"),
            pytest.param("metric = identity", "metric = file", False, id="metric-file-without-path"),
            pytest.param("p = constant 3.0", "p = file {missing}", False, id="field-file-missing"),
            pytest.param(None, None, True, id="project-field-missing"),
            # a small iteration cap, so that a solve that accepts nan still ends
            pytest.param("max_outer_iters = 2000", "max_outer_iters = 3\nresidual_tol = nan", False, id="tol-nan"),
            pytest.param("max_outer_iters = 2000", "max_outer_iters = 3\nresidual_tol = inf", False, id="tol-inf"),
            pytest.param("multistart = 3", "multistart = 0", False, id="multistart-0"),
        ],
    )
    def test_malformed_input_is_a_one_line_error(self, tmp_path, capsys, old, new, project):
        missing = str(tmp_path / "missing.field")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(REF_CFG if old is None else REF_CFG.replace(old, new.format(missing=missing)))
        out = tmp_path / "x"
        argv = ["project" if project else "solve", "--config", str(cfg), "--out", str(out)]
        assert main(argv + (["--field", missing] if project else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (missing if project else str(cfg)) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("mu = constant 1.0", "mu = file", "'file' spec needs a path"),
            ("mu = constant 1.0", "mu = constant nan", "non-finite"),
            ("mu = constant 1.0", "mu = fourier 1.0 0 1 x 0", "could not convert"),
            ("amplitude = constant 1.0", "amplitude = constant -1", "amplitude must be positive"),
            ("beta = 4.0", "beta = 2.5", "beta > p+"),
            ("beta = 4.0", "beta = nan", "must be finite and positive"),
            ("beta = 4.0", "beta = inf", "must be finite and positive"),
            ("beta = 4.0", "beta = 51.4", "exceeds 51.37578592665279, past which t^beta overflows "
             "at the top of the probe bracket [1e-06, 1e+06]"),
            ("sizes = 64", "sizes = 64\nspacings = nan", "must be finite and positive"),
            ("sizes = 64", "sizes = 64\nspacings = 0.1 0.1", "one entry per axis"),
            ("sizes = 64", "sizes = 2", "at least 4 nodes"),
            ("sizes = 64", "sizes = 0", "must be at least 1"),
            ("dim = 1", "dim = 4", "must be 1, 2 or 3"),
            ("metric = identity", "metric = constant 1 2", "needs 1 or 1 values, got 2"),
            ("metric = identity", "metric = constant 1 x", "could not convert"),
            ("metric = identity", "metric = constant nan", "non-finite"),
            ("metric = identity", "metric = constantly 2.0", "unknown metric spec"),
            ("p = constant 3.0", "p = constant x", "could not convert"),
            ("p = constant 3.0", "p = fourier 3.0 0 1.5 0.0 0.3", "'fourier' k 1.5 is not an integer"),
            # values are literal: a "%" is part of the value
            ("p = constant 3.0", "p = file data/50%.field", "data/50%.field: No such file"),
            ("mu = constant 1.0", "mu = constant %(x)s", "could not convert string to float: '%(x)s'"),
            # the whitespace inside a header's brackets is not part of the name
            ("[solver]\nmultistart = 3", "[ solver ]\nmultistart = 0", "must be at least 1"),
        ],
    )
    def test_bad_value_is_one_line_at_its_key(self, tmp_path, capsys, old, new, message):
        text = REF_CFG.replace(old, new)
        key = new.splitlines()[-1]
        lines = text.splitlines()
        line = lines.index(key) + 1
        header = next(s for s in reversed(lines[:line]) if s.startswith("["))
        section = f"[{header[1:-1].strip()}]"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        anchor = f"error: {cfg}:{line}: {section} {key.split(' =')[0]}: "
        assert err.startswith(anchor) and message in err
        assert err.count("\n") == 1 and err.count(str(cfg)) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            pytest.param("beta = 4.0", "beta", 14, "expected '[section]', or 'option = value' after one, got 'beta'",
                         id="no-delimiter"),
            pytest.param("beta = 4.0", "= 4.0", 14, "got '= 4.0'", id="no-option-name"),
            pytest.param("[chart]", "seed = 3\n[chart]", 1, "got 'seed = 3'", id="before-any-section"),
            pytest.param("max_outer_iters = 2000", "max_outer_iters = 2000\n  4000", 24, "got '4000'",
                         id="continuation-line"),
            pytest.param("multistart = 3", "multistart = 3\nmultistart = 4", 23,
                         "[solver] multistart: repeated; first at line 22", id="repeated-option"),
            pytest.param("[verify]", "[solver]\n[verify]", 25, "[solver]: repeated section; first at line 21",
                         id="repeated-section"),
        ],
    )
    def test_syntax_error_is_one_line_at_its_line(self, tmp_path, capsys, old, new, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(REF_CFG.replace(old, new))
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{line}: ") and message in err
        assert err.count("\n") == 1 and err.count(str(cfg)) == 1
        assert "Traceback" not in err and not out.exists()
