"""End-to-end tests of the command-line interface."""

import json
import logging
import runpy
import warnings

import numpy as np
import pytest

from robustvar import RobustConfig, mallows_weights, read_series_csv, read_var_model_csv
from robustvar import cli
from robustvar.cli import build_parser, cli_main, dgp_from_dict
from robustvar.optimizer import _lipschitz_bound
from robustvar._seeds import derive_seed
from robustvar.simulate import (
    ArchVarDgp,
    BekkVarDgp,
    RcVarDgp,
    StudentTNoise,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarTDgp,
    simulate,
)


def run(argv):
    return cli_main(argv)


class TestSimulateCommand:
    def test_quick_flags(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run(["simulate", "--p", "4", "--df", "3", "--n", "40",
                    "--burn-in", "50", "--seed", "1", "--out", str(out)])
        assert code == 0
        data = read_series_csv(out)
        assert data.shape == (40, 4)
        prov = json.loads((tmp_path / "data.csv.provenance.json").read_text())
        assert prov["seed"] == 1 and "PCG64" in prov["rng"]

    def test_spec_file(self, tmp_path):
        spec = {
            "kind": "var_t",
            "coeffs": [[[0.5, 0.0], [0.0, 0.3]]],
            "noise": {"kind": "student_t", "df": 3.0},
        }
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--spec", str(spec_path), "--n", "25",
                    "--burn-in", "10", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert read_series_csv(out).shape == (25, 2)

    def test_quick_flags_match_recorded_spec(self, tmp_path):
        quick = tmp_path / "quick.csv"
        common = ["--n", "30", "--burn-in", "40", "--seed", "5"]
        assert run(["simulate", "--p", "4", "--df", "2.5", "--density", "0.3",
                    "--rho", "0.6", *common, "--out", str(quick)]) == 0
        prov = json.loads((tmp_path / "quick.csv.provenance.json").read_text())
        spec_path = tmp_path / "dgp.json"
        spec_path.write_text(json.dumps(prov["dgp"]))
        from_spec = tmp_path / "spec.csv"
        assert run(["simulate", "--spec", str(spec_path), *common, "--out", str(from_spec)]) == 0
        assert from_spec.read_bytes() == quick.read_bytes()

    def test_unstable_spec_fails_cleanly(self, tmp_path, capsys):
        spec = {"kind": "var_t", "coeffs": [[[1.2]]],
                "noise": {"kind": "gaussian", "sd": 1.0}}
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(spec))
        code = run(["simulate", "--spec", str(spec_path), "--n", "10",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_dimension_below_one_names_p(self, tmp_path, capsys, p):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--p", p, "--n", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: p must be at least 1, got {p}\n"
        assert not out.exists()

    def test_model_flag_simulates_the_model_it_reads(self, tmp_path):
        model = tmp_path / "m.csv"
        model.write_text("# varmodel p=2 d=2\n0.4,0.1,0.2,0\n-0.1,0.3,0,0.1\n")
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--model", str(model), "--df", "3", "--n", "30",
                    "--burn-in", "20", "--seed", "4", "--out", str(out)]) == 0
        truth = read_var_model_csv(model)
        expected = simulate(VarTDgp(truth, StudentTNoise(3.0)), 30, 20, derive_seed(4, 1))
        np.testing.assert_array_equal(read_series_csv(out), expected)
        prov = json.loads((tmp_path / "sim.csv.provenance.json").read_text())
        assert prov["dgp"] == {"kind": "var_t", "coeffs": [c.tolist() for c in truth.coeffs],
                               "noise": {"kind": "student_t", "df": 3.0}}


class TestFitCommand:
    def test_benchmark_flags(self, tmp_path):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--p", "5", "--df", "3", "--n", "60",
                    "--burn-in", "100", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "bhat.csv"
        code = run(["fit", "--input", str(data), "--lag", "1", "--tau", "1",
                    "--b", "3", "--lambda-mode", "theory", "--c", "1.0",
                    "--out", str(out)])
        assert code == 0
        model = read_var_model_csv(out)
        assert model.p == 5 and model.d == 1
        wide = np.hstack([c.T for c in model.coeffs])
        assert wide.shape == (5, 5)
        prov = json.loads((tmp_path / "bhat.csv.provenance.json").read_text())
        assert prov["lambda"] > 0
        assert "seed" not in prov  # a fit draws nothing: every column starts at zero
        assert run(["fit", "--input", str(data), "--tau", "1", "--seed", "0"]) == 2

    def test_lambda_above_every_lambda_max_writes_zero_model(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--p", "5", "--df", "3", "--n", "120",
                    "--seed", "1", "--out", str(data)]) == 0
        out = tmp_path / "zero.csv"
        assert run(["fit", "--input", str(data), "--lag", "1", "--tau", "1", "--b", "3",
                    "--lambda-mode", "explicit", "--lambda", "1e6", "--out", str(out)]) == 0
        assert "columns_converged=5/5" in capsys.readouterr().out
        np.testing.assert_array_equal(read_var_model_csv(out).stacked(), np.zeros((5, 5)))

    def test_fit_writes_no_negative_zero(self, tmp_path, monkeypatch):
        # the l1 prox thresholds negatives to -0.0; the model file writes them as 0
        fits = []
        real = cli.fit_var
        monkeypatch.setattr(cli, "fit_var", lambda *a: fits.append(real(*a)) or fits[-1])
        data = tmp_path / "data.csv"
        assert run(["simulate", "--p", "10", "--df", "3", "--n", "100",
                    "--seed", "1", "--out", str(data)]) == 0
        out = tmp_path / "bhat.csv"
        assert run(["fit", "--input", str(data), "--lag", "1", "--tau", "1", "--b", "3",
                    "--lambda-mode", "explicit", "--lambda", "0.02", "--out", str(out)]) == 0
        est = fits[0][0].stacked()
        assert np.signbit(est[est == 0]).any()
        cells = [c for line in out.read_text().splitlines()[1:] for c in line.split(",")]
        assert "0" in cells and "-0" not in cells
        np.testing.assert_array_equal(read_var_model_csv(out).stacked(), est)

    def test_step_provenance(self, tmp_path):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--p", "3", "--df", "3", "--n", "40",
                    "--burn-in", "50", "--seed", "6", "--out", str(data)]) == 0
        series = read_series_csv(data)
        x = series[:-1]
        lip = _lipschitz_bound(x, mallows_weights(x, RobustConfig(tau=1.0, b=3.0)))
        out = tmp_path / "bhat.csv"
        common = ["fit", "--input", str(data), "--tau", "1", "--out", str(out)]
        assert run(common) == 0
        prov = json.loads((tmp_path / "bhat.csv.provenance.json").read_text())
        assert prov["step"] is None and prov["step_used"] == 1.0 / lip
        assert run([*common, "--step", "0.9"]) == 0
        prov = json.loads((tmp_path / "bhat.csv.provenance.json").read_text())
        assert prov["step"] == prov["step_used"] == 0.9

    def test_step_beyond_curvature_warns_once(self, tmp_path, caplog):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--p", "3", "--df", "3", "--n", "40",
                    "--burn-in", "50", "--seed", "6", "--out", str(data)]) == 0
        x = read_series_csv(data)[:-1]
        lip = _lipschitz_bound(x, mallows_weights(x, RobustConfig(tau=1.0, b=3.0)))
        with caplog.at_level(logging.INFO):
            assert run(["fit", "--input", str(data), "--tau", "1", "--step", repr(3.0 / lip),
                        "--max-iter", "5", "--out", str(tmp_path / "bhat.csv")]) == 0
        warned = [r for r in caplog.records if "exceeds 2/L" in r.getMessage()]
        assert [(r.name, r.levelno) for r in warned] == [("robustvar.optimizer", logging.WARNING)]

    def test_lag2_output_width(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--p", "2", "--df", "4", "--n", "50",
                    "--burn-in", "20", "--seed", "4", "--out", str(data)]) == 0
        out = tmp_path / "b2.csv"
        assert run(["fit", "--input", str(data), "--lag", "2", "--tau", "1",
                    "--lambda-mode", "explicit", "--lambda", "0.1",
                    "--out", str(out)]) == 0
        model = read_var_model_csv(out)
        assert model.p == 2 and model.d == 2

    def test_nan_lambda_names_lam(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--p", "2", "--n", "30", "--seed", "4", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "b.csv"
        assert run(["fit", "--input", str(data), "--tau", "1", "--lambda-mode", "explicit",
                    "--lambda", "nan", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")
        assert "lam must be real, finite and in [0, inf), got nan" in err
        assert not out.exists()

    def test_theory_mode_rejects_a_lambda(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--p", "2", "--n", "30", "--seed", "4", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "b.csv"
        assert run(["fit", "--input", str(data), "--tau", "1", "--lambda", "0.3",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: lam must be 0 in theory mode, got 0.3\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--c", "inf"], "c must be real, finite and in (0, inf), got inf"),
        (["--c", "1e308"], "theory lambda overflows at c = 1e+308"),
        (["--lag", "0"], "lag must be at least 1, got 0"),
    ], ids=["c_inf", "c_overflow", "lag0"])
    def test_bad_flag_exits_1_naming_it(self, tmp_path, capsys, flags, message):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--p", "2", "--n", "30", "--seed", "4", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "b.csv"
        assert run(["fit", "--input", str(data), "--tau", "1", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {message}")
        assert not out.exists() and not (tmp_path / "b.csv.provenance.json").exists()

    def test_series_without_data_column_names_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t\n0\n1\n2\n3\n")
        out = tmp_path / "b.csv"
        assert run(["fit", "--input", str(data), "--tau", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: ValueError: data must be a nonempty array of "
                                           "shape (n, p), got shape (4, 0)\n")
        assert not out.exists()

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = run(["fit", "--input", str(tmp_path / "nope.csv"), "--tau", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_spec_to_outputs(self, tmp_path):
        spec = {
            "case": "case1_df_sweep", "p": 4, "n_grid": [25], "df_grid": [3.0, 5.0],
            "tau_grid": [1.0, 10.0], "replications": 1, "seed": 0,
            "burn_in": 50, "output_dir": str(tmp_path / "out"),
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["experiment", "--spec", str(spec_path)]) == 0
        base = tmp_path / "out" / "case1_df_sweep"
        assert (base.parent / "case1_df_sweep.csv").exists()
        assert (base.parent / "case1_df_sweep.svg").exists()
        prov = json.loads((base.parent / "case1_df_sweep.provenance.json").read_text())
        assert prov["spec"]["p"] == 4

    def test_bad_value_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr("robustvar.experiments.simulate", no_simulate)
        monkeypatch.setattr("robustvar.experiments.simulate_paths", no_simulate)
        spec_path = tmp_path / "exp.json"
        for bad, message in [({"tol": 0}, "tol must be real, finite and in (0, inf), got 0"),
                             ({"n_grid": [1]}, "n must be at least 2"),
                             ({"n_grid": 30}, "n_grid must be a list of values, got 30"),
                             ({"c": float("inf")}, "c must be real, finite and in (0, inf)")]:
            spec_path.write_text(json.dumps({**bad, "output_dir": str(tmp_path / "out")}))
            assert run(["experiment", "--spec", str(spec_path), "--workers", "2"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: ValueError: {message}")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, env, message", [
        (["--workers", "0"], None, "workers must be at least 1, got 0"),
        (["--workers", "-3"], None, "workers must be at least 1, got -3"),
        ([], "abc", "ROBUSTVAR_WORKERS must be an integer, got 'abc'"),
        ([], "0", "ROBUSTVAR_WORKERS must be at least 1, got 0"),
    ])
    def test_bad_worker_count_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, flag, env, message
    ):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr("robustvar.experiments.simulate_paths", no_simulate)
        if env is not None:
            monkeypatch.setenv("ROBUSTVAR_WORKERS", env)
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
        assert run(["experiment", "--spec", str(spec_path), *flag]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_lag_key_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({"d": 1, "output_dir": str(tmp_path / "out")}))
        assert run(["experiment", "--spec", str(spec_path)]) == 1
        assert "unexpected keyword argument 'd'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDiagnoseCommand:
    def test_writes_reports(self, tmp_path):
        spec = {"p": 5, "n": 20, "df": 3.0, "tau": 1.0, "b": 3.0,
                "replications": 3, "seed": 0, "burn_in": 20,
                "n_directions": 5, "include_re": True}
        spec_path = tmp_path / "diag.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "diag.csv"
        assert run(["diagnose", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_zero_directions_fails(self, tmp_path, capsys):
        spec = {"p": 5, "n": 20, "replications": 2, "burn_in": 20,
                "n_directions": 0, "include_re": True}
        spec_path = tmp_path / "diag.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "diag.csv"
        assert run(["diagnose", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "n_directions must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_lambda_used_exactly(self, tmp_path):
        spec = {"p": 5, "n": 20, "replications": 2, "include_re": False, "lambda": 0.35}
        spec_path = tmp_path / "diag.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "diag.csv"
        assert run(["diagnose", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(float(row.split(",")[2]) == 0.35 / 2 for row in rows)

    def test_lam_key_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "diag.json"
        spec_path.write_text(json.dumps({"lam": 0.35}))
        out = tmp_path / "diag.csv"
        assert run(["diagnose", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "keyword argument 'lam'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", [{"tau": 1e308, "b": 1e10, "lambda": 0.5},
                                        {"tau": 1e200, "b": 1}])
    def test_extreme_cutoff_fails_naming_tau_and_radius(self, tmp_path, capsys, cutoff):
        # the default radius tau / (2 b_max) squared overflows; a RuntimeWarning
        # raised as an error here would be reported as one instead of a ValueError
        spec_path = tmp_path / "diag.json"
        spec_path.write_text(json.dumps({"p": 5, "n": 20, "replications": 2, "burn_in": 20,
                                         "n_directions": 5, **cutoff}))
        out = tmp_path / "diag.csv"
        assert run(["diagnose", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: radius ") and f"tau {cutoff['tau']:g}" in err
        assert not out.exists() and not (tmp_path / "diag.csv.provenance.json").exists()


REGIMES = [[[0.5]], [[-0.5]]]


class TestUnknownSpecKeys:
    @pytest.mark.parametrize(
        "command, spec, key",
        [
            ("simulate", {"kind": "var_t", "coeffs": [[[0.5]]],
                          "nosie": {"kind": "student_t", "df": 2.5}}, "nosie"),
            ("simulate", {"kind": "var_t", "coeffs": [[[0.5]]],
                          "noise": {"kind": "student_t", "df": 2.5, "scale": 2.0}}, "scale"),
            ("simulate", {"kind": "threshold_var", "models": REGIMES,
                          "partition": {"kind": "interval", "axis": 0, "breakpoints": [0.0],
                                        "closed": "left"}}, "closed"),
            ("simulate", {"kind": "threshold_var", "models": REGIMES,
                          "partiton": {"kind": "interval", "axis": 0, "breakpoints": [0.0]}},
             "partiton"),
            ("diagnose", {"n_direction": 3, "includ_re": False}, "n_direction"),
        ],
        ids=["process", "noise", "interval", "partition", "diagnose"],
    )
    def test_exits_1_naming_the_key(self, tmp_path, capsys, command, spec, key):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        argv = [command, "--spec", str(spec_path), "--out", str(out)]
        if command == "simulate":
            argv += ["--n", "10"]
        assert run(argv) == 1
        assert f"unexpected keyword argument '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestBadValues:
    @pytest.mark.parametrize(
        "command, spec, key",
        [
            ("simulate", {"kind": "threshold_var", "models": REGIMES,
                          "partition": {"kind": "interval", "axis": 3, "breakpoints": [0.0]}},
             "partition axis"),
            ("simulate", {"kind": "var_t", "coeffs": [[[0.5, 0.0], [0.0, 0.3]]],
                          "noise": {"kind": "gaussian", "sd": [1.0, 2.0, 3.0]}}, "noise sd"),
            ("diagnose", {"p": 10.0}, "p must be an integer"),
            ("diagnose", {"n": 1}, "n must be at least 2"),
            ("diagnose", {"replications": 0}, "replications must be at least 1"),
            ("diagnose", {"p": 5, "column": 12, "lambda": 0.5}, "column must be in [0, 5)"),
            ("diagnose", {"n_directions": 2.5}, "n_directions must be an integer"),
            ("diagnose", {"n": 1, "lambda": 0.5}, "n must be at least 2"),
            ("diagnose", {"p": 1, "lambda": 0.5}, "p must be at least 2, got 1"),
            ("diagnose", {"c": -1}, "c must be real, finite and in (0, inf), got -1"),
            ("diagnose", {"lambda": float("nan")}, "lam must be real, finite and in [0, inf), got nan"),
            ("diagnose", {"c": float("inf")}, "c must be real, finite and in (0, inf), got inf"),
            ("diagnose", {"c": 1e308}, "theory lambda overflows at c = 1e+308"),
        ],
        ids=["axis", "sd", "p", "n", "replications", "column", "n_directions",
             "lambda_n", "lambda_p", "c", "lambda_nan", "c_inf", "c_overflow"],
    )
    def test_exits_1_naming_the_field(self, tmp_path, capsys, command, spec, key):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        argv = [command, "--spec", str(spec_path), "--out", str(out)]
        if command == "simulate":
            argv += ["--n", "10"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and key in err
        assert not out.exists()


class TestCheckStabilityCommand:
    def test_reports_radius(self, tmp_path, capsys):
        data = tmp_path / "m.csv"
        data.write_text("# varmodel p=2 d=1\n0.5,0\n0,0.25\n")
        assert run(["check-stability", "--model", str(data)]) == 0
        out = capsys.readouterr().out
        assert "spectral_radius=0.5" in out
        assert "stable=true" in out

    def test_bad_model_names_line_and_column(self, tmp_path, capsys):
        model = tmp_path / "bad.csv"
        model.write_text("# varmodel p=2 d=1\n0.5,x\n0,0.25\n")
        assert run(["check-stability", "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: line 2, column 2: 'x' is not a number\n"


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run(["fit"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_no_command(self):
        assert run([]) == 2

    def test_a_broken_pipe_exits_1_quietly(self, monkeypatch, capsys):
        def closed_reader(path):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "read_var_model_csv", closed_reader)
        assert run(["check-stability", "--model", "m.csv"]) == 1
        assert capsys.readouterr() == ("", "")


class TestParserReuse:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the parsers built; the cached one is dropped before and after."""
        calls = []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_two_calls_build_one_parser(self, tmp_path, built):
        model = tmp_path / "m.csv"
        model.write_text("# varmodel p=1 d=1\n0.5\n")
        assert run(["check-stability", "--model", str(model)]) == 0
        assert run(["check-stability", "--model", str(model)]) == 0
        assert built == [1]
        assert build_parser() is not build_parser()

    def test_good_command_after_a_failed_parse(self, tmp_path, capsys, built):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--p", "2", "--n", "30", "--seed", "4", "--out", str(data)]) == 0
        assert run(["fit", "--input", str(data)]) == 2  # --tau is required
        assert "--tau" in capsys.readouterr().err
        out = tmp_path / "bhat.csv"
        assert run(["fit", "--input", str(data), "--tau", "1", "--out", str(out)]) == 0
        assert "columns_converged=2/2" in capsys.readouterr().out
        assert read_var_model_csv(out).p == 2
        assert built == [1]


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path, capsys, monkeypatch):
        # `python -m robustvar` is the console script, and imports without a warning
        model = tmp_path / "model.csv"
        model.write_text("# varmodel p=1 d=1\n0.5\n")
        monkeypatch.setattr("sys.argv", ["robustvar", "check-stability", "--model", str(model)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("robustvar", run_name="__main__", alter_sys=True)
        assert exc.value.code == 0
        assert capsys.readouterr().out == "p=1 d=1 spectral_radius=0.5 stable=true\n"


class TestDgpFromDict:
    def test_all_variants(self):
        cases = [
            ({"kind": "var_t", "coeffs": [[[0.5]]],
              "noise": {"kind": "student_t", "df": 3}}, VarTDgp),
            ({"kind": "arch_var", "b": [[0.5]], "f": [1.0], "f_mats": [[[0.3]]],
              "noise": {"kind": "gaussian", "sd": 1.0}}, ArchVarDgp),
            ({"kind": "univariate_arch", "b": [0.5], "d0": 1.0, "d": [0.3]},
             UnivariateArchDgp),
            ({"kind": "bekk_var", "b": [[0.5]], "c": [[0.2]], "f": [[0.5]]},
             BekkVarDgp),
            ({"kind": "threshold_var", "models": [[[0.5]], [[-0.5]]],
              "partition": {"kind": "sign"}}, ThresholdVarDgp),
            ({"kind": "rc_var", "b": [[0.5]], "gamma_sd": 0.3,
              "noise": {"kind": "scale_mixture", "components": [[0.5, 1.0], [0.5, 2.0]]}},
             RcVarDgp),
        ]
        for doc, cls in cases:
            assert isinstance(dgp_from_dict(doc), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dgp_from_dict({"kind": "mystery"})
