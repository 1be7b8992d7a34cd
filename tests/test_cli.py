"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from robustvar import read_series_csv, read_var_model_csv
from robustvar.cli import cli_main, dgp_from_dict
from robustvar.simulate import (
    ArchVarDgp,
    BekkVarDgp,
    RcVarDgp,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarTDgp,
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

    def test_unstable_spec_fails_cleanly(self, tmp_path, capsys):
        spec = {"kind": "var_t", "coeffs": [[[1.2]]],
                "noise": {"kind": "gaussian", "sd": 1.0}}
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(spec))
        code = run(["simulate", "--spec", str(spec_path), "--n", "10",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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


class TestCheckStabilityCommand:
    def test_reports_radius(self, tmp_path, capsys):
        data = tmp_path / "m.csv"
        data.write_text("# varmodel p=2 d=1\n0.5,0\n0,0.25\n")
        assert run(["check-stability", "--model", str(data)]) == 0
        out = capsys.readouterr().out
        assert "spectral_radius=0.5" in out
        assert "stable=true" in out


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run(["fit"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_no_command(self):
        assert run([]) == 2


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
