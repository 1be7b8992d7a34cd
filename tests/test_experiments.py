"""Tests for the experiment harness, CSV schema, and SVG rendering."""

import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import robustvar.experiments as exps
from robustvar import (
    ExperimentSpec,
    aggregate,
    case1_medium,
    case1_small,
    case1_small_heavy,
    case2,
    case3,
    emit_csv,
    read_results_csv,
    run_experiment,
)
from robustvar.experiments import spec_from_dict, spec_to_dict, write_provenance
from robustvar.simulate import SimulationError
from robustvar.svgplot import emit_svg_lines


def tiny_spec(**kw):
    base = dict(
        case="case1_df_sweep", p=4, n_grid=(25,), df_grid=(3.0,),
        tau_grid=(1.0, 10.0), replications=1, seed=0, burn_in=50,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecAndPresets:
    def test_case1_presets_match_benchmark_settings(self):
        small, medium = case1_small(), case1_medium()
        assert (small.p, small.n_grid) == (10, (30,))
        assert (medium.p, medium.n_grid) == (30, (60,))
        for s in (small, medium):
            assert s.tau_grid == (1.0, 10.0)
            assert s.df_grid == (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
            assert s.b == 3.0
            assert s.density == 0.05
            assert s.rho_target == 0.5
        heavy = case1_small_heavy()
        assert heavy.df_grid == (2.5, 2.75, 3.0, 3.25, 3.5)
        assert heavy.replications == 20

    def test_case23_presets(self):
        c2, c3 = case2(), case3()
        assert c2.tau_grid == (1.0, 10.0) and c2.replications == 10
        assert c3.tau_grid == (1.0, 3.0) and c3.replications == 20
        assert c2.df_grid == (3.0,) and c3.df_grid == (3.0,)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            tiny_spec(case="case9")
        with pytest.raises(ValueError):
            tiny_spec(tau_grid=())
        with pytest.raises(ValueError):
            tiny_spec(replications=0)

    def test_spec_dict_roundtrip(self):
        spec = case3(p=30, seed=5)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestRunExperiment:
    def test_smoke_two_rows(self):
        rows = run_experiment(tiny_spec())
        assert len(rows) == 2
        assert {r["tau"] for r in rows} == {1.0, 10.0}
        assert all(math.isfinite(r["error"]) for r in rows)

    def test_paired_taus_share_seed(self):
        rows = run_experiment(tiny_spec())
        assert rows[0]["seed"] == rows[1]["seed"]

    def test_deterministic_csv(self, tmp_path):
        spec = tiny_spec(replications=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(spec), p1)
        emit_csv(run_experiment(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        spec = tiny_spec(replications=3, df_grid=(3.0, 5.0))
        rows1 = run_experiment(spec, workers=1)
        rows4 = run_experiment(spec, workers=4)
        p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        emit_csv(rows1, p1)
        emit_csv(rows4, p4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_missing_cell_recorded_not_imputed(self, monkeypatch):
        def boom(*a, **k):
            raise SimulationError("non-finite state at step 1")

        monkeypatch.setattr(exps, "simulate", boom)
        rows = run_experiment(tiny_spec())
        assert len(rows) == 2
        assert all(math.isnan(r["error"]) for r in rows)
        assert all(not r["converged"] for r in rows)

    def test_explicit_lambda_mode(self):
        rows = run_experiment(tiny_spec(lambda_mode="explicit", lam=0.25))
        assert all(r["lambda"] == 0.25 for r in rows)


class TestCsv:
    def test_schema_and_field_count(self, tmp_path):
        rows = run_experiment(tiny_spec())
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "case,p,n,d,df,tau,lambda,rep,error,iterations,converged,seed"
        assert all(len(line.split(",")) == 12 for line in lines[:-1])

    def test_single_cell_two_lines(self, tmp_path):
        rows = run_experiment(tiny_spec(tau_grid=(1.0,)))
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        assert len(path.read_text().splitlines()) == 2

    def test_roundtrip(self, tmp_path):
        rows = run_experiment(tiny_spec(replications=2))
        path = tmp_path / "rt.csv"
        emit_csv(rows, path)
        assert read_results_csv(path) == rows

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(run_experiment(tiny_spec()), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "empty.csv")


class TestAggregate:
    def test_mean_and_stderr(self):
        rows = [
            {"tau": 1.0, "n": 30, "error": 1.0},
            {"tau": 1.0, "n": 30, "error": 3.0},
            {"tau": 1.0, "n": 60, "error": 2.0},
        ]
        agg = aggregate(rows, "n", "tau")
        mean, se, count = agg[(1.0, 30)]
        assert mean == 2.0 and count == 2
        assert se == pytest.approx(np.std([1.0, 3.0], ddof=1) / np.sqrt(2))

    def test_nan_skipped(self):
        rows = [
            {"tau": 1.0, "n": 30, "error": 1.0},
            {"tau": 1.0, "n": 30, "error": math.nan},
        ]
        agg = aggregate(rows, "n", "tau")
        assert agg[(1.0, 30)][2] == 1


class TestProvenance:
    def test_run_reconstructible_from_provenance(self, tmp_path):
        spec = tiny_spec(replications=2)
        csv_path = tmp_path / "run.csv"
        emit_csv(run_experiment(spec), csv_path)
        prov = tmp_path / "run.provenance.json"
        write_provenance(prov, {"spec": spec_to_dict(spec), "outputs": [str(csv_path)]})

        doc = json.loads(prov.read_text())
        spec_back = spec_from_dict(doc["spec"])
        csv2 = tmp_path / "rerun.csv"
        emit_csv(run_experiment(spec_back), csv2)
        assert csv2.read_bytes() == csv_path.read_bytes()
        assert "PCG64" in doc["rng"]


class TestSvg:
    def make_rows(self):
        rows = []
        rng = np.random.default_rng(0)
        for tau in (1.0, 10.0):
            for n in (30, 60, 120, 240):
                for rep in range(3):
                    rows.append(
                        {"tau": tau, "n": n, "error": 1.0 / np.sqrt(n) * tau + rng.uniform(0, 0.01)}
                    )
        return rows

    def test_polyline_count(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg_lines(self.make_rows(), "n", "tau", path)
        root = ET.parse(path).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_well_formed_xml(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg_lines(self.make_rows(), "n", "tau", path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"

    def test_monotone_series_renders_monotone(self, tmp_path):
        rows = [
            {"tau": 1.0, "n": n, "error": 2.0 - 0.4 * i}
            for i, n in enumerate((30, 60, 120, 240))
        ]
        path = tmp_path / "mono.svg"
        emit_svg_lines(rows, "n", "tau", path)
        root = ET.parse(path).getroot()
        poly = root.find(".//{http://www.w3.org/2000/svg}polyline")
        ys = [float(pt.split(",")[1]) for pt in poly.get("points").split()]
        # decreasing error means increasing screen y
        assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))

    def test_degenerate_single_x_warns_points_only(self, tmp_path):
        rows = [{"tau": t, "n": 30, "error": 1.0 + t} for t in (1.0, 3.0)]
        path = tmp_path / "deg.svg"
        with pytest.warns(UserWarning):
            emit_svg_lines(rows, "n", "tau", path)
        root = ET.parse(path).getroot()
        assert not root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert root.findall(".//{http://www.w3.org/2000/svg}circle")

    def test_missing_field_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg_lines([{"a": 1}], "n", "tau", tmp_path / "x.svg")
