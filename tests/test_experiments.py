"""Tests for the experiment harness, CSV schema, and SVG rendering."""

import collections
import dataclasses
import importlib
import json
import logging
import math
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import robustvar.experiments as exps
from robustvar import diagnostics, losses, optimizer, var
from robustvar import (
    ExperimentSpec,
    FitConfig,
    RobustConfig,
    StabilityError,
    StudentTNoise,
    VarModel,
    VarTDgp,
    aggregate,
    case1_medium,
    case1_small,
    case1_small_heavy,
    case2,
    case3,
    emit_csv,
    estimation_error,
    fit_var,
    gen_er_transition,
    read_results_csv,
    run_experiment,
    simulate,
)
from robustvar._seeds import derive_seed
from robustvar.experiments import spec_from_dict, spec_to_dict, write_provenance
from robustvar.simulate import SimulationError
from robustvar.svgplot import emit_svg_lines

sim = importlib.import_module("robustvar.simulate")  # the package's ``simulate`` is the function


def record_stacks(monkeypatch):
    """Make ``exps.simulate_paths`` record the (paths, n) of each call."""
    calls, real = [], exps.simulate_paths

    def spy(specs, n, burn_in, seeds):
        calls.append((len(specs), n))
        return real(specs, n, burn_in, seeds)

    monkeypatch.setattr(exps, "simulate_paths", spy)
    return calls


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
        with pytest.raises(ValueError, match="step"):
            tiny_spec(step=0.0)
        for bad, field in [
            ({"tau_grid": (0.0,)}, "tau"),
            ({"b": 0}, "b"),
            ({"c": -1}, "c"),
            ({"lambda_mode": "explicit", "lam": -1}, "lam"),
            ({"tol": 0}, "tol"),
            ({"max_iter": 0}, "max_iter"),
            ({"df_grid": (2.0,)}, "df"),
            ({"p": 1}, "p"),
            ({"n_grid": (1,)}, "n"),
            ({"replications": 2.5}, "replications"),
            ({"burn_in": -1}, "burn_in"),
            ({"density": 0}, "density"),
            ({"rho_target": 0}, "rho_target"),
            ({"max_iter": 2.5}, "max_iter"),
            ({"seed": 1.5}, "seed"),
            ({"c": float("inf")}, "c"),
            ({"c": 1e308}, "c"),
            ({"n_grid": 30}, "n_grid"),
            ({"tau_grid": "1"}, "tau_grid"),
        ]:
            with pytest.raises(ValueError, match=rf"\b{field}\b"):
                tiny_spec(**bad)

    def test_theory_mode_rejects_lam(self):
        with pytest.raises(ValueError, match="^lam must be 0 in theory mode, got 0.3$"):
            spec_from_dict({"lam": 0.3})

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

        def boom_stacked(specs, *a, **k):
            return [SimulationError("non-finite state at step 1") for _ in specs]

        monkeypatch.setattr(exps, "simulate", boom)
        monkeypatch.setattr(exps, "simulate_paths", boom_stacked)
        rows = run_experiment(tiny_spec())
        assert len(rows) == 2
        assert all(math.isnan(r["error"]) for r in rows)
        assert all(not r["converged"] for r in rows)

    def test_mixed_n_grid_same_bytes_for_any_worker_count(self, tmp_path):
        spec = tiny_spec(p=5, n_grid=(20, 35), df_grid=(2.5, 4.0), replications=3)
        texts = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            emit_csv(run_experiment(spec, workers=workers), path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        # each row is a fit on the replication's own single path
        for row in run_experiment(spec):
            b = gen_er_transition(5, spec.density, spec.rho_target, derive_seed(row["seed"], 0))
            truth = VarModel((b,))
            data = simulate(VarTDgp(truth, StudentTNoise(row["df"])), row["n"], spec.burn_in,
                            derive_seed(row["seed"], 1, 0))
            est, _ = fit_var(data, 1, spec.fit_config(row["tau"]))
            assert row["error"] == estimation_error(est, truth)

    def test_one_stacked_recursion_per_n_at_one_worker(self, monkeypatch):
        def no_simulate(*a, **k):
            raise AssertionError("simulate called, but no path failed")

        calls = record_stacks(monkeypatch)
        monkeypatch.setattr(exps, "simulate", no_simulate)
        run_experiment(tiny_spec(n_grid=(20, 35), df_grid=(2.5, 4.0), replications=3))
        assert calls == [(6, 20), (6, 35)]

    def test_settings_built_once_per_stack(self, monkeypatch):
        spec = tiny_spec(n_grid=(20, 35), df_grid=(2.5, 4.0), replications=3)
        taus, models = [], []
        fit_config = ExperimentSpec.fit_config
        monkeypatch.setattr(ExperimentSpec, "fit_config",
                            lambda self, tau: taus.append(tau) or fit_config(self, tau))
        monkeypatch.setattr(exps, "VarModel", lambda coeffs: models.append(1) or VarModel(coeffs))
        monkeypatch.setattr(exps, "ProcessPoolExecutor", ThreadPoolExecutor)  # the spies see it
        # one stack of 6 per n at 1 worker; two of 3 per n at 2
        for workers, stacks in ((1, 2), (2, 4)):
            taus.clear(), models.clear()
            run_experiment(spec, workers=workers)
            assert taus == list(spec.tau_grid) * stacks
            # the truth of each replication, and the estimate of each of its 2 tau levels
            assert len(models) == 12 * 3

    def test_package_made_values_are_not_checked_again(self, monkeypatch):
        checked, radii = [], []
        real_check, real_radius = var._check_shape, var._radius
        for module in (var, sim, losses, optimizer, diagnostics):
            monkeypatch.setattr(module, "_check_shape",
                                lambda name, *args, **kw: checked.append(name)
                                or real_check(name, *args, **kw))
        monkeypatch.setattr(sim, "_radius", lambda a: radii.append(a.shape) or real_radius(a))
        dgp = exps._study_dgp(10, 0.3, 0.5, 3.0, derive_seed(7, 0, 0))
        # no shape check, and every gate still runs: the draw's radius, then the truth's
        assert checked == [] and radii == [(10, 10), (10, 10)]
        data = simulate(dgp, 60, 20, 1)
        fit = FitConfig(RobustConfig(tau=1.0, b=3.0), lambda_mode="explicit", lam=0.05)
        est, _ = fit_var(data, 1, fit)
        # the series where it enters, and not the estimate; the design is checked
        # again by mallows_weights, a public entry point the solver calls by name
        assert checked == ["data", "x"]
        assert est.coeffs[0].shape == (10, 10) and est.coeffs[0].any()

    def test_an_unstable_truth_fails_its_gate(self):
        spec = tiny_spec(rho_target=1.5)  # a valid setting: the process gate rejects it
        with pytest.raises(StabilityError, match=r"^companion spectral radius 1\.5 >= 1$"):
            run_experiment(spec)

    def test_failed_path_retries_alone(self, monkeypatch, caplog):
        spec = tiny_spec(df_grid=(2.5, 4.0), replications=2)
        expected = run_experiment(spec)
        real_paths, real_simulate, retried = exps.simulate_paths, exps.simulate, []

        def second_fails(specs, n, burn_in, seeds):
            paths = real_paths(specs, n, burn_in, seeds)
            paths[1] = SimulationError("non-finite state at step 3")
            return paths

        def counted(*args):
            retried.append(args[3])
            return real_simulate(*args)

        monkeypatch.setattr(exps, "simulate_paths", second_fails)
        monkeypatch.setattr(exps, "simulate", counted)
        with caplog.at_level(logging.INFO, logger="robustvar.experiments"):
            rows = run_experiment(spec)
        # the second task is cell 0, rep 1: two rows, one per tau
        assert [r.getMessage() for r in caplog.records] == [
            "cell 0 rep 1 attempt 0: non-finite state at step 3"]
        assert retried == [derive_seed(derive_seed(spec.seed, 0, 1), 1, 1)]
        assert rows[:2] == expected[:2] and rows[4:] == expected[4:]
        assert all(math.isfinite(r["error"]) for r in rows[2:4])

    def test_stacks_bounded_by_bytes(self, monkeypatch):
        spec = tiny_spec(n_grid=(20, 35), df_grid=(2.5, 4.0), replications=3)
        expected = run_experiment(spec)
        # four 70-step paths of p=4, or three 85-step ones
        monkeypatch.setattr(exps, "_STACK_BYTES", 4 * 16 * 70 * 4)
        calls = record_stacks(monkeypatch)
        assert run_experiment(spec) == expected
        assert calls == [(4, 20), (2, 20), (3, 35), (3, 35)]

    def test_workers_share_each_n(self, monkeypatch):
        # each n's 6 tasks are cut into one stack per worker, so each worker draws both n
        spec = tiny_spec(n_grid=(20, 35), df_grid=(2.5, 4.0), replications=3)
        expected = run_experiment(spec)
        monkeypatch.setattr(exps, "ProcessPoolExecutor", ThreadPoolExecutor)
        calls = record_stacks(monkeypatch)
        assert run_experiment(spec, workers=2) == expected
        assert sorted(calls) == [(3, 20), (3, 20), (3, 35), (3, 35)]

    def test_repeated_n_drawn_once(self, monkeypatch):
        # n=20 labels two cells per df: 12 tasks, and 6 of n=35
        spec = tiny_spec(p=5, n_grid=(20, 20, 35), df_grid=(2.5, 4.0), replications=3)
        expected = run_experiment(spec)
        monkeypatch.setattr(exps, "ProcessPoolExecutor", ThreadPoolExecutor)
        calls = record_stacks(monkeypatch)
        for workers in (1, 2, 3):
            calls.clear()
            assert run_experiment(spec, workers=workers) == expected
            drawn = collections.Counter()
            for size, n in calls:
                drawn[n] += size
            assert drawn == {20: 12, 35: 6}

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True, "2"])
    def test_bad_worker_count_rejected(self, monkeypatch, workers):
        monkeypatch.setattr(exps, "simulate_paths", None)  # nothing may be drawn
        with pytest.raises(ValueError, match=r"^workers must be "):
            run_experiment(tiny_spec(), workers=workers)

    @pytest.mark.parametrize("value, message", [
        ("abc", "an integer, got 'abc'"), ("1.5", "an integer, got '1.5'"),
        ("", "an integer, got ''"), ("0", "at least 1, got 0"), ("-3", "at least 1, got -3"),
    ])
    def test_bad_worker_variable_rejected(self, monkeypatch, value, message):
        monkeypatch.setenv("ROBUSTVAR_WORKERS", value)
        monkeypatch.setattr(exps, "simulate_paths", None)
        with pytest.raises(ValueError, match=f"^ROBUSTVAR_WORKERS must be {message}$"):
            run_experiment(tiny_spec())

    def test_worker_variable_read(self, monkeypatch):
        sizes = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(exps, "ProcessPoolExecutor", Pool)
        spec = tiny_spec(df_grid=(2.5, 4.0), replications=2)
        expected = run_experiment(spec, workers=1)
        monkeypatch.setenv("ROBUSTVAR_WORKERS", " 2 ")
        assert run_experiment(spec) == expected
        assert sizes == [2]

    @pytest.mark.parametrize("workers, started", [(2, 2), (8, 4)])
    def test_no_idle_workers_started(self, monkeypatch, workers, started):
        sizes = []

        class Pool(ThreadPoolExecutor):  # records the pool size, starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(exps, "ProcessPoolExecutor", Pool)
        spec = tiny_spec(df_grid=(2.5, 4.0), replications=2)
        assert run_experiment(spec, workers=workers) == run_experiment(spec)
        assert sizes == [started]

    def test_each_task_fits_once_from_zero(self, monkeypatch):
        calls, real = [], exps.proximal_gradient_fit_columns

        def spy(*args, **kwargs):
            calls.append(len(args) > 6 or "start" in kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(exps, "proximal_gradient_fit_columns", spy)
        rows = run_experiment(tiny_spec(replications=3, tau_grid=(1.0, 3.0, 10.0)))
        assert len(rows) == 9 and calls == [False] * 3  # no start given: every column from zero

    def test_explicit_step_beyond_curvature_warns_once_per_replication(self, caplog):
        spec = tiny_spec(replications=2, step=1e3, max_iter=5)
        with caplog.at_level(logging.INFO, logger="robustvar.experiments"):
            run_experiment(spec)
        warned = [r for r in caplog.records if "exceeds 2/L" in r.getMessage()]
        assert len(warned) == 2
        assert all(r.levelno == logging.WARNING for r in warned)

    def test_explicit_step_within_curvature_is_silent(self, caplog):
        with caplog.at_level(logging.INFO, logger="robustvar.experiments"):
            run_experiment(tiny_spec(step=1e-3, max_iter=5))
        assert caplog.records == []

    @pytest.mark.parametrize("step", [None, 1e-3])
    def test_one_solver_call_per_replication(self, monkeypatch, step):
        # every tau level shares one design check, weighting, curvature bound and step guard
        counts = collections.Counter()

        def count(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, **k: counts.update([name]) or real(*a, **k))

        count(exps, "proximal_gradient_fit_columns")
        count(optimizer, "mallows_weights")
        count(optimizer, "_lipschitz_bound")
        rows = run_experiment(tiny_spec(replications=2, tau_grid=(1.0, 3.0, 10.0), step=step))
        assert len(rows) == 6 and all(math.isfinite(r["error"]) for r in rows)
        assert counts == {"proximal_gradient_fit_columns": 2, "mallows_weights": 2,
                          "_lipschitz_bound": 2}

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

    @pytest.mark.parametrize(
        "header, body, message",
        [
            (None, "custom,3,20,1,3,1,0.5,0,0.25,4,true,7\ncustom,3,x,1,3,1,0.5,1,0.25,4,true,8\n",
             "^line 3, column n: 'x' is not a number$"),
            (None, "custom,3,20,1,3,1,0.5,0,0.25,4,true\n",
             "^line 2 has 11 values, the header names 12$"),
            ("case,p,n", "custom,3,20\n", r"^unexpected header \['case', 'p', 'n'\]$"),
        ],
        ids=["cell", "ragged", "header"],
    )
    def test_bad_row_names_line_and_column(self, tmp_path, header, body, message):
        path = tmp_path / "bad.csv"
        path.write_text((header or ",".join(exps.CSV_FIELDS)) + "\n" + body)
        with pytest.raises(ValueError, match=message):
            read_results_csv(path)

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
