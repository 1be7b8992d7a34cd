"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with ``-s`` to
see them); a failing criterion fails its test.  Monte Carlo criteria use
fixed seeds so the suite is deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import robustvar as rv
from robustvar import CALIBRATED_C
from robustvar.experiments import (
    ExperimentSpec,
    aggregate,
    emit_csv,
    run_deviation_experiment,
    run_experiment,
)
from robustvar.optimizer import proximal_gradient_fit_columns
from robustvar.penalties import prox
from robustvar.simulate import (
    ArchVarDgp,
    BekkVarDgp,
    GaussianNoise,
    IntervalPartition,
    RcVarDgp,
    SignPartition,
    StabilityError,
    StudentTNoise,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarTDgp,
    indicator_map,
    sample_noise,
    simulate,
)

from conftest import cd_robust_lasso, objective_at, penalty_norm


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def golden_min_ld(fun, lo, hi, iters=120):
    one = np.longdouble(1)
    phi = (np.sqrt(np.longdouble(5)) - one) / 2
    a, b = np.longdouble(lo), np.longdouble(hi)
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return float((a + b) / 2)


def spearman(xs, ys):
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_01_gradient_vs_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(0)
    taus = [0.5, 1.0, 5.0]
    h = 1e-6
    checked = 0
    while checked < 100:
        q = int(rng.integers(1, 11))
        n = int(rng.integers(5, 51))
        tau = taus[checked % 3]
        b = float(rng.uniform(1.0, 5.0))
        x = rng.standard_normal((n, q)) * rng.uniform(0.5, 3.0)
        y = x @ rng.standard_normal(q) + rng.standard_normal(n) * 2
        beta = rng.standard_normal(q)
        reg = rv.Regression(y, x)
        cfg = rv.RobustConfig(tau=tau, b=b)
        w = rv.mallows_weights(x, cfg)
        # the gradient is exact only away from the loss kinks; keep a margin
        # wider than any finite-difference perturbation of the residuals
        if np.min(np.abs(np.abs(w * (y - x @ beta)) - tau)) < 1e-3:
            continue
        g = rv.robust_gradient(reg, beta, cfg)
        g_fd = np.empty(q)
        for k in range(q):
            bp, bm = beta.copy(), beta.copy()
            bp[k] += h
            bm[k] -= h
            g_fd[k] = (objective_at(reg, bp, cfg) - objective_at(reg, bm, cfg)) / (2 * h)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g_fd)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"gradient matches central differences on 100 instances ({elapsed:.1f}s)")


def test_02_prox_matches_golden_section():
    t0 = time.time()
    rng = np.random.default_rng(1)
    for _ in range(500):
        v = float(rng.uniform(-4, 4))
        alpha = float(rng.uniform(0, 3))
        got = prox(rv.Penalty("l1"), np.array([[v]]), alpha)[0, 0]
        want = golden_min_ld(
            lambda z: 0.5 * (z - v) ** 2 + alpha * abs(z), -abs(v) - 1, abs(v) + 1
        )
        assert abs(got - want) <= 1e-8
    pen = rv.Penalty("group", groups=((0, 1, 2),))
    for _ in range(500):
        v = rng.standard_normal(3) * rng.uniform(0.2, 3.0)
        alpha = float(rng.uniform(0, 2))
        nrm = np.linalg.norm(v)
        t_star = golden_min_ld(
            lambda z: 0.5 * (z - nrm) ** 2 + alpha * abs(z), -nrm - 1, nrm + 1
        )
        want = (v / nrm) * t_star
        got = prox(pen, v[:, None], alpha)[:, 0]
        assert np.max(np.abs(got - want)) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, f"prox operators match golden-section argmins on 1000 cases ({elapsed:.1f}s)")


def test_03_ols_limit():
    t0 = time.time()
    rng = np.random.default_rng(2)
    n, q = 2000, 5
    x = rng.standard_normal((n, q))
    y = x @ rng.standard_normal(q) + rng.standard_normal(n)
    reg = rv.Regression(y, x)
    res = proximal_gradient_fit_columns(
        reg.x,
        reg.y[:, None],
        rv.RobustConfig(tau=1e8, b=1e8),
        rv.Penalty("l1"),
        0.0,
        rv.OptimizerConfig(step=0.9, tol=1e-7, max_iter=20000, seed=0),
    )[0]
    ols = np.linalg.solve(x.T @ x, x.T @ y)
    err = float(np.max(np.abs(res.beta_hat - ols)))
    assert err <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, f"wide-threshold fit matches normal equations, linf {err:.2e} ({elapsed:.1f}s)")


def test_04_small_instance_optimality():
    t0 = time.time()
    rng = np.random.default_rng(3)
    pen = rv.Penalty("l1")
    lam, tau, b = 0.1, 1.0, 3.0
    worst = 0.0
    for k in range(20):
        n, q = 50, 3
        x = rng.standard_normal((n, q)) * 1.5
        y = x @ rng.standard_normal(q) + rng.standard_normal(n)
        reg = rv.Regression(y, x)
        cfg = rv.RobustConfig(tau=tau, b=b)
        res = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], cfg, pen, lam,
            rv.OptimizerConfig(step=0.9, tol=1e-9, max_iter=50000, seed=k),
        )[0]
        ref = cd_robust_lasso(y, x, lam, tau, b)
        f_pg = objective_at(reg, res.beta_hat, cfg) + lam * penalty_norm(pen, res.beta_hat)
        f_cd = objective_at(reg, ref, cfg) + lam * penalty_norm(pen, ref)
        worst = max(worst, f_pg - f_cd)
        assert f_pg <= f_cd + 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"solver objective within 1e-6 of coordinate descent, worst gap {worst:.2e} ({elapsed:.1f}s)")


def test_05_companion_equivalence():
    rng = np.random.default_rng(4)
    p = 3
    b1 = 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
    b2 = 0.2 * rng.standard_normal((p, p)) / np.sqrt(p)
    model = rv.VarModel((b1, b2))
    noise = StudentTNoise(3.0)
    steps, seed = 1000, 5
    direct = simulate(VarTDgp(model, noise), steps, 0, seed)
    eps = sample_noise(noise, (steps, p), np.random.default_rng(seed))
    m = rv.companion_matrix(model)
    state = np.zeros(p * 2)
    rows = np.empty((steps, p))
    for t in range(steps):
        state = m @ state
        state[:p] += eps[t]
        rows[t] = state[:p]
    np.testing.assert_array_equal(direct, rows)
    report(5, "lag-2 direct simulation equals companion single-lag simulation exactly")


def test_06_stability_gates_and_radius_accuracy():
    p2 = np.eye(2)
    builders = {
        "var_t": lambda r: VarTDgp(rv.VarModel((p2 * r,)), GaussianNoise(1.0)),
        "arch_var": lambda r: ArchVarDgp(
            b=p2 * 0.7, f=(1.0, 1.0), f_mats=(p2 * (r - 0.49),) * 2
        ),
        "univariate_arch": lambda r: UnivariateArchDgp(b=(0.7,), d0=1.0, d=(r - 0.49,)),
        "bekk_var": lambda r: BekkVarDgp(
            b=p2 * 0.7, c=p2 * 0.1, f=p2 * math.sqrt(r - 0.49)
        ),
        "threshold_var": lambda r: ThresholdVarDgp(models=(p2 * r, p2 * 0.5)),
        "rc_var": lambda r: RcVarDgp(b=p2 * 0.7, gamma_sd=math.sqrt((r - 0.49) / 2)),
    }
    for name, build in builders.items():
        spec = build(0.999)
        assert spec.stability_radius() == pytest.approx(0.999, abs=1e-9), name
        with pytest.raises(StabilityError):
            build(1.001)

    def charpoly_radius(a):
        n = a.shape[0]
        coeffs = [1.0]
        m = np.zeros_like(a)
        for k in range(1, n + 1):
            m = a @ m + coeffs[-1] * np.eye(n)
            coeffs.append(-np.trace(a @ m) / k)
        return float(np.max(np.abs(np.roots(coeffs))))

    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        assert rv.spectral_radius(a) == pytest.approx(charpoly_radius(a), abs=1e-6)
    report(6, "all process gates split 0.999/1.001; spectral radius matches root oracle")


def test_07_case1_heavy_tails_tau_ordering():
    t0 = time.time()
    spec = dataclasses.replace(rv.case1_small_heavy(seed=0, replications=20), c=CALIBRATED_C)
    assert spec.df_grid == (2.5, 2.75, 3.0, 3.25, 3.5)
    assert spec.p == 10 and spec.n_grid == (30,) and spec.b == 3.0
    rows = run_experiment(spec)
    agg = aggregate(rows, "df", "tau")
    wins = sum(agg[(1.0, df)][0] < agg[(10.0, df)][0] for df in spec.df_grid)
    elapsed = time.time() - t0
    assert wins >= 0.8 * len(spec.df_grid)
    assert elapsed < 300.0
    report(7, f"strong robustification wins at {wins}/{len(spec.df_grid)} grid points ({elapsed:.0f}s)")


def test_08_error_decreases_with_sample_size():
    t0 = time.time()
    spec = ExperimentSpec(
        case="case2_n_sweep", p=10, n_grid=(30, 60, 120, 240), df_grid=(3.0,),
        tau_grid=(1.0,), replications=10, seed=0, c=CALIBRATED_C,
    )
    rows = run_experiment(spec)
    agg = aggregate(rows, "n", "tau")
    means = [agg[(1.0, n)][0] for n in spec.n_grid]
    ratio = means[-1] / means[0]
    rho = spearman(list(spec.n_grid), means)
    elapsed = time.time() - t0
    assert ratio <= 0.7
    assert rho < 0
    assert elapsed < 300.0
    report(8, f"mean error ratio n=240/n=30 is {ratio:.2f}, Spearman {rho:.2f} ({elapsed:.0f}s)")


def test_09_deviation_pass_rate():
    t0 = time.time()
    reports = run_deviation_experiment(
        p=10, n=30, df=3.0, tau=1.0, b=3.0, c=CALIBRATED_C, replications=200, seed=0
    )
    rate = sum(r.deviation_pass for r in reports) / len(reports)
    elapsed = time.time() - t0
    assert rate >= 0.9
    assert elapsed < 180.0
    report(9, f"deviation condition holds in {rate:.1%} of 200 replications ({elapsed:.0f}s)")


def test_10_worker_count_determinism(tmp_path):
    spec = ExperimentSpec(
        case="custom", p=4, n_grid=(25,), df_grid=(3.0, 5.0), tau_grid=(1.0, 10.0),
        replications=3, seed=0, burn_in=50,
    )
    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    emit_csv(run_experiment(spec, workers=1), p1)
    emit_csv(run_experiment(spec, workers=8), p8)
    assert p1.read_bytes() == p8.read_bytes()
    report(10, "experiment CSV byte-identical for 1 and 8 workers")


def test_11_bekk_reconstruction_and_threshold_partition():
    rng = np.random.default_rng(7)
    p = 3
    spec = BekkVarDgp(
        b=np.eye(p) * 0.3,
        c=np.eye(p) * 0.4,
        f=0.4 * rng.standard_normal((p, p)) / np.sqrt(p),
        noise=GaussianNoise(1.0),
    )
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(p) * 3
        s = spec.scale_at(z)
        fz = spec.f.T @ z
        worst = max(worst, float(np.linalg.norm(s @ s - (spec.c + np.outer(fz, fz)))))
    assert worst <= 1e-10

    parts = [SignPartition(), IntervalPartition(axis=0, breakpoints=(-0.5, 0.5))]
    for part in parts:
        for _ in range(10**4):
            z = rng.standard_normal(p) * 2
            f = indicator_map(part, z)
            blocks = f.reshape(part.n_regions, p)
            assert np.count_nonzero(np.linalg.norm(blocks, axis=1)) == 1
            assert np.linalg.norm(f) == np.linalg.norm(z)
    report(11, f"scale-matrix square roots reconstruct within {worst:.1e}; one region per point")


def test_12_t_noise_moments():
    draws = sample_noise(StudentTNoise(3.0), (10**6,), np.random.default_rng(8))
    var = float(draws.var())
    med = float(np.median(draws))
    assert abs(var - 3.0) <= 0.3
    assert abs(med) <= 0.01
    report(12, f"t(3) sample variance {var:.3f} (target 3 +/- 10%), median {med:+.4f}")
