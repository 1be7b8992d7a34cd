"""Tests for the proximal gradient solver."""

import numpy as np
import pytest

from robustvar import (
    DivergenceError,
    OptimizerConfig,
    Penalty,
    Regression,
    RobustConfig,
    gradient_lipschitz_bound,
    init_beta,
    proximal_gradient_fit,
    robust_gradient,
    robust_objective,
    soft_threshold,
)
from robustvar.penalties import penalty_value

from conftest import cd_robust_lasso


class TestInitBeta:
    def test_deterministic(self):
        np.testing.assert_array_equal(init_beta(3, 7), init_beta(3, 7))

    def test_unit_norm(self):
        for q, seed in [(1, 0), (5, 1), (50, 2)]:
            assert np.linalg.norm(init_beta(q, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional(self):
        assert abs(init_beta(1, 123)[0]) == pytest.approx(1.0)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_beta(4, 0), init_beta(4, 1))


class TestProximalGradientFit:
    def test_ols_limit(self):
        rng = np.random.default_rng(0)
        n, q = 2000, 5
        x = rng.standard_normal((n, q))
        beta_true = rng.standard_normal(q)
        y = x @ beta_true + rng.standard_normal(n)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1e8, b=1e8)
        opt = OptimizerConfig(step=0.9, tol=1e-7, max_iter=20000, seed=1)
        res = proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.0, opt)
        ols = np.linalg.solve(x.T @ x, x.T @ y)
        assert res.converged
        assert np.max(np.abs(res.beta_hat - ols)) <= 1e-4

    def test_zero_response_gives_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        reg = Regression(np.zeros(30), x)
        cfg = RobustConfig(tau=1, b=3)
        res = proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.5, OptimizerConfig(seed=2))
        np.testing.assert_array_equal(res.beta_hat, np.zeros(4))
        assert res.converged

    def test_matches_coordinate_descent(self):
        rng = np.random.default_rng(2)
        pen = Penalty("l1")
        for k in range(5):
            n, q = 50, 3
            x = rng.standard_normal((n, q)) * 1.5
            y = x @ rng.standard_normal(q) + rng.standard_normal(n)
            reg = Regression(y, x)
            cfg = RobustConfig(tau=1.0, b=3.0)
            lam = 0.1
            opt = OptimizerConfig(step=0.9, tol=1e-9, max_iter=50000, seed=k)
            res = proximal_gradient_fit(reg, cfg, pen, lam, opt)
            ref = cd_robust_lasso(y, x, lam, 1.0, 3.0)
            f_pg = robust_objective(reg, res.beta_hat, cfg) + lam * penalty_value(pen, res.beta_hat)
            f_cd = robust_objective(reg, ref, cfg) + lam * penalty_value(pen, ref)
            assert f_pg <= f_cd + 1e-6

    def test_group_penalty_runs(self, monkeypatch):
        checked = []
        check = Penalty.check_coverage
        monkeypatch.setattr(
            Penalty, "check_coverage", lambda pen, q: checked.append(q) or check(pen, q)
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 4))
        y = x @ np.array([1.0, 0.5, 0.0, 0.0]) + 0.1 * rng.standard_normal(40)
        reg = Regression(y, x)
        pen = Penalty("group", groups=((0, 1), (2, 3)))
        res = proximal_gradient_fit(reg, RobustConfig(tau=2, b=5), pen, 0.2, OptimizerConfig(seed=4))
        assert res.converged and res.iterations > 1
        assert checked == [4]  # the groups are checked once per fit, not per iteration
        # weak-signal block shrunk harder than the active block
        assert np.linalg.norm(res.beta_hat[2:]) < np.linalg.norm(res.beta_hat[:2])

    def test_monotone_descent_with_default_step(self):
        rng = np.random.default_rng(4)
        for k in range(5):
            n, q = 40, 4
            x = rng.standard_normal((n, q)) * 3
            y = x @ rng.standard_normal(q) + rng.standard_normal(n) * 2
            reg = Regression(y, x)
            cfg = RobustConfig(tau=1, b=3)
            pen, lam = Penalty("l1"), 0.05
            res = proximal_gradient_fit(reg, cfg, pen, lam, OptimizerConfig(tol=1e-8, seed=k))
            # rebuild every iterate from the public pieces of one step
            beta, objective = init_beta(q, k), []
            for _ in range(res.iterations):
                g = robust_gradient(reg, beta, cfg)
                beta = soft_threshold(beta - res.step * g, lam * res.step)
                objective.append(robust_objective(reg, beta, cfg) + lam * penalty_value(pen, beta))
            assert np.all(np.diff(objective) <= 1e-10)
            np.testing.assert_array_equal(beta, res.beta_hat)

    def test_default_step_is_inverse_curvature(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((60, 5)) * 2
        reg = Regression(x @ rng.standard_normal(5) + rng.standard_t(3, 60), x)
        cfg = RobustConfig(tau=1, b=3)
        step = 1.0 / gradient_lipschitz_bound(reg, cfg)
        default = proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.05, OptimizerConfig(seed=3))
        explicit = proximal_gradient_fit(
            reg, cfg, Penalty("l1"), 0.05, OptimizerConfig(step=step, seed=3)
        )
        assert default.step == explicit.step == step
        assert default.iterations == explicit.iterations
        assert default.final_change == explicit.final_change
        np.testing.assert_array_equal(default.beta_hat, explicit.beta_hat)

    def test_fixed_step_is_reported(self):
        reg = Regression(np.ones(4), np.eye(4)[:, :2])
        res = proximal_gradient_fit(
            reg, RobustConfig(tau=1, b=3), Penalty("l1"), 0.1, OptimizerConfig(step=0.9)
        )
        assert res.step == 0.9

    def test_nonpositive_step_rejected(self):
        for step in (0.0, -1.0):
            with pytest.raises(ValueError, match="step must be positive"):
                OptimizerConfig(step=step)

    def test_lipschitz_bound_dominates_weighted_gram(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3)) * 5
        reg = Regression(rng.standard_normal(30), x)
        cfg = RobustConfig(tau=1, b=2)
        L = gradient_lipschitz_bound(reg, cfg)
        # crude upper bound: max_i w_i^3 ||x_i||^2
        norms = np.linalg.norm(x, axis=1)
        w = np.minimum(1.0, 2.0 / norms)
        assert 0 < L <= np.max(w**3 * norms**2) + 1e-12

    def test_fixed_point_stays(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 3))
        y = x @ np.array([1.0, -0.5, 0.0]) + 0.2 * rng.standard_normal(60)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=2, b=4)
        opt = OptimizerConfig(step=0.5, tol=1e-13, max_iter=100000, seed=7)
        res = proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.05, opt)
        assert res.converged
        # restart from the solution: one further update moves it negligibly
        opt2 = OptimizerConfig(step=0.5, tol=1e-30, max_iter=1, seed=7)
        g = robust_gradient(reg, res.beta_hat, cfg)
        moved = soft_threshold(res.beta_hat - 0.5 * g, 0.05 * 0.5)
        assert np.linalg.norm(moved - res.beta_hat) <= 1e-12

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1, b=3)
        opt = OptimizerConfig(seed=9)
        r1 = proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.1, opt)
        r2 = proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.1, opt)
        assert r1.iterations == r2.iterations
        assert r1.final_change == r2.final_change
        np.testing.assert_array_equal(r1.beta_hat, r2.beta_hat)

    def test_divergence_reported_with_iteration(self):
        # the bounded loss derivative caps the gradient at tau*b_max, so a
        # non-finite iterate needs scales near the float ceiling
        reg = Regression(np.array([1.0]), np.array([[1e9]]))
        cfg = RobustConfig(tau=1e300, b=1e300)
        opt = OptimizerConfig(step=1.0, max_iter=100, seed=0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            proximal_gradient_fit(reg, cfg, Penalty("l1"), 0.0, opt)
        assert exc.value.iteration > 0

    def test_max_iter_cap_sets_flag(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 3))
        y = x @ np.ones(3) + rng.standard_normal(50)
        reg = Regression(y, x)
        res = proximal_gradient_fit(
            reg, RobustConfig(tau=1e8, b=1e8), Penalty("l1"), 0.0,
            OptimizerConfig(step=0.9, tol=1e-16, max_iter=5, seed=0),
        )
        assert not res.converged
        assert res.iterations == 5

    def test_negative_lambda_rejected(self):
        reg = Regression(np.ones(3), np.ones((3, 1)))
        with pytest.raises(ValueError):
            proximal_gradient_fit(reg, RobustConfig(tau=1, b=1), Penalty("l1"), -1.0, OptimizerConfig())

    def test_nan_lambda_rejected(self):
        reg = Regression(np.ones(3), np.ones((3, 1)))
        with pytest.raises(ValueError, match="lambda must be nonnegative, got nan"):
            proximal_gradient_fit(reg, RobustConfig(tau=1, b=1), Penalty("l1"), np.nan, OptimizerConfig())
