"""Tests for the proximal gradient solver."""

import numpy as np
import pytest

from robustvar import (
    DivergenceError,
    OptimizerConfig,
    Penalty,
    Regression,
    RobustConfig,
    robust_gradient,
)
from robustvar import losses, optimizer
from robustvar.losses import mallows_weights
from robustvar.optimizer import _lipschitz_bound, proximal_gradient_fit_columns
from robustvar.penalties import dual_value, prox

from conftest import cd_robust_lasso, objective_at, penalty_norm


def lipschitz(x, cfg):
    """The default step's curvature bound L of the design ``x``."""
    return _lipschitz_bound(x, mallows_weights(x, cfg))


class TestProximalGradientFit:
    def test_ols_limit(self):
        rng = np.random.default_rng(0)
        n, q = 2000, 5
        x = rng.standard_normal((n, q))
        beta_true = rng.standard_normal(q)
        y = x @ beta_true + rng.standard_normal(n)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1e8, b=1e8)
        opt = OptimizerConfig(step=0.9, tol=1e-7, max_iter=20000)
        res = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.0, opt)[0]
        ols = np.linalg.solve(x.T @ x, x.T @ y)
        assert res.converged
        assert np.max(np.abs(res.beta_hat - ols)) <= 1e-4

    def test_zero_response_gives_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        reg = Regression(np.zeros(30), x)
        cfg = RobustConfig(tau=1, b=3)
        res = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.5, OptimizerConfig()
        )[0]
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
            opt = OptimizerConfig(step=0.9, tol=1e-9, max_iter=50000)
            res = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, pen, lam, opt)[0]
            ref = cd_robust_lasso(y, x, lam, 1.0, 3.0)
            f_pg = objective_at(reg, res.beta_hat, cfg) + lam * penalty_norm(pen, res.beta_hat)
            f_cd = objective_at(reg, ref, cfg) + lam * penalty_norm(pen, ref)
            assert f_pg <= f_cd + 1e-6

    @pytest.mark.parametrize("seed, count", [(2, 5), (3, 20)], ids=["twin", "acceptance_04"])
    def test_default_step_matches_coordinate_descent(self, seed, count):
        # the instances of test_matches_coordinate_descent and acceptance test 04,
        # fitted at the default step, which accelerates
        rng = np.random.default_rng(seed)
        pen, lam, cfg = Penalty("l1"), 0.1, RobustConfig(tau=1.0, b=3.0)
        for k in range(count):
            n, q = 50, 3
            x = rng.standard_normal((n, q)) * 1.5
            y = x @ rng.standard_normal(q) + rng.standard_normal(n)
            reg = Regression(y, x)
            opt = OptimizerConfig(tol=1e-9, max_iter=50000)
            res = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, pen, lam, opt)[0]
            ref = cd_robust_lasso(y, x, lam, 1.0, 3.0)
            f_pg = objective_at(reg, res.beta_hat, cfg) + lam * penalty_norm(pen, res.beta_hat)
            f_cd = objective_at(reg, ref, cfg) + lam * penalty_norm(pen, ref)
            assert res.converged
            assert f_pg <= f_cd + 1e-6

    def test_overlong_fixed_steps_reach_the_minimiser(self):
        # the instances of test_matches_coordinate_descent and acceptance test 04 on
        # which their fixed step 0.9 exceeds 2/L, so descent is not guaranteed: each
        # estimate must still satisfy the l1 KKT conditions.  The residual is the
        # Euclidean distance of -grad to lam * subdiff ||beta||_1, over lam; the
        # largest of the eight reads 1.0e-8.
        pen, lam, cfg = Penalty("l1"), 0.1, RobustConfig(tau=1.0, b=3.0)
        over, zeros = [], 0
        for seed, count in ((2, 5), (3, 20)):
            rng = np.random.default_rng(seed)
            for k in range(count):
                x = rng.standard_normal((50, 3)) * 1.5
                y = x @ rng.standard_normal(3) + rng.standard_normal(50)
                if 0.9 * lipschitz(x, cfg) <= 2.0:
                    continue
                over.append((seed, k))
                reg = Regression(y, x)
                opt = OptimizerConfig(step=0.9, tol=1e-9, max_iter=50000)
                res = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, pen, lam, opt)[0]
                beta, g = res.beta_hat, robust_gradient(reg, res.beta_hat, cfg)
                dist = np.where(beta != 0, np.abs(g + lam * np.sign(beta)),
                                np.maximum(np.abs(g) - lam, 0.0))
                zeros += int(np.count_nonzero(beta == 0))
                assert res.converged
                assert np.linalg.norm(dist) / lam < 1e-7
        assert over == [(2, 1), (3, 4), (3, 5), (3, 9), (3, 12), (3, 13), (3, 15), (3, 16)]
        assert zeros == 2  # both branches of the subdifferential are checked

    def test_acceleration_cuts_iterations(self):
        # a count, not a timing: on this batch the default step takes 146
        # column-iterations and plain steps of just over 1/L take 241 (0.61x)
        rng = np.random.default_rng(41)
        x = rng.standard_normal((200, 20)) * 1.5
        y = x @ (rng.standard_normal((20, 12)) * (rng.random((20, 12)) < 0.3))
        y += rng.standard_t(3, (200, 12))
        cfg = RobustConfig(tau=1.0, b=3.0)
        plain_step = (1 + 1e-9) / lipschitz(x, cfg)
        counts = []
        for opt in (OptimizerConfig(), OptimizerConfig(step=plain_step)):
            res = proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), 0.05, opt)
            assert all(r.converged for r in res)
            counts.append(sum(r.iterations for r in res))
        assert counts[0] <= 0.75 * counts[1]

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
        res = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], RobustConfig(tau=2, b=5), pen, 0.2, OptimizerConfig()
        )[0]
        assert res.converged and res.iterations > 1
        assert checked == [4]  # the groups are checked once per fit, not per iteration
        # weak-signal block shrunk harder than the active block
        assert np.linalg.norm(res.beta_hat[2:]) < np.linalg.norm(res.beta_hat[:2])

    def test_weighted_design_built_once(self, monkeypatch):
        built = []
        real = losses._weighted_design
        for module in (losses, optimizer):
            monkeypatch.setattr(
                module, "_weighted_design", lambda x, y, w: built.append(y.shape) or real(x, y, w)
            )
        rng = np.random.default_rng(15)
        x = rng.standard_normal((60, 4)) * 2
        # columns of unequal size: from zero they take 8, 10 and 20 iterations
        y = x @ (rng.standard_normal((4, 3)) * [0.2, 1.0, 5.0]) + rng.standard_t(3, (60, 3))
        res = proximal_gradient_fit_columns(
            x, y, RobustConfig(tau=1, b=3), Penalty("l1"), 0.01, OptimizerConfig()
        )
        assert all(r.converged for r in res)
        assert len({r.iterations for r in res}) > 1  # the batch narrows as columns stop
        assert built == [(60, 3)]  # once per fit for all columns, not once per iteration

    def test_monotone_descent_with_plain_steps(self):
        # a step above 1/L takes plain proximal steps, which still descend up to 2/L
        rng = np.random.default_rng(4)
        for k in range(5):
            n, q = 40, 4
            x = rng.standard_normal((n, q)) * 3
            y = x @ rng.standard_normal(q) + rng.standard_normal(n) * 2
            reg = Regression(y, x)
            cfg = RobustConfig(tau=1, b=3)
            pen, lam = Penalty("l1"), 0.05
            step = 1.5 / lipschitz(reg.x, cfg)
            res = proximal_gradient_fit_columns(
                reg.x, reg.y[:, None], cfg, pen, lam, OptimizerConfig(step=step, tol=1e-8)
            )[0]
            # rebuild every iterate from zero with the public pieces of one step
            beta, objective = np.zeros(q), []
            for _ in range(res.iterations):
                g = robust_gradient(reg, beta, cfg)
                beta = prox(pen, (beta - res.step * g)[:, None], lam * res.step)[:, 0]
                objective.append(objective_at(reg, beta, cfg) + lam * penalty_norm(pen, beta))
            assert np.all(np.diff(objective) <= 1e-10)
            np.testing.assert_array_equal(beta, res.beta_hat)

    def test_accelerated_steps_replay(self):
        # the default step takes accelerated steps: rebuild them from zero with
        # the public gradient and prox, the momentum and the restart rule
        rng = np.random.default_rng(4)
        restarts = 0
        for k in range(5):
            n, q = 40, 4
            x = rng.standard_normal((n, q)) * 3
            y = x @ rng.standard_normal(q) + rng.standard_normal(n) * 2
            reg = Regression(y, x)
            cfg = RobustConfig(tau=1, b=3)
            pen, lam, opt = Penalty("l1"), 0.05, OptimizerConfig(tol=1e-8)
            res = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, pen, lam, opt)[0]
            beta = point = np.zeros(q)
            since, it, change = 0, 0, np.inf
            while change > opt.tol and it < opt.max_iter:
                it += 1
                g = robust_gradient(reg, point, cfg)
                beta_new = prox(pen, (point - res.step * g)[:, None], lam * res.step)[:, 0]
                # the stop measures the step from the point the gradient was taken at
                change = np.sqrt(np.sum((beta_new - point) ** 2))
                if np.sum((beta_new - point) * (beta_new - beta)) < 0:
                    since, restarts = 0, restarts + 1
                else:
                    since += 1
                point = beta_new + since / (since + 3) * (beta_new - beta)
                beta = beta_new
            assert (it, change) == (res.iterations, res.final_change)
            np.testing.assert_array_equal(beta, res.beta_hat)
        assert restarts > 0

    def test_default_step_is_inverse_curvature(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((60, 5)) * 2
        reg = Regression(x @ rng.standard_normal(5) + rng.standard_t(3, 60), x)
        cfg = RobustConfig(tau=1, b=3)
        step = 1.0 / lipschitz(reg.x, cfg)
        default = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.05, OptimizerConfig()
        )[0]
        explicit = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.05, OptimizerConfig(step=step)
        )[0]
        assert default.step == explicit.step == step
        assert default.iterations == explicit.iterations
        assert default.final_change == explicit.final_change
        np.testing.assert_array_equal(default.beta_hat, explicit.beta_hat)

    def test_fixed_step_is_reported(self):
        reg = Regression(np.ones(4), np.eye(4)[:, :2])
        res = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], RobustConfig(tau=1, b=3), Penalty("l1"), 0.1,
            OptimizerConfig(step=0.9),
        )[0]
        assert res.step == 0.9

    def test_nonpositive_step_rejected(self):
        for step in (0.0, -1.0):
            with pytest.raises(ValueError, match=r"^step must be real, finite and in \(0, inf\), got "):
                OptimizerConfig(step=step)

    def test_lipschitz_bound_dominates_weighted_gram(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3)) * 5
        reg = Regression(rng.standard_normal(30), x)
        cfg = RobustConfig(tau=1, b=2)
        L = lipschitz(reg.x, cfg)
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
        opt = OptimizerConfig(step=0.5, tol=1e-13, max_iter=100000)
        res = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.05, opt)[0]
        assert res.converged
        # restart from the solution: one further update moves it negligibly
        opt2 = OptimizerConfig(step=0.5, tol=1e-30, max_iter=1)
        g = robust_gradient(reg, res.beta_hat, cfg)
        moved = prox(Penalty("l1"), (res.beta_hat - 0.5 * g)[:, None], 0.05 * 0.5)[:, 0]
        assert np.linalg.norm(moved - res.beta_hat) <= 1e-12

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1, b=3)
        opt = OptimizerConfig()
        r1 = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.1, opt)[0]
        r2 = proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.1, opt)[0]
        assert r1.iterations == r2.iterations
        assert r1.final_change == r2.final_change
        np.testing.assert_array_equal(r1.beta_hat, r2.beta_hat)

    def test_divergence_reported_with_iteration(self):
        # the bounded loss derivative caps the gradient at tau*b_max, so a
        # non-finite iterate needs scales near the float ceiling
        reg = Regression(np.array([1.0]), np.array([[1e9]]))
        cfg = RobustConfig(tau=1e300, b=1e300)
        opt = OptimizerConfig(step=1.0, max_iter=100)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, Penalty("l1"), 0.0, opt)
        assert exc.value.iteration > 0

    def test_diverging_column_named_at_its_iteration(self):
        # a step of 3/L doubles the error along the top curvature direction
        # each iteration; columns 0 and 2 start 1e-10 from their exact fit,
        # column 1 one unit away, so column 1 overflows first, many
        # iterations in, while all three still run
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 4))
        truth = rng.standard_normal((4, 3))
        y = x @ truth
        start = truth + 1e-10
        start[:, 1] += 1.0
        cfg = RobustConfig(tau=1e308, b=1e308)
        w = mallows_weights(x, cfg)
        step = 3.0 / lipschitz(x, cfg)
        opt = OptimizerConfig(step=step, tol=1e-300, max_iter=5000)

        # oracle: out-of-place steps, stopped at the first stepped point with
        # a non-finite coordinate, checked before the prox
        beta, wc = start.copy(), w[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, opt.max_iter + 1):
                lp = np.clip(wc * (y - x @ beta), -cfg.tau, cfg.tau)
                stepped = beta - step * (-(x.T @ (lp * (wc * wc))) / x.shape[0])
                if not np.all(np.isfinite(stepped)):
                    break
                beta = np.sign(stepped) * np.maximum(np.abs(stepped) - 0.0, 0.0)
            assert it > 100
            assert np.isfinite(stepped[:, [0, 2]]).all() and not np.isfinite(stepped[:, 1]).all()
            with pytest.raises(DivergenceError) as exc:
                proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), 0.0, opt, start)
        assert (exc.value.column, exc.value.iteration) == (1, it)

    def test_max_iter_cap_sets_flag(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 3))
        y = x @ np.ones(3) + rng.standard_normal(50)
        reg = Regression(y, x)
        res = proximal_gradient_fit_columns(
            reg.x, reg.y[:, None], RobustConfig(tau=1e8, b=1e8), Penalty("l1"), 0.0,
            OptimizerConfig(step=0.9, tol=1e-16, max_iter=5),
        )[0]
        assert not res.converged
        assert res.iterations == 5

    def test_negative_lambda_rejected(self):
        reg = Regression(np.ones(3), np.ones((3, 1)))
        with pytest.raises(ValueError):
            proximal_gradient_fit_columns(
                reg.x, reg.y[:, None], RobustConfig(tau=1, b=1), Penalty("l1"), -1.0,
                OptimizerConfig(),
            )

    def test_nan_lambda_rejected(self):
        reg = Regression(np.ones(3), np.ones((3, 1)))
        with pytest.raises(ValueError, match=r"^lambda must be real, finite and in \[0, inf\), got nan$"):
            proximal_gradient_fit_columns(
                reg.x, reg.y[:, None], RobustConfig(tau=1, b=1), Penalty("l1"), np.nan,
                OptimizerConfig(),
            )


PENALTIES = pytest.mark.parametrize(
    "pen", [Penalty("l1"), Penalty("group", groups=((0, 1), (2, 3)))], ids=["l1", "group"]
)


class TestZeroScreen:
    """A column with lambda_max <= lambda is zero-optimal and never iterates."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(31)
        x = rng.standard_normal((60, 4)) * 1.5
        y = x @ rng.standard_normal((4, 6)) * 0.3 + rng.standard_t(3, (60, 6))
        return x, y, RobustConfig(tau=1.0, b=3.0)

    @PENALTIES
    def test_lambda_max_is_the_dual_norm_at_zero(self, pen):
        x, y, cfg = self.problem()
        opt = OptimizerConfig()
        batch = proximal_gradient_fit_columns(x, y, cfg, pen, 0.3, opt)
        assert {r.iterations == 0 for r in batch} == {True, False}  # screened and not
        for j in range(y.shape[1]):
            want = dual_value(pen, robust_gradient(Regression(y[:, j], x), np.zeros(4), cfg))
            one = proximal_gradient_fit_columns(x, y[:, [j]], cfg, pen, 0.3, opt)[0]
            assert one.lambda_max == want
            # a k-column product rounds differently from a one-column one
            assert batch[j].lambda_max == pytest.approx(want, rel=1e-14, abs=0)

    @PENALTIES
    def test_lambda_at_lambda_max_gives_exact_zero(self, pen):
        x, y, cfg = self.problem()
        opt = OptimizerConfig()
        for j in range(y.shape[1]):
            lam = proximal_gradient_fit_columns(x, y[:, [j]], cfg, pen, 0.0, opt)[0].lambda_max
            for scale in (1.0, 2.0):
                res = proximal_gradient_fit_columns(x, y[:, [j]], cfg, pen, scale * lam, opt)[0]
                assert res.beta_hat.tobytes() == np.zeros(4).tobytes()
                assert (res.iterations, res.final_change, res.converged) == (0, 0.0, True)
                assert res.lambda_max == lam
                assert res.step == 1.0 / lipschitz(x, cfg)

    @PENALTIES
    def test_lambda_just_below_lambda_max_iterates_to_nonzero(self, pen):
        x, y, cfg = self.problem()
        opt = OptimizerConfig()
        for j in range(y.shape[1]):
            lam = proximal_gradient_fit_columns(x, y[:, [j]], cfg, pen, 0.0, opt)[0].lambda_max
            res = proximal_gradient_fit_columns(x, y[:, [j]], cfg, pen, lam * (1 - 1e-3), opt)[0]
            assert res.converged and res.iterations > 0
            assert np.count_nonzero(res.beta_hat) > 0

    def test_screened_column_skips_its_diverging_steps(self):
        # the setting of test_diverging_column_named_at_its_iteration with a
        # zero response in front: zero is its exact fit, so it never steps,
        # although from a start two units away it would overflow first
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 4))
        truth = rng.standard_normal((4, 3))
        y = np.column_stack([np.zeros(40), x @ truth])
        start = np.column_stack([np.full(4, 2.0), truth + 1e-10])
        start[:, 2] += 1.0
        kept = start.copy()
        cfg = RobustConfig(tau=1e308, b=1e308)
        step = 3.0 / lipschitz(x, cfg)
        opt = OptimizerConfig(step=step, tol=1e-300, max_iter=5000)
        (alone,) = proximal_gradient_fit_columns(x, y[:, [0]], cfg, Penalty("l1"), 0.0, opt,
                                                 start[:, [0]])
        assert alone.beta_hat.tobytes() == np.zeros(4).tobytes()
        assert (alone.iterations, alone.converged, alone.lambda_max) == (0, True, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                proximal_gradient_fit_columns(x, y[:, 1:], cfg, Penalty("l1"), 0.0, opt,
                                              start[:, 1:])
            it = exc.value.iteration
            with pytest.raises(DivergenceError) as exc:
                proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), 0.0, opt, start)
        # named by its input index, at the iteration it overflows without the screened column
        assert (exc.value.column, exc.value.iteration) == (2, it)
        assert it > 100
        np.testing.assert_array_equal(start, kept)

    @PENALTIES
    def test_mixed_batch_leaves_start_alone(self, pen):
        x, y, cfg = self.problem()
        start = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 6))
        kept = start.copy()
        results = proximal_gradient_fit_columns(x, y, cfg, pen, 0.3, OptimizerConfig(), start)
        assert {r.iterations == 0 for r in results} == {True, False}
        np.testing.assert_array_equal(start, kept)
        for res in results:
            assert (res.iterations == 0) == (res.lambda_max <= 0.3)
            if res.iterations == 0:
                assert not res.beta_hat.any()


class TestPerColumnSettings:
    """tau and lambda given as one value per column of a k-column call."""

    @PENALTIES
    def test_each_column_fits_as_its_own_scalar_call(self, pen):
        x, y, _ = TestZeroScreen.problem()
        taus = np.array([0.5, 1.0, 2.0, 10.0, 1.0, 3.0])
        lams = np.array([0.05, 0.1, 0.02, 0.2, 50.0, 0.08])  # column 4 is zero-optimal
        cfg, opt = RobustConfig(tau=1.0, b=3.0), OptimizerConfig(tol=1e-8)
        batch = proximal_gradient_fit_columns(x, y, cfg, pen, lams, opt, tau=taus)
        assert {r.iterations == 0 for r in batch} == {True, False}
        for j, res in enumerate(batch):
            (one,) = proximal_gradient_fit_columns(
                x, y[:, [j]], RobustConfig(tau=taus[j], b=3.0), pen, lams[j], opt)
            assert res.iterations == one.iterations
            # a k-column product rounds differently from a one-column one
            np.testing.assert_allclose(res.beta_hat, one.beta_hat, rtol=0, atol=1e-13)
            assert res.lambda_max == pytest.approx(one.lambda_max, rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam, tau, message", [
        ([0.1, 0.1, -0.1, 0.1, 0.1, 0.1], None, r"^lambda must be real, finite and in \[0, inf\), got -0.1$"),
        ([0.1, 0.1, np.nan, 0.1, 0.1, 0.1], None, r"^lambda must be real, finite and in \[0, inf\), got nan$"),
        ([0.1] * 5, None, r"^lambda must be a nonempty array of shape \(6,\), got shape \(5,\)$"),
        (0.1, [1.0, 1.0, 0.0, 1.0, 1.0, 1.0], r"^tau must be real, finite and in \(0, inf\), got 0.0$"),
        (0.1, [1.0, 1.0, np.inf, 1.0, 1.0, 1.0], r"^tau must be real, finite and in \(0, inf\), got inf$"),
        (0.1, np.nan, r"^tau must be real, finite and in \(0, inf\), got nan$"),
        (0.1, [1.0] * 5, r"^tau must be a nonempty array of shape \(6,\), got shape \(5,\)$"),
    ], ids=["negative", "nan", "short", "tau_zero", "tau_inf", "tau_nan", "tau_short"])
    def test_bad_lambda_vector_rejected(self, lam, tau, message):
        x, y, cfg = TestZeroScreen.problem()
        with pytest.raises(ValueError, match=message):
            proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), lam, OptimizerConfig(), tau=tau)


class TestStart:
    """Every cold fit starts at zero; a given start is used as given."""

    def test_default_start_is_zero(self):
        x, y, cfg = TestZeroScreen.problem()
        pen, opt = Penalty("l1"), OptimizerConfig(tol=1e-8)
        cold = proximal_gradient_fit_columns(x, y, cfg, pen, 0.05, opt)
        given = proximal_gradient_fit_columns(x, y, cfg, pen, 0.05, opt, np.zeros((4, 6)))
        assert [r.iterations for r in cold] == [r.iterations for r in given]
        for a, b in zip(cold, given):
            assert a.beta_hat.tobytes() == b.beta_hat.tobytes()
        # one fixed step from zero is the prox of the step along -grad L(0)
        one = proximal_gradient_fit_columns(x, y, cfg, pen, 0.05, OptimizerConfig(step=0.1,
                                                                                  max_iter=1))
        for j, res in enumerate(one):
            g = robust_gradient(Regression(y[:, j], x), np.zeros(4), cfg)
            expected = prox(pen, -0.1 * g[:, None], 0.05 * 0.1)[:, 0]
            np.testing.assert_allclose(res.beta_hat, expected, rtol=0, atol=1e-15)

    def test_cold_start_reuses_the_screen_gradient(self, monkeypatch):
        calls = []
        real = losses._weighted_gradient
        for module in (losses, optimizer):
            monkeypatch.setattr(
                module, "_weighted_gradient",
                lambda a, wy, back, beta, tau: calls.append(beta is None)
                or real(a, wy, back, beta, tau),
            )
        x, y, cfg = TestZeroScreen.problem()
        pen, opt = Penalty("l1"), OptimizerConfig(tol=1e-8)
        passes = max(r.iterations for r in proximal_gradient_fit_columns(x, y, cfg, pen, 0.05, opt))
        # m loop passes take m gradients: the screen's at zero serves the first pass
        assert calls == [True] + [False] * (passes - 1)
        calls.clear()
        proximal_gradient_fit_columns(x, y, cfg, pen, 0.05, opt, np.zeros((4, 6)))
        assert calls == [True] + [False] * passes  # a given start takes its own first gradient

    def test_seed_has_no_effect(self):
        x, y, cfg = TestZeroScreen.problem()
        fits = [proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), 0.05,
                                              OptimizerConfig(seed=seed)) for seed in (0, 1)]
        for a, b in zip(*fits):
            assert (a.iterations, a.final_change) == (b.iterations, b.final_change)
            assert a.beta_hat.tobytes() == b.beta_hat.tobytes()
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ValueError, match=r"^seed must be "):
                OptimizerConfig(seed=seed)

    @pytest.mark.parametrize("start, message", [
        (np.zeros((4, 7)), r"a nonempty array of shape \(4, 6\), got shape \(4, 7\)$"),
        (np.zeros(4), r"a nonempty array of shape \(4, 6\), got shape \(4,\)$"),
        (np.full((4, 6), np.nan), r"real, finite and in \(-inf, inf\), got nan$"),
    ], ids=["columns", "vector", "nan"])
    def test_bad_start_rejected(self, start, message):
        x, y, cfg = TestZeroScreen.problem()
        with pytest.raises(ValueError, match="^start must be " + message):
            proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), 0.1, OptimizerConfig(), start)
