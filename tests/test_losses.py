"""Tests for the Huber loss, Mallows weights, and the robust objective/gradient."""

import math

import numpy as np
import pytest

from robustvar import (
    Regression,
    RobustConfig,
    mallows_weights,
    re_check,
    robust_gradient,
)
from robustvar.losses import _huber, robust_gradient_columns, robust_objective_columns

from conftest import objective_at


def naive_objective(y, x, beta, tau, b, shrink=None, form="linear"):
    """Independent double-loop re-implementation of the weighted objective."""
    n = len(y)
    total = 0.0
    for i in range(n):
        xi = x[i]
        zi = xi if shrink is None else shrink @ xi
        nrm = math.sqrt(sum(v * v for v in zi))
        if nrm == 0:
            w = 1.0
        elif form == "linear":
            w = min(1.0, b / nrm)
        else:
            w = min(1.0, b * b / (nrm * nrm))
        r = w * (y[i] - sum(xi[k] * beta[k] for k in range(len(beta))))
        loss = 0.5 * r * r if abs(r) <= tau else tau * abs(r) - 0.5 * tau * tau
        total += w * loss
    return total / n


def naive_gradient(y, x, beta, tau, b):
    """Independent double-loop gradient with identity shrinkage."""
    n, q = x.shape
    g = np.zeros(q)
    for i in range(n):
        nrm = np.linalg.norm(x[i])
        w = 1.0 if nrm == 0 else min(1.0, b / nrm)
        r = w * (y[i] - x[i] @ beta)
        lp = max(-tau, min(tau, r))
        g -= lp * w * w * x[i]
    return g / n


def out_of_place_gradient(x, y, beta, w, tau):
    """The out-of-place form of the ``robust_gradient_columns`` expression,
    a bit-for-bit oracle for its in-place computation."""
    wc = w[:, None]
    a = x * wc
    lp = np.clip(y * wc - a @ beta, -tau, tau)
    return ((a * -wc).T @ lp) / x.shape[0]


def masked_weights(x, cfg):
    """The masked form of ``mallows_weights``: weight 1 on zero rows, b / ||z||
    (or its square) on the others, with z the row after the shrinkage product."""
    norms = np.linalg.norm(x if cfg.shrinkage is None else x @ cfg.shrinkage.T, axis=1)
    w = np.ones_like(norms)
    nz = norms > 0.0
    if cfg.weight_form == "linear":
        w[nz] = np.minimum(1.0, cfg.b / norms[nz])
    else:
        w[nz] = np.minimum(1.0, cfg.b * cfg.b / norms[nz] ** 2)
    return w


def huber_derivative(u, tau):
    """Huber'(u) for each entry of ``u``, read off the gradient kernel: one
    unit design row with weight 1 and one response column per entry."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    g = robust_gradient_columns(np.ones((1, 1)), u[None, :], np.zeros((1, u.size)), np.ones(1), tau)
    return -g[0]


def fd_gradient(reg, beta, cfg, h=1e-6):
    g = np.zeros_like(beta)
    for k in range(len(beta)):
        bp, bm = beta.copy(), beta.copy()
        bp[k] += h
        bm[k] -= h
        g[k] = (objective_at(reg, bp, cfg) - objective_at(reg, bm, cfg)) / (2 * h)
    return g


class TestHuber:
    def test_origin(self):
        assert _huber(0, 1) == 0.0

    def test_quadratic_branch(self):
        assert _huber(1, 2) == pytest.approx(0.5)

    def test_linear_branch(self):
        assert _huber(3, 1) == pytest.approx(2.5)

    def test_even_and_odd(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = float(rng.normal() * 3)
            tau = float(rng.uniform(0.1, 5))
            assert _huber(u, tau) == _huber(-u, tau)
            assert huber_derivative(-u, tau) == -huber_derivative(u, tau)

    def test_dominated_by_least_squares(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=1000) * 5
        tau = 0.7
        assert np.all(_huber(u, tau) <= 0.5 * u * u + 1e-15)

    def test_derivative_values(self):
        assert huber_derivative(0, 1) == 0.0
        assert huber_derivative(0.4, 1) == pytest.approx(0.4)
        assert huber_derivative(-5, 2) == pytest.approx(-2.0)

    def test_derivative_bounded(self):
        u = np.linspace(-100, 100, 1001)
        assert np.all(np.abs(huber_derivative(u, 1.5)) <= 1.5)

    def test_quadratic_branch_is_half_square_bit_for_bit(self):
        u = np.random.default_rng(2).normal(size=1000)
        inside = np.abs(u) <= 1.5
        np.testing.assert_array_equal(_huber(u, 1.5)[inside], (0.5 * u * u)[inside])

    def test_no_unused_branch_overflows(self):
        # each loss is finite, but tau * tau, or u * u, alone overflows
        np.testing.assert_array_equal(_huber(np.array([0.5, -3.0]), np.float64(1e200)),
                                      [0.125, 4.5])
        np.testing.assert_array_equal(_huber(np.array([-1e200]), 1.0), [1e200])

    def test_continuity_at_cutoff(self):
        tau = 1.3
        eps = 1e-9
        assert _huber(tau + eps, tau) == pytest.approx(_huber(tau - eps, tau), abs=1e-8)

    def test_nonfinite_rejected(self):
        # an infinite residual makes the loss infinite; the unvalidated kernel
        # returns it, and the curvature check, which evaluates the loss at a
        # given truth, rejects that truth
        reg = Regression(y=np.array([1.0]), x=np.array([[1.0]]))
        beta = np.array([np.inf])
        assert robust_objective_columns(reg.x, reg.y, beta[None, :], np.ones(1), 1.0)[0] == np.inf
        with pytest.raises(ValueError):
            re_check(reg, beta, RobustConfig(tau=1, b=1))

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            RobustConfig(tau=0.0, b=1.0)


class TestMallowsWeight:
    def test_halved_at_twice_radius(self):
        cfg = RobustConfig(tau=1, b=3)
        x = np.array([6.0, 0.0, 0.0])
        assert mallows_weights(x[None, :], cfg)[0] == pytest.approx(0.5)

    def test_zero_vector_convention(self):
        cfg = RobustConfig(tau=1, b=3)
        assert mallows_weights(np.zeros(4)[None, :], cfg)[0] == 1.0

    def test_saturates_at_one(self):
        cfg = RobustConfig(tau=1, b=3)
        x = np.array([2.0, 0.0])
        assert mallows_weights(x[None, :], cfg)[0] == 1.0

    def test_quadratic_form(self):
        cfg = RobustConfig(tau=1, b=3, weight_form="quadratic")
        x = np.array([6.0, 0.0])
        assert mallows_weights(x[None, :], cfg)[0] == pytest.approx(0.25)

    def test_bounded_influence(self):
        rng = np.random.default_rng(2)
        for form in ("linear", "quadratic"):
            cfg = RobustConfig(tau=1, b=2.5, weight_form=form)
            for _ in range(200):
                x = rng.standard_normal(5) * rng.uniform(0.1, 50)
                w = mallows_weights(x[None, :], cfg)[0]
                assert 0 < w <= 1
                assert w * np.linalg.norm(x) <= cfg.b_max + 1e-12

    def test_shrinkage_matrix(self):
        shrink = np.diag([2.0, 1.0])
        cfg = RobustConfig(tau=1, b=3, shrinkage=shrink)
        assert cfg.b_max == pytest.approx(3.0)
        x = np.array([6.0, 0.0])  # ||B x|| = 12
        assert mallows_weights(x[None, :], cfg)[0] == pytest.approx(0.25)
        w = mallows_weights(x[None, :], cfg)[0]
        assert w * np.linalg.norm(x) <= cfg.b_max + 1e-12

    def test_dimension_mismatch(self):
        cfg = RobustConfig(tau=1, b=3, shrinkage=np.eye(2))
        with pytest.raises(ValueError):
            mallows_weights(np.ones(3)[None, :], cfg)

    def test_nonfinite_row_rejected(self):
        cfg = RobustConfig(tau=1, b=3)
        with pytest.raises(ValueError):
            mallows_weights(np.array([[np.nan, 1.0], [6.0, 0.0]]), cfg)
        with pytest.raises(ValueError):
            mallows_weights(np.array([np.inf, 1.0])[None, :], cfg)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 4)) * 3
        for form in ("linear", "quadratic"):
            cfg = RobustConfig(tau=1, b=2, weight_form=form)
            ws = mallows_weights(x, cfg)
            for i in range(50):
                assert ws[i] == pytest.approx(mallows_weights(x[i][None, :], cfg)[0], rel=1e-14)

    def test_bit_identical_to_masked_form(self):
        # 1,200 designs with zero rows, with and without shrinkage, both forms,
        # rows short and long enough for numpy's unrolled pairwise sum (q >= 8)
        rng = np.random.default_rng(12)
        for case in range(1200):
            n, q = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            x = rng.standard_t(2, (n, q)) * rng.uniform(0.1, 10)
            x[rng.uniform(size=n) < 0.2] = 0.0
            shrink = None
            if case % 2:
                m = rng.standard_normal((q, q))
                shrink = m @ m.T + q * np.eye(q)
            cfg = RobustConfig(tau=1, b=float(rng.uniform(0.1, 5)), shrinkage=shrink,
                               weight_form=("linear", "quadratic")[case // 2 % 2])
            assert mallows_weights(x, cfg).tobytes() == masked_weights(x, cfg).tobytes()

    def test_non_pd_shrinkage_rejected(self):
        with pytest.raises(ValueError):
            RobustConfig(tau=1, b=1, shrinkage=np.diag([1.0, -0.5]))

    def test_unknown_weight_form_names_it(self):
        with pytest.raises(ValueError, match="^unknown weight_form 'cubic'$"):
            RobustConfig(tau=1, b=3, weight_form="cubic")


class TestRobustObjective:
    def test_zero_residuals(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 3))
        beta = rng.standard_normal(3)
        reg = Regression(y=x @ beta, x=x)
        cfg = RobustConfig(tau=1, b=3)
        assert objective_at(reg, beta, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_single_point_linear_branch(self):
        reg = Regression(y=np.array([3.0]), x=np.array([[0.0]]))
        cfg = RobustConfig(tau=1, b=3)
        assert objective_at(reg, np.array([0.0]), cfg) == pytest.approx(2.5)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for form in ("linear", "quadratic"):
            for _ in range(20):
                n, q = int(rng.integers(2, 30)), int(rng.integers(1, 6))
                x = rng.standard_normal((n, q)) * rng.uniform(0.5, 4)
                y = rng.standard_normal(n) * 2
                beta = rng.standard_normal(q)
                tau, b = float(rng.uniform(0.3, 4)), float(rng.uniform(0.5, 5))
                cfg = RobustConfig(tau=tau, b=b, weight_form=form)
                got = objective_at(Regression(y, x), beta, cfg)
                want = naive_objective(y, x, beta, tau, b, form=form)
                assert got == pytest.approx(want, rel=1e-12)

    def test_convexity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 5)) * 2
        y = rng.standard_normal(40) * 3
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1.2, b=2)
        for _ in range(100):
            b1, b2 = rng.standard_normal(5), rng.standard_normal(5)
            t = float(rng.uniform())
            lhs = objective_at(reg, t * b1 + (1 - t) * b2, cfg)
            rhs = t * objective_at(reg, b1, cfg) + (1 - t) * objective_at(reg, b2, cfg)
            assert lhs <= rhs + 1e-12

    def test_least_squares_limit(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        beta = rng.standard_normal(4)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1e8, b=1e8)
        half_mse = 0.5 * np.mean((y - x @ beta) ** 2)
        assert objective_at(reg, beta, cfg) == pytest.approx(half_mse, rel=1e-8)

    def test_empty_regression_rejected(self):
        with pytest.raises(ValueError):
            Regression(y=np.array([]), x=np.zeros((0, 2)))


class TestRobustGradient:
    def test_zero_at_exact_fit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 3))
        beta = rng.standard_normal(3)
        reg = Regression(y=x @ beta, x=x)
        cfg = RobustConfig(tau=1, b=3)
        np.testing.assert_allclose(robust_gradient(reg, beta, cfg), 0.0, atol=1e-15)

    def test_saturated_residuals(self):
        # residuals far beyond tau, weights inactive: gradient is the mean signed design
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.5, 0.5, (25, 4))
        signs = rng.choice([-1.0, 1.0], 25)
        y = signs * 1e6
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1, b=1e9)
        want = -(signs[:, None] * x).mean(axis=0)
        np.testing.assert_allclose(robust_gradient(reg, np.zeros(4), cfg), want, rtol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, q = int(rng.integers(2, 25)), int(rng.integers(1, 6))
            x = rng.standard_normal((n, q)) * 2
            y = rng.standard_normal(n) * 2
            beta = rng.standard_normal(q)
            tau, b = float(rng.uniform(0.3, 3)), float(rng.uniform(0.5, 5))
            reg = Regression(y, x)
            cfg = RobustConfig(tau=tau, b=b)
            np.testing.assert_allclose(
                robust_gradient(reg, beta, cfg), naive_gradient(y, x, beta, tau, b), rtol=1e-12
            )

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        p, n = 5, 20
        x = rng.standard_normal((n, p)) * 2
        y = rng.standard_normal(n) * 3
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1, b=3)
        beta = rng.standard_normal(p)
        g = robust_gradient(reg, beta, cfg)
        g_fd = fd_gradient(reg, beta, cfg)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) <= 1e-6

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_columns_equal_out_of_place_oracle(self, k):
        # rows past the Mallows radius (w < 1) and residuals on both sides
        # of +-tau; every bit of the in-place kernel matches the oracle
        rng = np.random.default_rng(100 + k)
        n, q, tau = 60, 7, 0.8
        x = rng.standard_t(2, (n, q))
        w = mallows_weights(x, RobustConfig(tau=tau, b=2.0))
        y = rng.standard_t(2, (n, k)) * 3
        beta = rng.standard_normal((q, k))
        wr = np.abs(w[:, None] * (y - x @ beta))
        assert (w < 1).any() and (w == 1).any() and (wr > tau).any() and (wr < tau).any()
        kept = (x.copy(), y.copy(), beta.copy(), w.copy())
        got = robust_gradient_columns(x, y, beta, w, tau)
        assert got.shape == (q, k)
        assert got.tobytes() == out_of_place_gradient(x, y, beta, w, tau).tobytes()
        for before, after in zip(kept, (x, y, beta, w)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("k", [1, 3])
    def test_columns_at_zero_need_no_beta(self, k):
        # beta=None is zero: the residual is y itself, which stays as it was
        rng = np.random.default_rng(200 + k)
        x = rng.standard_t(2, (40, 5))
        w = mallows_weights(x, RobustConfig(tau=0.8, b=2.0))
        y = rng.standard_t(2, (40, k)) * 3
        kept = y.copy()
        got = robust_gradient_columns(x, y, None, w, 0.8)
        want = out_of_place_gradient(x, y, np.zeros((5, k)), w, 0.8)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(y, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_beta_rejected(self, bad):
        # the gradient kernel alone would clip an infinite residual to a finite score
        reg = Regression(y=np.array([1.0, 2.0]), x=np.array([[1.0, 0.5], [2.0, 1.0]]))
        cfg = RobustConfig(tau=1, b=3)
        beta = np.array([0.5, bad])
        with pytest.raises(ValueError, match=rf"^beta must be real, finite and in \(-inf, inf\), "
                                             rf"got {bad}$"):
            robust_gradient(reg, beta, cfg)
