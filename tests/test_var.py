"""Tests for VAR model structure, tuning, and full-matrix estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from robustvar import (
    DivergenceError,
    FitConfig,
    OptimizerConfig,
    Penalty,
    RobustConfig,
    VarModel,
    companion_matrix,
    estimation_error,
    fit_var,
    mallows_weights,
    read_var_model_csv,
    spectral_radius,
    theory_lambda,
    write_var_model_csv,
)
from robustvar.optimizer import _lipschitz_bound, proximal_gradient_fit_columns
from robustvar.var import _lagged_design


def charpoly_roots_radius(a):
    """Spectral radius via Faddeev-LeVerrier coefficients and the
    companion-matrix-of-polynomial root finder (numpy.roots)."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        am = a @ m
        coeffs.append(-np.trace(am) / k)
    roots = np.roots(coeffs)
    return float(np.max(np.abs(roots)))


class TestCompanion:
    def test_single_lag_is_transpose(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(companion_matrix(VarModel((b,))), b.T)

    def test_two_lag_scalar_layout(self):
        model = VarModel((np.array([[0.5]]), np.array([[0.25]])))
        np.testing.assert_array_equal(companion_matrix(model), [[0.5, 0.25], [1.0, 0.0]])

    def test_two_lag_scalar_radius_quadratic_formula(self):
        model = VarModel((np.array([[0.5]]), np.array([[0.25]])))
        # largest root of z^2 - 0.5 z - 0.25
        want = (0.5 + math.sqrt(0.25 + 1.0)) / 2
        assert spectral_radius(companion_matrix(model)) == pytest.approx(want, abs=1e-10)

    def test_block_structure(self):
        rng = np.random.default_rng(0)
        p, d = 3, 3
        coeffs = tuple(rng.standard_normal((p, p)) * 0.1 for _ in range(d))
        m = companion_matrix(VarModel(coeffs))
        assert m.shape == (p * d, p * d)
        for k, c in enumerate(coeffs):
            np.testing.assert_array_equal(m[:p, k * p : (k + 1) * p], c.T)
        np.testing.assert_array_equal(m[p:, : p * (d - 1)], np.eye(p * (d - 1)))
        np.testing.assert_array_equal(m[p:, p * (d - 1) :], 0.0)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(7)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.2])) == pytest.approx(0.5)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            assert spectral_radius(a) == pytest.approx(charpoly_roots_radius(a), abs=1e-6)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestRescale:
    def test_hits_target(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        out = a * (0.5 / spectral_radius(a))
        assert spectral_radius(out) == pytest.approx(0.5, abs=1e-8)

    def test_idempotent_at_target(self):
        a = np.diag([0.5, 0.1])
        np.testing.assert_allclose(a * (0.5 / spectral_radius(a)), a, atol=1e-12)

    def test_preserves_zero_pattern(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.3)
        if spectral_radius(a) == 0:
            a[0, 0] = 0.7
        out = a * (0.9 / spectral_radius(a))
        np.testing.assert_array_equal(out != 0, a != 0)


class TestDecompose:
    def test_scalar_shift(self):
        data = np.array([[1.0], [2.0], [3.0]])
        x, y = _lagged_design(data, 1)
        assert y.shape[1] == 1
        np.testing.assert_array_equal(x, [[1.0], [2.0]])
        np.testing.assert_array_equal(y[:, 0], [2.0, 3.0])

    def test_shapes_two_lags(self):
        data = np.arange(10.0).reshape(5, 2)
        x, y = _lagged_design(data, 2)
        assert y.shape[1] == 2
        assert x.shape == (3, 4)

    def test_lag_ordering(self):
        data = np.arange(8.0).reshape(4, 2)
        x, _ = _lagged_design(data, 2)
        # row for t=2 is (Z_1, Z_0)
        np.testing.assert_array_equal(x[0], [2.0, 3.0, 0.0, 1.0])

    def test_noiseless_reconstruction(self):
        rng = np.random.default_rng(5)
        p = 3
        a = rng.standard_normal((p, p))
        b = a * (0.8 / spectral_radius(a))
        data = np.empty((20, p))
        data[0] = rng.standard_normal(p)
        for t in range(1, 20):
            data[t] = b.T @ data[t - 1]
        x, y = _lagged_design(data, 1)
        for j in range(p):
            np.testing.assert_allclose(y[:, j], x @ b[:, j], rtol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            _lagged_design(np.ones((2, 2)), 2)

    @pytest.mark.parametrize("data, d, message", [
        (np.zeros(10), 1, r"^data must be a nonempty array of shape \(n, p\), got shape \(10,\)$"),
        (np.full((10, 2), np.nan), 1, r"^data must be real, finite and in \(-inf, inf\), got nan$"),
        (np.zeros((10, 2)), 0, "^lag must be at least 1, got 0$"),
    ], ids=["1d", "nan", "lag0"])
    def test_bad_series_or_lag_rejected(self, data, d, message):
        with pytest.raises(ValueError, match=message):
            _lagged_design(data, d)

    def test_no_series_column_rejected(self):
        fit = FitConfig(RobustConfig(tau=1.0, b=3.0))
        with pytest.raises(ValueError, match=r"^data must be a nonempty array of shape \(n, p\), "
                                             r"got shape \(10, 0\)$"):
            fit_var(np.zeros((10, 0)), 1, fit)


class TestTheoryLambda:
    CFG = RobustConfig(tau=1.0, b=3.0)

    def test_direct_arithmetic(self):
        got = theory_lambda(100, 1, 100, self.CFG, 1.0)
        assert got == pytest.approx(3.0 * math.sqrt(math.log(100) / 100), rel=1e-12)
        assert got == pytest.approx(0.6438, abs=2e-4)

    def test_rate_in_n(self):
        a = theory_lambda(10, 1, 50, self.CFG, 1.0)
        b = theory_lambda(10, 1, 100, self.CFG, 1.0)
        assert a / b == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_monotonicity(self):
        base = theory_lambda(10, 1, 50, self.CFG, 1.0)
        assert theory_lambda(10, 1, 50, RobustConfig(tau=2.0, b=3.0), 1.0) > base
        assert theory_lambda(10, 1, 50, RobustConfig(tau=1.0, b=4.0), 1.0) > base
        assert theory_lambda(10, 1, 50, self.CFG, 1.5) > base
        assert theory_lambda(10, 1, 100, self.CFG, 1.0) < base

    def test_uses_total_dimension(self):
        assert theory_lambda(5, 2, 50, self.CFG, 1.0) == theory_lambda(10, 1, 50, self.CFG, 1.0)


class TestFitVar:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(6)
        p = 3
        a = rng.standard_normal((p, p))
        b = a * (0.9 / spectral_radius(a))
        data = np.empty((30, p))
        data[0] = rng.standard_normal(p)
        for t in range(1, 30):
            data[t] = b.T @ data[t - 1]
        fit = FitConfig(
            robust=RobustConfig(tau=1e8, b=1e8),
            lambda_mode="explicit", lam=0.0,
            opt=OptimizerConfig(tol=1e-12, max_iter=100000),
        )
        est, _ = fit_var(data, 1, fit)
        assert estimation_error(est, VarModel((b,))) <= 1e-3

    def test_single_column_reduces_to_one_fit(self):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.standard_normal((40, 1)) * 0.1, axis=0)
        cfg = RobustConfig(tau=1.0, b=3.0)
        opt = OptimizerConfig()
        fit = FitConfig(robust=cfg, lambda_mode="explicit", lam=0.05, opt=opt)
        est, results = fit_var(data, 1, fit)
        x, y = _lagged_design(data, 1)
        direct = proximal_gradient_fit_columns(x, y, cfg, Penalty("l1"), 0.05, opt)[0]
        np.testing.assert_array_equal(results[0].beta_hat, direct.beta_hat)
        np.testing.assert_array_equal(est.coeffs[0][:, 0], direct.beta_hat)

    @pytest.mark.parametrize(
        "pen", [Penalty("l1"), Penalty("group", groups=((0, 1), (2, 3, 4)))], ids=["l1", "group"]
    )
    def test_columns_match_single_fits(self, pen):
        # all columns are solved together; each must still equal its own
        # single-regression fit, stopping at its own iteration; at lam=0.3
        # some columns are zero-optimal and never run, and the rest run in a
        # narrower batch
        rng = np.random.default_rng(12)
        p = 5
        a = rng.standard_normal((p, p))
        b = a * (0.6 / spectral_radius(a))
        data = np.empty((80, p))
        data[0] = 0.0
        for t in range(1, 80):
            data[t] = b.T @ data[t - 1] + rng.standard_t(3, p)
        cfg = RobustConfig(tau=1.0, b=3.0)
        opt = OptimizerConfig()
        x, y = _lagged_design(data, 1)
        for lam in (0.02, 0.3):
            fit = FitConfig(robust=cfg, penalty=pen, lambda_mode="explicit", lam=lam, opt=opt)
            est, results = fit_var(data, 1, fit)
            assert len({r.iterations for r in results}) > 1
            assert (min(r.iterations for r in results) == 0) == (lam == 0.3)
            for j in range(p):
                direct = proximal_gradient_fit_columns(x, y[:, [j]], cfg, pen, lam, opt)[0]
                assert results[j].iterations == direct.iterations
                assert results[j].converged == direct.converged
                np.testing.assert_allclose(
                    results[j].beta_hat, direct.beta_hat, rtol=0, atol=1e-12
                )
                np.testing.assert_array_equal(est.coeffs[0][:, j], results[j].beta_hat)

    def test_divergence_names_column(self):
        # the last design row times the clipped residual of column 1's last
        # response overflows, so only column 1's gradient is infinite
        rng = np.random.default_rng(13)
        data = rng.standard_normal((30, 3))
        data[-2] *= 100.0
        data[-1, 1] = 1e308
        fit = FitConfig(
            robust=RobustConfig(tau=1e308, b=1e308), lambda_mode="explicit", lam=0.0,
            opt=OptimizerConfig(step=1e-6),
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
            fit_var(data, 1, fit)
        assert exc.value.column == 1
        assert exc.value.iteration == 1
        assert str(exc.value).startswith("column 1:")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        p = 4
        a = rng.standard_normal((p, p))
        b = a * (0.5 / spectral_radius(a))
        data = np.empty((400, p))
        data[0] = 0.0
        noise = rng.standard_normal((400, p))
        for t in range(1, 400):
            data[t] = b.T @ data[t - 1] + noise[t]
        perm = np.array([2, 0, 3, 1])
        # the default step 1/L: a fixed 0.9 step exceeds 2/L on this instance
        fit = FitConfig(
            robust=RobustConfig(tau=1e8, b=1e8),
            lambda_mode="explicit", lam=0.0,
            opt=OptimizerConfig(tol=1e-12, max_iter=100000),
        )
        est1, _ = fit_var(data, 1, fit)
        est2, _ = fit_var(data[:, perm], 1, fit)
        b1, b2 = est1.coeffs[0], est2.coeffs[0]
        np.testing.assert_allclose(b2, b1[np.ix_(perm, perm)], atol=1e-7)

    @pytest.mark.parametrize("lam_mode, lam", [("theory", 0.0), ("explicit", 0.05)])
    def test_zero_design_gives_zero_matrix(self, lam_mode, lam):
        # L = 0 and the gradient vanishes, so only the penalty acts
        fit = FitConfig(robust=RobustConfig(tau=1.0, b=3.0), lambda_mode=lam_mode, lam=lam)
        est, results = fit_var(np.zeros((20, 3)), 1, fit)
        np.testing.assert_array_equal(est.coeffs[0], np.zeros((3, 3)))
        assert all(r.converged for r in results)
        assert all(r.step == 1.0 for r in results)

    def test_default_step_matches_explicit_inverse_curvature(self):
        rng = np.random.default_rng(10)
        data = rng.standard_t(3, (60, 4))
        cfg = RobustConfig(tau=1.0, b=3.0)
        # the bound depends on the shared lag-1 design only
        x = data[:-1]
        step = 1.0 / _lipschitz_bound(x, mallows_weights(x, cfg))
        fit = FitConfig(robust=cfg, lambda_mode="explicit", lam=0.05, opt=OptimizerConfig())
        est, results = fit_var(data, 1, fit)
        est2, results2 = fit_var(data, 1, replace(fit, opt=OptimizerConfig(step=step)))
        np.testing.assert_array_equal(est.coeffs[0], est2.coeffs[0])
        assert [r.iterations for r in results] == [r.iterations for r in results2]
        assert all(r.step == step for r in results)

    def test_theory_mode_uses_regression_rows(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((31, 2)) * 0.5
        cfg = RobustConfig(tau=1.0, b=3.0)
        fit = FitConfig(robust=cfg, lambda_mode="theory", c=0.45, opt=OptimizerConfig())
        est, _ = fit_var(data, 1, fit)
        assert est.p == 2 and est.d == 1

    def test_lag2_shapes(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((50, 2)) * 0.3
        fit = FitConfig(robust=RobustConfig(tau=1.0, b=3.0),
                        lambda_mode="explicit", lam=0.1,
                        opt=OptimizerConfig())
        est, results = fit_var(data, 2, fit)
        assert est.p == 2 and est.d == 2
        assert len(results) == 2
        assert results[0].beta_hat.shape == (4,)

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_explicit_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match=r"^lam must be real, finite and in \[0, inf\), got "):
            FitConfig(robust=RobustConfig(tau=1.0, b=3.0), lambda_mode="explicit", lam=lam)

    @pytest.mark.parametrize("lam", [0.3, -0.1, np.nan])
    def test_theory_mode_rejects_a_lambda(self, lam):
        with pytest.raises(ValueError, match=r"^lam must be 0 in theory mode, got"):
            FitConfig(robust=RobustConfig(tau=1.0, b=3.0), lam=lam)

    def test_unknown_lambda_mode_names_it(self):
        with pytest.raises(ValueError, match="^unknown lambda_mode 'oracle'$"):
            FitConfig(robust=RobustConfig(tau=1.0, b=3.0), lambda_mode="oracle")

    def test_theory_c_must_give_a_finite_lambda(self):
        with pytest.raises(ValueError, match=r"^c must be real, finite and in \(0, inf\), got inf$"):
            FitConfig(robust=RobustConfig(tau=1.0, b=3.0), c=math.inf)
        # a finite c whose theory value overflows fails when the value is taken
        fit = FitConfig(robust=RobustConfig(tau=1.0, b=3.0), c=1e308)
        with pytest.raises(ValueError, match=r"^theory lambda overflows at c = 1e\+308 "):
            fit.lambda_for(10, 1, 30)
        with pytest.raises(ValueError, match=r"^theory lambda overflows at c = 1e\+308 "):
            fit_var(np.zeros((30, 10)), 1, fit)


class TestEstimationError:
    def test_zero_for_equal(self):
        m = VarModel((np.eye(3) * 0.5,))
        assert estimation_error(m, m) == 0.0

    def test_single_entry_perturbation(self):
        b = np.eye(3) * 0.5
        b2 = b.copy()
        b2[1, 2] += 0.125
        assert estimation_error(VarModel((b2,)), VarModel((b,))) == pytest.approx(0.125)

    def test_max_over_columns(self):
        b = np.zeros((3, 3))
        b2 = b.copy()
        b2[:, 0] = [0.3, 0.0, 0.0]
        b2[:, 2] = [0.0, 0.7, 0.0]
        assert estimation_error(VarModel((b2,)), VarModel((b,))) == pytest.approx(0.7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimation_error(VarModel((np.eye(2),)), VarModel((np.eye(3),)))

    @staticmethod
    def lag_pair(p, d, seed):
        """Two lag-d models of dimension p whose columns differ in every lag."""
        rng = np.random.default_rng(seed)
        return tuple(VarModel(tuple(0.3 * rng.standard_normal((d, p, p)))) for _ in range(2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_several_lags_take_the_largest_stacked_column_norm(self, d):
        b_hat, b_true = self.lag_pair(4, d, 20 + d)
        diff = b_hat.stacked() - b_true.stacked()
        expected = max(math.sqrt(math.fsum(diff[:, j] ** 2)) for j in range(diff.shape[1]))
        assert estimation_error(b_hat, b_true) == pytest.approx(expected, rel=1e-15)

    def test_equal_second_lags_give_the_first_lags_error(self):
        (a1, a2), (c1, _) = (m.coeffs for m in self.lag_pair(5, 2, 30))
        first = estimation_error(VarModel((a1,)), VarModel((c1,)))
        assert estimation_error(VarModel((a1, a2)), VarModel((c1, a2))) == first

    @pytest.mark.parametrize("d", [2, 3])
    def test_several_lags_are_the_stacked_norm_bit_for_bit(self, d):
        b_hat, b_true = self.lag_pair(6, d, 40 + d)
        stacked = np.linalg.norm(b_hat.stacked() - b_true.stacked(), axis=0).max()
        assert estimation_error(b_hat, b_true) == stacked


class TestModelCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        model = VarModel(tuple(rng.standard_normal((3, 3)) for _ in range(2)))
        path = tmp_path / "model.csv"
        write_var_model_csv(model, path)
        back = read_var_model_csv(path)
        assert back.p == 3 and back.d == 2
        for a, b in zip(model.coeffs, back.coeffs):
            np.testing.assert_array_equal(a, b)

    def test_signed_zero_reads_back_equal(self, tmp_path):
        # -0.0 is written as 0 and reads back as +0.0, which equals it
        model = VarModel((np.array([[-0.0, 0.5], [0.0, -0.25]]), np.full((2, 2), -0.0)))
        path = tmp_path / "model.csv"
        write_var_model_csv(model, path)
        cells = [c for line in path.read_text().splitlines()[1:] for c in line.split(",")]
        assert cells == ["0", "0", "0", "0", "0.5", "-0.25", "0", "0"]
        back = read_var_model_csv(path)
        np.testing.assert_array_equal(back.stacked(), model.stacked())
        assert not np.signbit(back.stacked()[model.stacked() == 0]).any()
        assert np.signbit(model.coeffs[1]).all()  # the writer leaves its input as it was

    def test_header_format(self, tmp_path):
        model = VarModel((np.eye(2) * 0.5,))
        path = tmp_path / "m.csv"
        write_var_model_csv(model, path)
        first = path.read_text().splitlines()[0]
        assert first == "# varmodel p=2 d=1"

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_var_model_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# varmodel p=2 d=1\n0.5,x\n0,0.25\n", "^line 2, column 2: 'x' is not a number$"),
            ("# varmodel p=2 d=2\n0.5,0,0.1,0\n0,0.25,0,nope\n",
             "^line 3, column 4: 'nope' is not a number$"),
            ("# varmodel p=2\n0.5,0\n0,0.25\n", "^header '# varmodel p=2' is not "),
            ("# varmodel p=2 d=1 q=3\n0.5,0\n0,0.25\n", "^header '# varmodel p=2 d=1 q=3' is not "),
            ("# varmodel p=0 d=1\n", "^header '# varmodel p=0 d=1' is not "),
            ("# varmodel p=10000000000 d=10000000000\n1\n", "^header '# varmodel p=1000000"),
            ("# varmodel p=2 d=1\n0.5,0\n0.25\n", "^line 3 has 1 values, the header names 2$"),
            ("# varmodel p=2 d=1\n0.5,0\n\n",
             "^header '# varmodel p=2 d=1' names 2 rows, the file has 1$"),
            ("# varmodel p=1 d=1\n0.5\n0.25\n",
             "^header '# varmodel p=1 d=1' names 1 rows, the file has 2$"),
        ],
        ids=["cell", "lag2_cell", "no_d", "extra_token", "p0", "huge", "ragged",
             "too_few_rows", "too_many_rows"],
    )
    def test_bad_file_names_line_and_column_or_header(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_var_model_csv(path)
