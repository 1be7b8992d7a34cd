"""One rule for every setting: ``_check_real``, ``_check_int`` and ``_check_shape``
reject a bad value where it enters, with a ``ValueError`` that starts with its name."""

import math
import os
import re

import numpy as np
import pytest

from robustvar import (
    ArchVarDgp,
    BekkVarDgp,
    ExperimentSpec,
    FitConfig,
    GaussianNoise,
    IntervalPartition,
    OptimizerConfig,
    Penalty,
    RcVarDgp,
    Regression,
    RobustConfig,
    ScaleMixtureNoise,
    StudentTNoise,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarModel,
    VarTDgp,
    fit_var,
    gen_er_transition,
    re_check,
    robust_gradient,
    simulate,
    simulate_paths,
    spectral_radius,
    write_series_csv,
)
from robustvar import _checks
from robustvar._checks import _check_real, _check_shape
from robustvar.experiments import run_deviation_experiment
from robustvar.optimizer import proximal_gradient_fit_columns
from robustvar.var import _lagged_design

CFG = RobustConfig(tau=1.0, b=3.0)
RNG = np.random.default_rng(0)
X = RNG.standard_normal((30, 3))
REG = Regression(X @ np.array([0.5, 0.0, 0.0]) + RNG.standard_normal(30), X)
DGP = VarTDgp(VarModel((np.eye(2) * 0.5,)))


def solve(lam=0.1, tau=None):
    return proximal_gradient_fit_columns(X, REG.y[:, None], CFG, Penalty("l1"), lam,
                                         OptimizerConfig(), tau=tau)


# (setting, build, name, out-of-range values): build(v) puts v where the setting
# enters, as the whole value or as one entry of an array-valued setting
SETTINGS = [
    ("tau", lambda v: RobustConfig(tau=v, b=3.0), "tau", [0.0, -1.0]),
    ("b", lambda v: RobustConfig(tau=1.0, b=v), "b", [0, -2.0]),
    ("shrinkage", lambda v: RobustConfig(1.0, 3.0, shrinkage=[[v, 0.0], [0.0, 1.0]]),
     "shrinkage", []),
    ("step", lambda v: OptimizerConfig(step=v), "step", [0.0, -0.5]),
    ("tol", lambda v: OptimizerConfig(tol=v), "tol", [0, -1e-4]),
    ("solver_lambda", lambda v: solve(lam=v), "lambda", [-0.1]),
    ("solver_lambda_column", lambda v: solve(lam=[0.1, v, 0.1]), "lambda", [-0.1]),
    ("solver_tau", lambda v: solve(tau=v), "tau", [0.0, -1.0]),
    ("solver_tau_column", lambda v: solve(tau=[1.0, 1.0, v]), "tau", [0.0]),
    ("coeffs", lambda v: VarModel(([[0.5, v], [0.0, 0.5]],)), "coeffs", []),
    ("lam", lambda v: FitConfig(CFG, lambda_mode="explicit", lam=v), "lam", [-0.1]),
    ("c", lambda v: FitConfig(CFG, c=v), "c", [0.0, -1.0]),
    ("radius", lambda v: re_check(REG, np.zeros(3), CFG, radius=v), "radius", [0.0, -0.1]),
    ("df", lambda v: StudentTNoise(v), "df", [2.0, 1.5, 0]),
    ("spec_df_grid", lambda v: ExperimentSpec(df_grid=(3.0, v)), "df", [2]),
    ("spec_tau_grid", lambda v: ExperimentSpec(tau_grid=(v,)), "tau", [0]),
    ("sd", lambda v: GaussianNoise(v), "sd", [-1.0]),
    ("sd_vector", lambda v: GaussianNoise((1.0, v)), "sd", [-0.5]),
    ("mixture_weight", lambda v: ScaleMixtureNoise(((0.5, 1.0), (v, 2.0))), "components",
     [-0.5]),
    ("mixture_sd", lambda v: ScaleMixtureNoise(((0.5, v), (0.5, 2.0))), "components", [-1.0]),
    ("breakpoints", lambda v: IntervalPartition(0, (0.0, v)), "breakpoints", []),
    ("arch_b", lambda v: ArchVarDgp(b=[[v]], f=(1.0,), f_mats=([[0.1]],)), "b", []),
    ("arch_f", lambda v: ArchVarDgp(b=[[0.3]], f=(v,), f_mats=([[0.1]],)), "f", [0.0, -1.0]),
    ("arch_f_mats", lambda v: ArchVarDgp(b=[[0.3]], f=(1.0,), f_mats=([[v]],)), "f_mats", []),
    ("uarch_b", lambda v: UnivariateArchDgp(b=(v,), d0=1.0, d=(0.1,)), "b", []),
    ("uarch_d0", lambda v: UnivariateArchDgp(b=(0.3,), d0=v, d=(0.1,)), "d0", [0.0, -1.0]),
    ("uarch_d", lambda v: UnivariateArchDgp(b=(0.3,), d0=1.0, d=(v,)), "d", [-0.1]),
    ("bekk_b", lambda v: BekkVarDgp(b=[[v]], c=[[1.0]], f=[[0.1]]), "b", []),
    ("bekk_c", lambda v: BekkVarDgp(b=[[0.3]], c=[[v]], f=[[0.1]]), "c", []),
    ("bekk_f", lambda v: BekkVarDgp(b=[[0.3]], c=[[1.0]], f=[[v]]), "f", []),
    ("threshold_models", lambda v: ThresholdVarDgp(models=([[0.3]], [[v]])), "models", []),
    ("rc_b", lambda v: RcVarDgp(b=[[v]], gamma_sd=0.1), "b", []),
    ("rc_gamma_sd", lambda v: RcVarDgp(b=[[0.3]], gamma_sd=v), "gamma_sd", [-0.1]),
    ("density", lambda v: gen_er_transition(3, v, 0.5, 0), "density", [0.0, -0.1, 1.5]),
    ("spec_density", lambda v: ExperimentSpec(density=v), "density", [0.0, 1.01]),
    ("rho_target", lambda v: gen_er_transition(3, 0.5, v, 0), "rho_target", [0.0, -1.0]),
    ("spec_rho_target", lambda v: ExperimentSpec(rho_target=v), "rho_target", [0]),
    ("n", lambda v: simulate(DGP, v, 0, 0), "n", [0, -1]),
    ("burn_in", lambda v: simulate(DGP, 5, v, 0), "burn_in", [-1]),
    ("paths_n", lambda v: simulate_paths([DGP], v, 0, [0]), "n", [0]),
    ("nonlinear_n", lambda v: simulate(RcVarDgp(b=[[0.3]], gamma_sd=0.1), v, 0, 0), "n", [0]),
    ("group_index", lambda v: Penalty("group", groups=((0, v),)), "group index", [-1, 1.5]),
]
NOT_A_SETTING = [math.nan, math.inf, -math.inf, "1", True]


@pytest.mark.parametrize("build, name, out_of_range",
                         [case[1:] for case in SETTINGS], ids=[case[0] for case in SETTINGS])
def test_every_setting_rejects_bad_values_naming_it(build, name, out_of_range):
    for value in NOT_A_SETTING + out_of_range:
        with pytest.raises(ValueError) as exc:
            build(value)
        assert str(exc.value).startswith(f"{name} must "), (value, str(exc.value))


class TestCheckReal:
    @pytest.mark.parametrize("value", [2, 2.5, np.int64(2), np.float64(2.5), np.float32(2.5),
                                       np.uint8(2), [1.0, 2], (3,), np.array([[1.0, 2.0]]),
                                       np.arange(3, 6), [np.ones(2), [1.0, 2.0, 3.0]], []])
    def test_accepts_finite_reals_in_range(self, value):
        assert _check_real("x", value, 0) is None

    @pytest.mark.parametrize("value, got", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), ("1", "'1'"),
        (True, "True"), (None, "None"), (np.bool_(True), repr(np.bool_(True))),
        (1 + 2j, "(1+2j)"), (0.0, "0.0"), (-3, "-3"), (10**400, str(10**400)),
        (np.float64(-1.0), repr(np.float64(-1.0))),
        ([1.0, True], "True"), ([[1.0, 2.0], [3.0, "4"]], "'4'"), ((1.0, None), "None"),
        (np.array([1.0, np.nan]), "nan"), (np.array([[1.0, -np.inf]]), "-inf"),
        (np.array([2, 0]), "0"), (np.array([True]), "array(..., shape=(1,), dtype=bool)"),
        (np.array(["1"]), "array(..., shape=(1,), dtype=<U1)"), (np.array([1.0, None]), "array("),
        ([np.ones(2), np.array([1.0, -2.0, 3.0])], "-2.0"),
    ])
    def test_rejects_naming_the_setting_and_the_value(self, value, got):
        with pytest.raises(ValueError) as exc:
            _check_real("x", value, 0)
        assert str(exc.value).startswith("x must be real, finite and in (0, inf), got ")
        assert got in str(exc.value)

    def test_an_array_of_the_wrong_kind_is_named_by_dtype_and_shape(self):
        # its data is not printed: a data array can be big
        for value, got in [(np.zeros((3, 2), bool), "shape=(3, 2), dtype=bool"),
                           (np.full((500, 40), "1.0"), "shape=(500, 40), dtype=<U3"),
                           ((1.0, np.array([1.0, None])), "shape=(2,), dtype=object")]:
            with pytest.raises(ValueError, match=r"^x must be real, finite and in \(0, inf\), "
                                                 + re.escape(f"got array(..., {got})") + "$"):
                _check_real("x", value, 0)

    def test_interval_ends(self):
        _check_real("density", 1.0, 0, 1)
        _check_real("lambda", 0.0, 0, include_low=True)
        _check_real("lambda", np.zeros(2), 0, include_low=True)
        with pytest.raises(ValueError, match=r"^density must be real, finite and in \(0, 1\], "
                                             r"got 1.5$"):
            _check_real("density", 1.5, 0, 1)
        with pytest.raises(ValueError, match=r"^lambda must be real, finite and in \[0, inf\), "
                                             r"got -1e-300$"):
            _check_real("lambda", np.array([0.0, -1e-300]), 0, include_low=True)
        with pytest.raises(ValueError, match=r"^df must be real, finite and in \(2, inf\), got 2"):
            _check_real("df", 2, 2)
        with pytest.raises(ValueError, match=r"^b must be real, finite and in \(-inf, inf\)"):
            _check_real("b", [[0.5, math.nan]])

    def test_leaves_the_value_as_it_is(self):
        value = [[1.5, 2], (3.0,)]
        arr = np.array([1.0, 2.0])
        _check_real("x", value)
        _check_real("x", arr, 0)
        assert value == [[1.5, 2], (3.0,)] and arr.tolist() == [1.0, 2.0]

    def test_scalar_path_calls_no_numpy_function(self, monkeypatch):
        class TypesOnly:  # the numpy types the scalar path tests against, and nothing else
            floating, integer, ndarray = np.floating, np.integer, np.ndarray

        monkeypatch.setattr(_checks, "np", TypesOnly())
        for value in (1.0, 3, np.float64(0.5), np.int64(7)):
            _check_real("tau", value, 0)


# (setting, build, name, shape, bad values): build(v) puts v where the setting enters, as
# its whole value.  The bad values are, where the setting can take one, a scalar, the
# wrong number of dimensions, a ragged nest, a wrong length and an empty value.
MATRIX_BAD = [0.3, [0.3], [[0.3, 0.0], [0.0]], [[0.3, 0.0]], []]
SERIES_BAD = [0.3, np.zeros(5), np.zeros((5, 2, 1)), [[0.1, 0.2], [0.3]], np.zeros((0, 2)),
              np.zeros((5, 0))]
SHAPES = [
    ("coeffs", VarModel, "coeffs", "(d, p, p)",
     [0.5, (1.0,), [[0.5]], ([[0.5, 0.0], [0.0]],), (np.eye(2), np.eye(3)), ([[0.5, 0.0]],),
      ()]),
    ("shrinkage", lambda v: RobustConfig(1.0, 3.0, shrinkage=v), "shrinkage", "(q, q)",
     MATRIX_BAD),
    ("sd", GaussianNoise, "sd", "(p,)", [((1.0, 2.0),), ((1.0,), 2.0), ()]),
    ("components", ScaleMixtureNoise, "components", "(k, 2)",
     [1.0, (0.5, 0.5), ((0.5, 1.0), (0.5,)), ((0.5, 1.0, 3.0), (0.5, 1.0, 2.0)), ()]),
    ("breakpoints", lambda v: IntervalPartition(0, v), "breakpoints", "(n,)",
     [0.5, ((0.0, 1.0),), ((0.0,), 1.0), ()]),
    ("arch_b", lambda v: ArchVarDgp(b=v, f=(1.0,), f_mats=([[0.1]],)), "b", "(p, p)",
     MATRIX_BAD),
    ("arch_f", lambda v: ArchVarDgp(b=np.eye(2) * 0.3, f=v, f_mats=(np.eye(2) * 0.1,) * 2),
     "f", "(2,)", [1.0, ((1.0, 1.0),), ((1.0,), 1.0), (1.0, 1.0, 1.0), ()]),
    ("arch_f_mats", lambda v: ArchVarDgp(b=[[0.3]], f=(1.0,), f_mats=v), "f_mats", "(1, 1, 1)",
     [0.1, [[0.1]], ([[0.1]], [0.1]), ([[0.1]], [[0.1]]), ()]),
    ("uarch_b", lambda v: UnivariateArchDgp(b=v, d0=1.0, d=(0.1,)), "b", "(lags,)",
     [0.3, ((0.3,),), ((0.3,), 0.1), ()]),
    ("uarch_d", lambda v: UnivariateArchDgp(b=(0.3,), d0=1.0, d=v), "d", "(1,)",
     [0.1, ((0.1,),), ((0.1,), 0.1), (0.1, 0.1), ()]),
    ("bekk_b", lambda v: BekkVarDgp(b=v, c=[[1.0]], f=[[0.1]]), "b", "(p, p)", MATRIX_BAD),
    ("bekk_c", lambda v: BekkVarDgp(b=[[0.3]], c=v, f=[[0.1]]), "c", "(1, 1)", MATRIX_BAD),
    ("bekk_f", lambda v: BekkVarDgp(b=[[0.3]], c=[[1.0]], f=v), "f", "(1, 1)", MATRIX_BAD),
    ("threshold_models", lambda v: ThresholdVarDgp(models=v), "models", "(regions, p, p)",
     [0.5, np.eye(2) * 0.1, ([[0.3]], [[0.3, 0.0]]), ([[0.3, 0.0]], [[0.3, 0.0]]), ()]),
    ("rc_b", lambda v: RcVarDgp(b=v, gamma_sd=0.1), "b", "(p, p)", MATRIX_BAD),
    ("beta_star", lambda v: re_check(REG, v, CFG, n_directions=2), "beta_star", "(3,)",
     [0.0, np.zeros((3, 1)), [[0.0], 0.0, 0.0], np.zeros(2), []]),
    ("spectral_radius", spectral_radius, "matrix", "(n, n)", MATRIX_BAD),
    ("solver_lambda", lambda v: solve(lam=v), "lambda", "(1,)",
     [[[0.1]], [[0.1], 0.1], [0.1, 0.1], []]),
    ("solver_tau", lambda v: solve(tau=v), "tau", "(1,)", [[[1.0]], [[1.0], 1.0], [1.0, 1.0], []]),
    ("start", lambda v: proximal_gradient_fit_columns(X, REG.y[:, None], CFG, Penalty("l1"), 0.1,
                                                      OptimizerConfig(), v), "start", "(3, 1)",
     [0.0, np.zeros(3), [[0.0], [0.0, 0.0], [0.0]], np.zeros((3, 2)), []]),
    # data arrays follow the same rule
    ("fit_var_data", lambda v: fit_var(v, 1, FitConfig(CFG)), "data", "(n, p)", SERIES_BAD),
    ("lagged_design_data", lambda v: _lagged_design(v, 1), "data", "(n, p)", SERIES_BAD),
    ("write_series_csv_data", lambda v: write_series_csv(v, os.devnull), "data", "(n, p)",
     SERIES_BAD),
    ("regression_x", lambda v: Regression(np.zeros(5), v), "x", "(n, q)", SERIES_BAD),
    ("regression_y", lambda v: Regression(v, X), "y", "(30,)",
     [0.5, np.zeros((30, 1)), [[0.0], 0.0], np.zeros(29), np.zeros(0)]),
    ("robust_gradient_beta", lambda v: robust_gradient(REG, v, CFG), "beta", "(3,)",
     [0.5, np.zeros((3, 1)), [[0.0], 0.0, 0.0], np.zeros(2), np.zeros(0)]),
]
# (data array of SHAPES, a valid shape)
DATA = [("fit_var_data", (5, 2)), ("lagged_design_data", (5, 2)), ("write_series_csv_data", (5, 2)),
        ("regression_x", (5, 2)), ("regression_y", (30,)), ("robust_gradient_beta", (3,))]


@pytest.mark.parametrize("build, name, shape, bad",
                         [case[1:] for case in SHAPES], ids=[case[0] for case in SHAPES])
def test_every_array_setting_rejects_bad_shapes_naming_it(build, name, shape, bad):
    for value in bad:
        with pytest.raises(ValueError) as exc:
            build(value)
        expected = f"{name} must be a nonempty array of shape {shape}, got "
        assert str(exc.value).startswith(expected), (value, str(exc.value))


@pytest.mark.parametrize("build, name, shape",
                         [next(case[1:3] for case in SHAPES if case[0] == site) + (shape,)
                          for site, shape in DATA], ids=[site for site, _ in DATA])
def test_every_data_array_rejects_bad_entries_naming_it(build, name, shape):
    for bad, got in [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]:
        value = np.ones(shape)
        value.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be real, finite and in "
                                             rf"\(-inf, inf\), got {got}$"):
            build(value)
    for value in np.ones(shape, bool), np.full(shape, "1"):
        with pytest.raises(ValueError, match=f"^{name} must be real, finite and in "
                                             rf"\(-inf, inf\), got array\(\.\.\., "):
            build(value)


# (entry point, call, bad seeds): simulating draws from a nonnegative seed; a seed that
# is only the root of derived streams may be any integer
SEEDS = [
    ("simulate", lambda v: simulate(DGP, 5, 0, v), [-1, 1.5, True, "1", None]),
    ("simulate_nonlinear", lambda v: simulate(RcVarDgp(b=[[0.3]], gamma_sd=0.1), 5, 0, v),
     [-1, 1.5, True, "1", None]),
    ("simulate_paths", lambda v: simulate_paths([DGP, DGP], 5, 0, [0, v]),
     [-1, 1.5, True, "1", None]),
    ("re_check", lambda v: re_check(REG, np.zeros(3), CFG, n_directions=2, seed=v),
     [-1, 1.5, True, "1", None]),
    ("gen_er_transition", lambda v: gen_er_transition(3, 0.5, 0.5, v), [1.5, True, "1", None]),
    ("run_deviation_experiment",
     lambda v: run_deviation_experiment(p=3, n=10, df=3.0, tau=1.0, b=3.0, c=0.45,
                                        replications=1, seed=v, burn_in=5),
     [1.5, True, "1", None]),
]


@pytest.mark.parametrize("call, bad", [case[1:] for case in SEEDS],
                         ids=[case[0] for case in SEEDS])
def test_every_seed_is_checked_where_it_enters(call, bad):
    for value in bad:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value).startswith("seed must be "), (value, str(exc.value))


def test_a_root_seed_may_be_negative():
    assert np.array_equal(gen_er_transition(3, 0.5, 0.5, -1),
                          gen_er_transition(3, 0.5, 0.5, 2**64 - 1))


class TestCheckShape:
    @pytest.mark.parametrize("value", [[[1, 2], [3, 4]], (np.array([1.0, 2.0]), [3, 4]),
                                       np.arange(4).reshape(2, 2), (np.ones(2, np.float32),) * 2])
    def test_returns_a_float64_array_of_the_shape(self, value):
        arr = _check_shape("x", value, ("p", "p"))
        assert arr.dtype == np.float64 and arr.shape == (2, 2)
        assert np.array_equal(arr, np.asarray(value, dtype=np.float64))

    def test_labels_and_lengths(self):
        assert _check_shape("x", np.zeros((2, 3)), ("n", "q")).shape == (2, 3)
        assert _check_shape("x", np.zeros((4, 2)), ("k", 2)).shape == (4, 2)
        assert _check_shape("x", 1.5, ()).shape == ()
        for value, shape, message in [
            (np.zeros((2, 3)), ("p", "p"), "(p, p), got shape (2, 3)"),
            (np.zeros((3, 3)), ("k", 2), "(k, 2), got shape (3, 3)"),
            (np.zeros((2, 2, 3)), ("d", "p", "p"), "(d, p, p), got shape (2, 2, 3)"),
            (np.zeros((0, 0)), ("p", "p"), "(p, p), got shape (0, 0)"),
            (np.zeros((2, 0)), (2, "q"), "(2, q), got shape (2, 0)"),
            (np.zeros(2), ("p", "p"), "(p, p), got shape (2,)"),
            (2.0, ("n",), "(n,), got 2.0"),
            ([[1.0], [1.0, 2.0]], ("p", "p"), "(p, p), got a ragged nest"),
            ((np.ones(2), np.ones(3)), ("k", "p"), "(k, p), got a ragged nest"),
        ]:
            with pytest.raises(ValueError, match="^x must be a nonempty array of shape "
                                                 + re.escape(message) + "$"):
                _check_shape("x", value, shape)

    @pytest.mark.parametrize("value, got", [
        ([[1.0, True]], "True"), ([[1.0, "2"]], "'2'"), ((np.array([True, False]),), "array("),
        ([[1.0, math.nan]], "nan"), ((np.ones(2), np.array([1.0, -math.inf])), "-inf"),
        ([[0.5, -1.0]], "-1.0"),
    ])
    def test_entries_follow_check_real(self, value, got):
        with pytest.raises(ValueError) as exc:
            _check_shape("w", value, ("k", 2), 0, include_low=True)
        assert str(exc.value).startswith("w must be real, finite and in [0, inf), got ")
        assert got in str(exc.value)
