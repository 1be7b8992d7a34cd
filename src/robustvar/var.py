"""VAR model structure: companion form, stability, column regressions,
theory-driven tuning, full-matrix estimation, and the estimation-error metric.

A lag-``d`` model in dimension ``p`` is stored as coefficient matrices
``B_1 .. B_d`` (each p x p), with dynamics
``Z_t = B_1' Z_{t-1} + ... + B_d' Z_{t-d} + noise``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from ._checks import _check_int, _check_real, _check_shape
from ._tables import read_table, write_table
from .losses import RobustConfig
from .optimizer import FitResult, OptimizerConfig, proximal_gradient_fit_columns
from .penalties import Penalty

__all__ = [
    "VarModel",
    "FitConfig",
    "companion_matrix",
    "spectral_radius",
    "theory_lambda",
    "fit_var",
    "estimation_error",
    "write_var_model_csv",
    "read_var_model_csv",
]


class _Unchecked(tuple):
    """Finite float64 (p, p) coefficient matrices the package made from checked values:
    :class:`VarModel` holds them unchecked and uncopied, so the model aliases them."""


@dataclass(frozen=True)
class VarModel:
    """Lag-d VAR coefficients: a tuple of d matrices, each p x p."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        coeffs = self.coeffs
        if type(coeffs) is not _Unchecked:
            coeffs = _check_shape("coeffs", coeffs, ("d", "p", "p"))
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def p(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.coeffs)

    def stacked(self) -> np.ndarray:
        """All lags stacked vertically into a (p*d, p) matrix; column j holds
        the coefficients of the j-th component's regression."""
        return np.vstack(self.coeffs)


@dataclass(frozen=True)
class FitConfig:
    """Everything needed to fit a VAR: robustification, penalty, tuning, optimizer."""

    robust: RobustConfig
    penalty: Penalty = Penalty("l1")
    lambda_mode: str = "theory"
    lam: float = 0.0
    c: float = 1.0
    opt: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if self.lambda_mode not in ("theory", "explicit"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.lambda_mode == "theory" and self.lam != 0:
            raise ValueError(f"lam must be 0 in theory mode, got {self.lam!r}")
        _check_real("lam", self.lam, 0, include_low=True)
        _check_real("c", self.c, 0)

    def lambda_for(self, p: int, d: int, n: int) -> float:
        """The tuning value for p columns at lag d with n usable rows."""
        if self.lambda_mode == "explicit":
            return self.lam
        lam = theory_lambda(p, d, n, self.robust, self.c)
        if not math.isfinite(lam):
            raise ValueError(f"theory lambda overflows at c = {self.c} (p={p}, d={d}, n={n})")
        return lam


def companion_matrix(model: VarModel) -> np.ndarray:
    """Single-lag companion form of a lag-d model.

    Returns the (p*d) x (p*d) matrix with block row [B_1', ..., B_d'] on top
    and identity blocks on the subdiagonal; applying it to the stacked state
    (Z_{t-1}, ..., Z_{t-d}) advances the recursion by one step.  For d=1 this
    is just B_1'.
    """
    p, d = model.p, model.d
    if d == 1:
        return model.coeffs[0].T.copy()
    m = np.zeros((p * d, p * d))
    m[:p] = np.hstack([c.T for c in model.coeffs])
    for k in range(1, d):
        m[k * p : (k + 1) * p, (k - 1) * p : k * p] = np.eye(p)
    return m


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return _radius(_check_shape("matrix", a, ("n", "n")))


def _radius(a: np.ndarray) -> float:
    """:func:`spectral_radius` of a square float64 matrix the package made, unchecked.
    A product of checked matrices may overflow: a non-finite one has radius inf."""
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # a non-finite matrix, or QR did not converge
        if not np.isfinite(a).all():
            return math.inf
        raise RuntimeError(f"eigenvalue computation did not converge: {exc}") from exc
    return float(np.max(np.abs(eigs)))


def _lagged_design(data: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared design (n, p*d) and responses (n, p) of a lag-d series."""
    data = _check_shape("data", data, ("n", "p"))  # rows are time points
    _check_int("lag", d, 1)
    n_rows = data.shape[0]
    if n_rows < d + 1:
        raise ValueError(f"need at least {d + 1} rows for lag {d}, got {n_rows}")
    x = np.hstack([data[d - lag : n_rows - lag] for lag in range(1, d + 1)])
    return x, data[d:]


def theory_lambda(p: int, d: int, n: int, cfg: RobustConfig, c: float) -> float:
    """Rate-driven tuning parameter c * b_max * tau * sqrt(log(p*d) / n).

    The constant ``c`` absorbs the norm-geometry factors that the rate theory
    leaves unspecified.
    """
    return c * cfg.b_max * cfg.tau * math.sqrt(math.log(p * d) / n)


def fit_var(data: np.ndarray, d: int, fit: FitConfig) -> tuple[VarModel, list[FitResult]]:
    """Estimate a lag-d transition matrix by p penalized column regressions.

    All p share one penalty and tuning value and are solved together, each
    from zero with its own stop test, so column order does not matter."""
    x, y = _lagged_design(data, d)
    n, p = y.shape
    lam = fit.lambda_for(p, d, n)
    results = proximal_gradient_fit_columns(x, y, fit.robust, fit.penalty, lam, fit.opt)
    stacked = np.column_stack([r.beta_hat for r in results])
    return VarModel(_Unchecked(stacked[k * p : (k + 1) * p] for k in range(d))), results


def estimation_error(b_hat: VarModel, b_true: VarModel) -> float:
    """Largest Euclidean distance between estimated and true coefficient columns."""
    if b_hat.p != b_true.p or b_hat.d != b_true.d:
        raise ValueError(
            f"model shapes differ: (p={b_hat.p}, d={b_hat.d}) vs (p={b_true.p}, d={b_true.d})"
        )
    diff = b_hat.stacked() - b_true.stacked()
    return float(np.max(np.linalg.norm(diff, axis=0)))


def write_var_model_csv(model: VarModel, path) -> None:
    """Write a model as CSV: header ``# varmodel p=<p> d=<d>`` then the p x (p*d)
    matrix [B_1', ..., B_d'] row-major at full double precision.  A zero is
    written ``0``, never ``-0``, whatever its sign (the l1 prox returns -0.0
    for a thresholded negative), as in every table the package writes."""
    wide = np.hstack([c.T for c in model.coeffs])
    write_table(path, [f"# varmodel p={model.p} d={model.d}"],
                (float,) * wide.shape[1], wide.tolist())


def read_var_model_csv(path) -> VarModel:
    """Read a model written by :func:`write_var_model_csv`.  A bad header or
    row count raises ``ValueError`` naming the header, a bad row its line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        match = re.fullmatch(r"# varmodel p=0*([1-9][0-9]{0,8}) d=0*([1-9][0-9]{0,8})", header)
        if not match:
            raise ValueError(f"header {header!r} is not '# varmodel p=<p> d=<d>', 1 <= p, d < 1e9")
        p, d = map(int, match.groups())
        # the header's numbers do not bound the file's size, so nothing is sized by them
        rows = read_table(fh, range(1, p * d + 1), itertools.repeat(float))
    if len(rows) != p:
        raise ValueError(f"header {header!r} names {p} rows, the file has {len(rows)}")
    wide = np.asarray(rows, dtype=np.float64)
    return VarModel(tuple(wide[:, k * p : (k + 1) * p].T for k in range(d)))
