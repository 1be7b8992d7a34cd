"""VAR model structure: companion form, stability, column regressions,
theory-driven tuning, full-matrix estimation, and the estimation-error metric.

A lag-``d`` model in dimension ``p`` is stored as coefficient matrices
``B_1 .. B_d`` (each p x p), with dynamics
``Z_t = B_1' Z_{t-1} + ... + B_d' Z_{t-d} + noise``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import Regression, RobustConfig
from .optimizer import FitResult, OptimizerConfig, proximal_gradient_fit_columns
from .penalties import Penalty

__all__ = [
    "VarModel",
    "FitConfig",
    "companion_matrix",
    "spectral_radius",
    "rescale_to_radius",
    "decompose_regressions",
    "theory_lambda",
    "fit_var",
    "estimation_error",
    "write_var_model_csv",
    "read_var_model_csv",
]


@dataclass(frozen=True)
class VarModel:
    """Lag-d VAR coefficients: a tuple of d matrices, each p x p."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=np.float64) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a VAR model needs at least one coefficient matrix")
        p = coeffs[0].shape[0]
        for c in coeffs:
            if c.shape != (p, p):
                raise ValueError("all coefficient matrices must be square with equal size")
            if not np.all(np.isfinite(c)):
                raise ValueError("coefficient matrices must be finite")
        object.__setattr__(self, "coeffs", coeffs)

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
        if self.lambda_mode == "explicit" and self.lam < 0:
            raise ValueError("explicit lambda must be nonnegative")
        if self.lambda_mode == "theory" and not self.c > 0:
            raise ValueError("theory-mode constant c must be positive")


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
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spectral_radius requires a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("spectral_radius requires a finite matrix")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration failed to converge
        raise RuntimeError(f"eigenvalue computation did not converge: {exc}") from exc
    return float(np.max(np.abs(eigs)))


def rescale_to_radius(a: np.ndarray, rho_target: float) -> np.ndarray:
    """Scale a matrix so its spectral radius equals ``rho_target``.

    Scalar multiplication, so the zero pattern is preserved exactly.  A
    nilpotent (zero-radius) matrix cannot be rescaled and raises.
    """
    if not rho_target > 0:
        raise ValueError(f"rho_target must be positive, got {rho_target}")
    a = np.asarray(a, dtype=np.float64)
    r = spectral_radius(a)
    if r == 0.0:
        raise ValueError("matrix has zero spectral radius; rescaling is undefined")
    return a * (rho_target / r)


def _lagged_design(data: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared design (n, p*d) and responses (n, p) of a lag-d series."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-d array (rows = time points)")
    if not np.all(np.isfinite(data)):
        raise ValueError("regression data must be finite")
    if d < 1:
        raise ValueError(f"lag must be at least 1, got {d}")
    n_rows = data.shape[0]
    if n_rows < d + 1:
        raise ValueError(f"need at least {d + 1} rows for lag {d}, got {n_rows}")
    x = np.hstack([data[d - lag : n_rows - lag] for lag in range(1, d + 1)])
    return x, data[d:]


def decompose_regressions(data: np.ndarray, d: int) -> list[Regression]:
    """Split an (N, p) series into p column regressions sharing one design matrix.

    Row ``i`` of the shared design is the concatenation
    (Z_{t-1}, ..., Z_{t-d}) for t = d + i, and the j-th response vector is
    (Z_{d,j}, ..., Z_{T,j}); there are n = N - d usable rows.  All returned
    regressions reference the same design array.
    """
    x, y = _lagged_design(data, d)
    return [Regression(y=y[:, j], x=x) for j in range(y.shape[1])]


def theory_lambda(p: int, d: int, n: int, cfg: RobustConfig, c: float) -> float:
    """Rate-driven tuning parameter c * b_max * tau * sqrt(log(p*d) / n).

    The constant ``c`` absorbs the norm-geometry factors that the rate theory
    leaves unspecified.
    """
    return c * cfg.b_max * cfg.tau * math.sqrt(math.log(p * d) / n)


def fit_var(
    data: np.ndarray, d: int, fit: FitConfig
) -> tuple[VarModel, list[FitResult]]:
    """Estimate a lag-d transition matrix by p penalized column regressions.

    All p share one penalty and tuning value and are solved together; each
    keeps its own seed and stop test, so column order does not matter."""
    x, y = _lagged_design(data, d)
    n, p = y.shape
    if fit.lambda_mode == "theory":
        lam = theory_lambda(p, d, n, fit.robust, fit.c)
    else:
        lam = fit.lam
    results = proximal_gradient_fit_columns(x, y, fit.robust, fit.penalty, lam, fit.opt)
    stacked = np.column_stack([r.beta_hat for r in results])
    coeffs = [stacked[k * p : (k + 1) * p, :] for k in range(d)]
    return VarModel(tuple(coeffs)), results


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
    matrix [B_1', ..., B_d'] row-major at full double precision."""
    wide = np.hstack([c.T for c in model.coeffs])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# varmodel p={model.p} d={model.d}\n")
        for row in wide:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def read_var_model_csv(path) -> VarModel:
    """Read a model written by :func:`write_var_model_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.replace(",", " ").split()
        if len(parts) < 3 or parts[0] != "#" or parts[1] != "varmodel":
            raise ValueError(f"not a varmodel CSV: header {header!r}")
        meta = dict(kv.split("=") for kv in parts[2:])
        p, d = int(meta["p"]), int(meta["d"])
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    wide = np.asarray(rows, dtype=np.float64)
    if wide.shape != (p, p * d):
        raise ValueError(f"expected a {p}x{p * d} matrix, got {wide.shape}")
    coeffs = [wide[:, k * p : (k + 1) * p].T for k in range(d)]
    return VarModel(tuple(coeffs))
