"""Huber loss, Mallows predictor weights, and the weighted robust objective.

The empirical loss for one regression is

    L(beta) = (1/n) * sum_i w(x_i) * huber(w(x_i) * (y_i - x_i' beta), tau)

where ``w`` shrinks large-norm predictor rows so that ||w(x) x|| never
exceeds the bounded-influence radius ``b / lambda_min(shrinkage)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RobustConfig",
    "Regression",
    "huber_value",
    "huber_derivative",
    "mallows_weight",
    "mallows_weights",
    "robust_objective",
    "robust_objective_columns",
    "robust_gradient",
    "robust_gradient_columns",
]


@dataclass(frozen=True)
class RobustConfig:
    """Robustification parameters: Huber cut-off, Mallows radius, shrinkage.

    ``shrinkage`` is an optional positive-definite matrix applied to the
    predictor before its norm is taken; ``None`` means the identity, in which
    case the bounded-influence radius ``b_max`` equals ``b``.
    """

    tau: float
    b: float
    shrinkage: np.ndarray | None = None
    weight_form: str = "linear"
    _shrink_min_eig: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if self.weight_form not in ("linear", "quadratic"):
            raise ValueError(f"unknown weight_form {self.weight_form!r}")
        if self.shrinkage is not None:
            m = np.asarray(self.shrinkage, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("shrinkage must be a square matrix")
            if not np.all(np.isfinite(m)):
                raise ValueError("shrinkage must be finite")
            eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
            if eigs[0] <= 0:
                raise ValueError(
                    f"shrinkage must be positive definite (min eigenvalue {eigs[0]:g})"
                )
            object.__setattr__(self, "shrinkage", m)
            object.__setattr__(self, "_shrink_min_eig", float(eigs[0]))

    @property
    def b_max(self) -> float:
        """Bounded-influence radius: b divided by the smallest shrinkage eigenvalue."""
        return self.b / self._shrink_min_eig


@dataclass(frozen=True)
class Regression:
    """One stochastic regression: responses ``y`` (n,) and predictors ``x`` (n, q)."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        x = np.asarray(self.x, dtype=np.float64)
        if y.ndim != 1 or x.ndim != 2:
            raise ValueError("y must be 1-d and x 2-d")
        if y.shape[0] != x.shape[0]:
            raise ValueError(f"row mismatch: y has {y.shape[0]} rows, x has {x.shape[0]}")
        if y.shape[0] < 1:
            raise ValueError("regression needs at least one observation")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("regression data must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]


def huber_value(u, tau: float):
    """Huber loss: u^2/2 inside [-tau, tau], tau*|u| - tau^2/2 outside."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("huber_value requires finite input")
    out = _huber(u, tau)
    return float(out) if out.ndim == 0 else out


def _huber(u: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise Huber loss of a float64 array; inputs are not validated."""
    au = np.abs(u)
    return np.where(au <= tau, 0.5 * u * u, tau * au - 0.5 * tau * tau)


def huber_derivative(u, tau: float):
    """Derivative of the Huber loss: u clipped to [-tau, tau]."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("huber_derivative requires finite input")
    out = np.clip(u, -tau, tau)
    return float(out) if out.ndim == 0 else out


def mallows_weight(x: np.ndarray, cfg: RobustConfig) -> float:
    """Weight in (0, 1] for one predictor row; 1 when the shrunk norm is zero."""
    return float(mallows_weights(np.asarray(x, dtype=np.float64)[None, :], cfg)[0])


def mallows_weights(x: np.ndarray, cfg: RobustConfig) -> np.ndarray:
    """Per-row weights for a predictor matrix.

    Weights depend only on the rows of ``x``, never on the coefficient
    vector, so callers fitting many candidate coefficients should compute
    them once and reuse the array.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("mallows_weights requires finite input")
    if cfg.shrinkage is not None:
        if cfg.shrinkage.shape[1] != x.shape[1]:
            raise ValueError("shrinkage dimension does not match predictor columns")
        norms = np.linalg.norm(x @ cfg.shrinkage.T, axis=1)
    else:
        norms = np.linalg.norm(x, axis=1)
    w = np.ones_like(norms)
    nz = norms > 0.0
    if cfg.weight_form == "linear":
        w[nz] = np.minimum(1.0, cfg.b / norms[nz])
    else:
        w[nz] = np.minimum(1.0, cfg.b * cfg.b / norms[nz] ** 2)
    return w


def robust_objective(
    reg: Regression,
    beta: np.ndarray,
    cfg: RobustConfig,
    weights: np.ndarray | None = None,
) -> float:
    """Weighted robust empirical loss at ``beta``.

    Summation uses ``math.fsum`` (exactly rounded), so the value does not
    depend on accumulation order.  The one-row case of
    :func:`robust_objective_columns`; a non-finite value raises.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (reg.q,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({reg.q},)")
    w = mallows_weights(reg.x, cfg) if weights is None else weights
    value = float(robust_objective_columns(reg.x, reg.y, beta[None, :], w, cfg.tau)[0])
    if not math.isfinite(value):
        raise ValueError("robust_objective requires a finite residual")
    return value


def robust_objective_columns(
    x: np.ndarray, y: np.ndarray, betas: np.ndarray, w: np.ndarray, tau: float
) -> np.ndarray:
    """Objective values (k,) of the regression of ``y`` (n,) on ``x`` (n, q)
    with weights ``w`` at the k coefficient vectors in the rows of ``betas``
    (k, q); inputs are not validated.

    Each fitted column is its own matrix-vector product, so every value is
    bit-identical to a one-vector evaluation (one matrix product over all k
    rounds differently); each sum is a ``math.fsum``.
    """
    fitted = np.matmul(x, betas[:, :, None])[:, :, 0]
    terms = w * _huber(w * (y - fitted), tau)
    return np.array([math.fsum(row) for row in terms.tolist()]) / x.shape[0]


def robust_gradient(
    reg: Regression,
    beta: np.ndarray,
    cfg: RobustConfig,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of ``robust_objective`` at ``beta``.

    Equals -(1/n) * sum_i huber'(w_i r_i) * w_i^2 * x_i, the one-column case
    of :func:`robust_gradient_columns`, which the solver also uses.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (reg.q,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({reg.q},)")
    w = mallows_weights(reg.x, cfg) if weights is None else weights
    return robust_gradient_columns(reg.x, reg.y[:, None], beta[:, None], w, cfg.tau)[:, 0]


def robust_gradient_columns(
    x: np.ndarray, y: np.ndarray, beta: np.ndarray, w: np.ndarray, tau: float
) -> np.ndarray:
    """Gradients (q, k) at ``beta`` (q, k) of the k regressions of ``y`` (n, k) on the
    shared design ``x`` (n, q) with weights ``w``; inputs are not validated."""
    wc = w[:, None]
    lp = np.clip(wc * (y - x @ beta), -tau, tau)
    return -(x.T @ (lp * (wc * wc))) / x.shape[0]
