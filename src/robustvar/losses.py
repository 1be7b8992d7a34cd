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

from ._checks import _check_real, _check_shape

__all__ = [
    "RobustConfig",
    "Regression",
    "mallows_weights",
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
        _check_real("tau", self.tau, 0)
        _check_real("b", self.b, 0)
        if self.weight_form not in ("linear", "quadratic"):
            raise ValueError(f"unknown weight_form {self.weight_form!r}")
        if self.shrinkage is not None:
            m = _check_shape("shrinkage", self.shrinkage, ("q", "q"))
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
        x = _check_shape("x", self.x, ("n", "q"))
        object.__setattr__(self, "y", _check_shape("y", self.y, x.shape[:1]))
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]


def _huber(u: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise Huber loss c * (|u| - c/2), c = min(|u|, tau), so no unused branch overflows."""
    au = np.abs(u)
    c = np.minimum(au, tau)
    return c * (au - 0.5 * c)


def mallows_weights(x: np.ndarray, cfg: RobustConfig) -> np.ndarray:
    """Per-row weights for a predictor matrix.

    Weights depend only on the rows of ``x``, never on the coefficient
    vector, so callers fitting many candidate coefficients should compute
    them once and reuse the array.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("mallows_weights requires finite input")
    if cfg.shrinkage is not None:
        if cfg.shrinkage.shape[1] != x.shape[1]:
            raise ValueError("shrinkage dimension does not match predictor columns")
        x = x @ cfg.shrinkage.T
    norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm(x, axis=1)'s sum, bit for bit
    # a zero row divides to inf, so its weight is 1
    with np.errstate(divide="ignore"):
        if cfg.weight_form == "linear":
            return np.minimum(1.0, cfg.b / norms)
        return np.minimum(1.0, cfg.b * cfg.b / norms**2)


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


def robust_gradient(reg: Regression, beta: np.ndarray, cfg: RobustConfig) -> np.ndarray:
    """Gradient of the weighted robust loss of ``reg`` at ``beta``.

    Equals -(1/n) * sum_i huber'(w_i r_i) * w_i^2 * x_i, the one-column case
    of :func:`robust_gradient_columns`, which the solver also uses.
    """
    beta = _check_shape("beta", beta, (reg.q,))  # finite: the kernel clips an inf residual
    w = mallows_weights(reg.x, cfg)
    return robust_gradient_columns(reg.x, reg.y[:, None], beta[:, None], w, cfg.tau)[:, 0]


def robust_gradient_columns(
    x: np.ndarray, y: np.ndarray, beta: np.ndarray | None, w: np.ndarray, tau: float
) -> np.ndarray:
    """Gradients (q, k) at ``beta`` (q, k) of the k regressions of ``y`` (n, k) on the
    shared design ``x`` (n, q) with weights ``w``; not validated.  ``beta=None`` stands
    for zero, where the weighted residual is ``w * y`` and no ``x @ beta`` product is
    needed."""
    return _weighted_gradient(*_weighted_design(x, y, w), beta, tau)


def _weighted_design(
    x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of the gradient that do not depend on beta: the weighted design
    ``a = w * x`` (n, q), the weighted responses ``w * y`` (n, k) and
    ``back = -(w^2 x)'`` (q, n), a transposed view."""
    wc = w[:, None]
    a = x * wc
    return a, y * wc, (a * -wc).T


def _weighted_gradient(
    a: np.ndarray, wy: np.ndarray, back: np.ndarray, beta: np.ndarray | None, tau: float
) -> np.ndarray:
    """Gradients (q, k) at ``beta`` (q, k) from the pieces of :func:`_weighted_design`:
    ``back @ clip(wy - a @ beta, -tau, tau) / n``, the residual computed in place."""
    if beta is None:
        r = np.clip(wy, -tau, tau)
    else:
        r = a @ beta
        np.clip(np.subtract(wy, r, out=r), -tau, tau, out=r)
    g = back @ r
    return np.divide(g, a.shape[0], out=g)
