"""Proximal gradient descent for the penalized robust regression objective."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._checks import _check_int, _check_real
from .losses import RobustConfig, _weighted_design, _weighted_gradient, mallows_weights
from .penalties import Penalty, dual_value, prox

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "DivergenceError",
    "proximal_gradient_fit_columns",
]

log = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Raised when column ``column`` of a fit gets a non-finite iterate (step too large)."""

    def __init__(self, iteration: int, column: int = 0):
        self.iteration, self.column = iteration, column
        super().__init__(
            f"column {column}: non-finite iterate at iteration {iteration}; reduce the step size"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the proximal gradient loop.

    ``step=None`` (the default) steps by 1/L, where L is the design's gradient
    Lipschitz bound (:func:`_lipschitz_bound`, the largest eigenvalue of the
    Mallows-weighted Gram matrix), which guarantees monotone descent of the
    penalized objective; a float is used as a fixed step instead.

    ``seed`` is checked (an integer in [0, 2**64)) but has no effect: the
    solver draws nothing, and every cold fit starts at zero.
    """

    step: float | None = None
    tol: float = 1e-4
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.step is not None:
            _check_real("step", self.step, 0)
        _check_real("tol", self.tol, 0)
        _check_int("max_iter", self.max_iter, 1)
        _check_int("seed", self.seed, 0, 2**64)


@dataclass
class FitResult:
    """One column's estimate, its stop state, the step the solver used, and
    ``lambda_max``, the dual norm of the loss gradient at zero: the smallest
    lambda at which zero is the column's exact minimiser."""

    beta_hat: np.ndarray
    iterations: int
    final_change: float
    converged: bool
    step: float
    lambda_max: float


def _lipschitz_bound(x: np.ndarray, w: np.ndarray) -> float:
    """Largest eigenvalue of (1/n) sum_i w_i^3 x_i x_i' for the design ``x`` with
    Mallows weights ``w``, a bound on the curvature of the robust loss."""
    xw = x * (w ** 1.5)[:, None]
    return float(np.linalg.eigvalsh((xw.T @ xw) / x.shape[0])[-1])


def _per_column(name: str, value, k: int, include_zero: bool) -> float | np.ndarray:
    """``value``, finite and above 0 (or at least 0 if ``include_zero``), as a float if a
    scalar (numpy broadcasts it faster than an array), else as a (k,) float64 array."""
    _check_real(name, value, 0, include_low=include_zero)
    if np.ndim(value) == 0:
        return float(value)
    if np.shape(value) != (k,):
        raise ValueError(f"{name} must be a scalar or have shape ({k},), got {np.shape(value)}")
    return np.asarray(value, dtype=np.float64)


def _take(value: float | np.ndarray, index: np.ndarray) -> float | np.ndarray:
    """The entries of a per-column ``value`` at ``index``; a scalar stays a scalar."""
    return value[index] if isinstance(value, np.ndarray) else value


def proximal_gradient_fit_columns(
    x: np.ndarray,
    y: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float | np.ndarray,
    opt: OptimizerConfig,
    start: np.ndarray | None = None,
    tau: float | np.ndarray | None = None,
) -> list[FitResult]:
    """Fit the k regressions of ``y`` (n, k) on the shared design ``x`` (n, q),
    both finite float64, together: one proximal gradient step (threshold
    lam*step, with the step of ``opt``, by default 1/L of ``x``) for all
    running columns per iteration.  Column j starts from ``start[:, j]``
    (``start`` is (q, k) and is not modified), by default from zero, and
    stops on its own once its iterates move by at most ``opt.tol`` or after
    ``opt.max_iter`` updates.

    ``lam`` and the Huber cut-off ``tau`` (by default ``cfg.tau``) are each one
    value for all columns or a (k,) array, one per column; the Mallows weights,
    L and the weighted design depend on neither, so they are built once.  An
    explicit step beyond 2/L logs a warning: descent is then not guaranteed.

    A column whose ``lambda_max`` is at most its ``lam`` has zero as its exact
    minimiser (the KKT conditions of a convex loss and a norm penalty), so it
    is returned as exact zero with 0 iterations and never enters the loop."""
    q, k = x.shape[1], y.shape[1]
    lam = _per_column("lambda", lam, k, include_zero=True)
    tau = cfg.tau if tau is None else _per_column("tau", tau, k, include_zero=False)
    if start is None:
        start = np.zeros((q, k))
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (q, k) or not np.all(np.isfinite(start)):
            raise ValueError(f"start must be a finite ({q}, {k}) array, got shape {start.shape}")
    w = mallows_weights(x, cfg)
    lip = _lipschitz_bound(x, w)
    if (step := opt.step) is None:  # 1/L; an all-zero design (L = 0, zero gradient) gets 1
        step = 1.0 / lip if lip > 0 else 1.0
    elif step * lip > 2.0:
        log.warning("step %.3g exceeds 2/L = %.3g, so descent is not guaranteed", step, 2.0 / lip)
    a, wy, back = _weighted_design(x, y, w)  # built once: the weights never depend on beta
    # dual_value also checks that the groups partition the q coordinates
    lambda_max = dual_value(pen, _weighted_gradient(a, wy, back, None, tau))
    zero = lambda_max <= lam
    results: list = [
        FitResult(np.zeros(q), 0, 0.0, True, step, float(lmax)) if z else None
        for z, lmax in zip(zero, lambda_max)
    ]
    cols = np.flatnonzero(~zero)  # index of each running column in the input
    beta, wy, lam, tau = start[:, cols], wy[:, cols], _take(lam, cols), _take(tau, cols)
    it = 0
    while cols.size:
        it += 1
        g = _weighted_gradient(a, wy, back, beta, tau)
        stepped = np.subtract(beta, np.multiply(g, step, out=g), out=g)
        # unvalidated prox; a column has a non-finite change exactly when it diverged
        beta_new = prox(pen, stepped, lam * step)
        d = np.subtract(beta_new, beta, out=stepped)
        # the sum np.linalg.norm(axis=0) computes, bit for bit, in the stepped buffer
        change = np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=0))
        if not np.isfinite(change).all() and not (ok := np.isfinite(beta_new).all(axis=0)).all():
            raise DivergenceError(it, int(cols[np.argmin(ok)]))
        beta = beta_new
        done = (change <= opt.tol) | (it == opt.max_iter)
        if done.any():
            for i in np.flatnonzero(done):
                results[cols[i]] = FitResult(
                    beta[:, i].copy(), it, float(change[i]), bool(change[i] <= opt.tol), step,
                    float(lambda_max[cols[i]]),
                )
            keep = ~done
            cols, beta, wy = cols[keep], beta[:, keep], wy[:, keep]
            lam, tau = _take(lam, keep), _take(tau, keep)
    return results
