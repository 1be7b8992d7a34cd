"""Proximal gradient descent for the penalized robust regression objective."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._checks import _check_int, _check_real, _check_shape
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
    Mallows-weighted Gram matrix), and takes accelerated steps with a gradient
    restart; a float is used as a fixed step instead, accelerated too when it is
    at most 1/L and plain proximal steps (monotone descent up to 2/L) above it.

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
    if not (isinstance(value, (list, tuple)) or np.ndim(value)):
        _check_real(name, value, 0, include_low=include_zero)
        return float(value)
    return _check_shape(name, value, (k,), 0, include_low=include_zero)


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
    stops on its own once a step moves it by at most ``opt.tol`` or after
    ``opt.max_iter`` updates.

    A step of at most 1/L (the default) is accelerated (FISTA in the
    Chambolle-Dossal form): each column takes its gradient at an extrapolated
    point ``y = beta + s/(s+3) * (beta - beta_prev)``, s its steps since its
    last restart, and restarts (s = 0) when the new step points against its
    last move, ``(beta_new - y).(beta_new - beta) < 0`` (O'Donoghue and
    Candes' gradient scheme).  A longer step takes plain steps (``y = beta``).
    ``final_change`` is the norm of the last step, ``beta_new - y``.  A cold
    start is at zero, so its first gradient is the one the screen below takes.

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
    cold = start is None
    start = np.zeros((q, k)) if cold else _check_shape("start", start, (q, k))
    w = mallows_weights(x, cfg)
    lip = _lipschitz_bound(x, w)
    if (step := opt.step) is None:  # 1/L; an all-zero design (L = 0, zero gradient) gets 1
        step = 1.0 / lip if lip > 0 else 1.0
    elif step * lip > 2.0:
        log.warning("step %.3g exceeds 2/L = %.3g, so descent is not guaranteed", step, 2.0 / lip)
    # momentum needs step <= 1/L (compared as such: step * L can round above 1)
    accelerate = lip == 0 or step <= 1.0 / lip
    a, wy, back = _weighted_design(x, y, w)  # built once: the weights never depend on beta
    grad_zero = _weighted_gradient(a, wy, back, None, tau)
    # dual_value also checks that the groups partition the q coordinates
    lambda_max = dual_value(pen, grad_zero)
    zero = lambda_max <= lam
    results: list = [
        FitResult(np.zeros(q), 0, 0.0, True, step, float(lmax)) if z else None
        for z, lmax in zip(zero, lambda_max)
    ]
    cols = np.flatnonzero(~zero)  # index of each running column in the input
    beta, wy, lam, tau = start[:, cols], wy[:, cols], _take(lam, cols), _take(tau, cols)
    # the point the gradient is taken at, and each column's steps since its last restart
    point, since = beta, np.zeros(cols.size)
    it = 0
    while cols.size:
        it += 1
        # a cold start is at zero, where the screen has already taken the gradient
        if it == 1 and cold:
            g = grad_zero.take(cols, axis=1)  # C-ordered, as a fresh gradient is
        else:
            g = _weighted_gradient(a, wy, back, point, tau)
        stepped = np.subtract(point, np.multiply(g, step, out=g), out=g)
        # unvalidated prox; a column has a non-finite change exactly when it diverged
        beta_new = prox(pen, stepped, lam * step)
        d = np.subtract(beta_new, point, out=stepped)
        # the sum np.linalg.norm(axis=0) computes, bit for bit
        change = np.sqrt(np.add.reduce(d * d, axis=0))
        if not np.isfinite(change).all() and not (ok := np.isfinite(beta_new).all(axis=0)).all():
            raise DivergenceError(it, int(cols[np.argmin(ok)]))
        if accelerate:  # restart where the step turns against the last move
            moved = np.subtract(beta_new, beta)
            restart = np.add.reduce(np.multiply(d, moved, out=d), axis=0) < 0
            since = np.where(restart, 0.0, since + 1.0)
            np.multiply(moved, since / (since + 3.0), out=moved)
            point = np.add(beta_new, moved, out=moved)
        else:
            point = beta_new
        beta = beta_new
        done = (change <= opt.tol) | (it == opt.max_iter)
        if done.any():
            for i in np.flatnonzero(done):
                results[cols[i]] = FitResult(
                    beta[:, i].copy(), it, float(change[i]), bool(change[i] <= opt.tol), step,
                    float(lambda_max[cols[i]]),
                )
            keep = ~done
            cols, beta, point, since = cols[keep], beta[:, keep], point[:, keep], since[keep]
            wy, lam, tau = wy[:, keep], _take(lam, keep), _take(tau, keep)
    return results
