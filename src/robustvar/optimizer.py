"""Proximal gradient descent for the penalized robust regression objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import column_seed
from .losses import Regression, RobustConfig, mallows_weights, robust_objective
from .losses import robust_gradient_columns
from .penalties import Penalty, penalty_value, prox

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "DivergenceError",
    "init_beta",
    "gradient_lipschitz_bound",
    "proximal_gradient_fit",
    "proximal_gradient_fit_columns",
]


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

    ``safe_step=True`` replaces ``step`` by 0.99 over the instance's gradient
    Lipschitz bound, which guarantees monotone descent of the penalized
    objective.  ``record_trace`` stores that objective at every iteration.
    """

    step: float = 0.9
    tol: float = 1e-4
    max_iter: int = 10000
    seed: int = 0
    safe_step: bool = False
    record_trace: bool = False

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class FitResult:
    beta_hat: np.ndarray
    iterations: int
    final_change: float
    converged: bool
    objective_trace: np.ndarray | None = None


def init_beta(q: int, seed: int) -> np.ndarray:
    """Random unit starting point: iid Uniform(-1, 1) coordinates, normalized."""
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    rng = np.random.default_rng(seed)
    while True:
        v = rng.uniform(-1.0, 1.0, q)
        nrm = np.linalg.norm(v)
        if nrm > 0:
            return v / nrm


def gradient_lipschitz_bound(reg: Regression, cfg: RobustConfig) -> float:
    """Largest eigenvalue of (1/n) sum_i w_i^3 x_i x_i', a bound on the
    curvature of the robust loss."""
    return _lipschitz_bound(reg.x, mallows_weights(reg.x, cfg))


def _lipschitz_bound(x: np.ndarray, w: np.ndarray) -> float:
    xw = x * (w ** 1.5)[:, None]
    return float(np.linalg.eigvalsh((xw.T @ xw) / x.shape[0])[-1])


def proximal_gradient_fit(
    reg: Regression,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
    opt: OptimizerConfig,
) -> FitResult:
    """Minimize robust loss + lam * penalty for one regression: the one-column
    case of :func:`proximal_gradient_fit_columns`, started from the seed ``opt.seed``."""
    return proximal_gradient_fit_columns(reg.x, reg.y[:, None], cfg, pen, lam, opt)[0]


def proximal_gradient_fit_columns(
    x: np.ndarray, y: np.ndarray, cfg: RobustConfig, pen: Penalty, lam: float, opt: OptimizerConfig
) -> list[FitResult]:
    """Fit the k regressions of ``y`` (n, k) on the shared design ``x`` (n, q),
    both finite float64, together: one proximal gradient step (threshold
    lam*step) for all running columns per iteration.  Column j starts from
    ``init_beta(q, column_seed(opt.seed, j))`` and stops on its own once its
    iterates move by at most ``opt.tol`` or after ``opt.max_iter`` updates."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    q, k = x.shape[1], y.shape[1]
    pen.check_coverage(q)
    w = mallows_weights(x, cfg)
    step = 0.99 / _lipschitz_bound(x, w) if opt.safe_step else opt.step
    regs = [Regression(y[:, j], x) for j in range(k)] if opt.record_trace else None
    traces: list[list[float]] = [[] for _ in range(k)]
    results: list = [None] * k
    beta = np.column_stack([init_beta(q, column_seed(opt.seed, j)) for j in range(k)])
    cols = np.arange(k)  # index of each running column in the input
    for it in range(1, opt.max_iter + 1):
        stepped = beta - step * robust_gradient_columns(x, y, beta, w, cfg.tau)
        if not np.all(np.isfinite(stepped)):
            raise DivergenceError(it, int(cols[np.argmin(np.isfinite(stepped).all(axis=0))]))
        beta_new = prox(pen, stepped, lam * step)
        change = np.linalg.norm(beta_new - beta, axis=0)
        beta = beta_new
        for i, j in enumerate(cols if regs is not None else ()):
            f = robust_objective(regs[j], beta[:, i], cfg, weights=w)
            traces[j].append(f + lam * penalty_value(pen, beta[:, i]))
        done = (change <= opt.tol) | (it == opt.max_iter)
        for i in np.flatnonzero(done):
            results[cols[i]] = FitResult(
                beta[:, i].copy(), it, float(change[i]), bool(change[i] <= opt.tol),
                None if regs is None else np.asarray(traces[cols[i]]),
            )
        if done.any():
            cols, beta, y = cols[~done], beta[:, ~done], y[:, ~done]
            if cols.size == 0:
                break
    return results
