"""Proximal gradient descent for the penalized robust regression objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _check_int
from ._seeds import column_seed
from .losses import Regression, RobustConfig, mallows_weights, robust_gradient_columns
from .penalties import Penalty, prox

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "DivergenceError",
    "init_beta",
    "init_columns",
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

    ``step=None`` (the default) steps by 1/L, the inverse of the design's
    gradient Lipschitz bound (:func:`gradient_lipschitz_bound`), which
    guarantees monotone descent of the penalized objective; a float is used
    as a fixed step instead.
    """

    step: float | None = None
    tol: float = 1e-4
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.step is not None and not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        _check_int("max_iter", self.max_iter, 1)
        _check_int("seed", self.seed, 0, 2**64)


@dataclass
class FitResult:
    """One column's estimate, its stop state, and the step the solver used."""

    beta_hat: np.ndarray
    iterations: int
    final_change: float
    converged: bool
    step: float


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


def init_columns(q: int, k: int, seed: int) -> np.ndarray:
    """The (q, k) seeded start of a k-column fit: column j is
    ``init_beta(q, column_seed(seed, j))``."""
    return np.column_stack([init_beta(q, column_seed(seed, j)) for j in range(k)])


def gradient_lipschitz_bound(reg: Regression, cfg: RobustConfig) -> float:
    """Largest eigenvalue of (1/n) sum_i w_i^3 x_i x_i', a bound on the
    curvature of the robust loss."""
    return _lipschitz_bound(reg.x, mallows_weights(reg.x, cfg))


def _lipschitz_bound(x: np.ndarray, w: np.ndarray) -> float:
    xw = x * (w ** 1.5)[:, None]
    return float(np.linalg.eigvalsh((xw.T @ xw) / x.shape[0])[-1])


def _curvature_step(x: np.ndarray, w: np.ndarray) -> float:
    """1/L for the design ``x`` with weights ``w``.  An all-zero design has
    L = 0 and an identically zero gradient, so any finite step is exact there;
    it gets step 1."""
    lip = _lipschitz_bound(x, w)
    return 1.0 / lip if lip > 0 else 1.0


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
    x: np.ndarray,
    y: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
    opt: OptimizerConfig,
    start: np.ndarray | None = None,
) -> list[FitResult]:
    """Fit the k regressions of ``y`` (n, k) on the shared design ``x`` (n, q),
    both finite float64, together: one proximal gradient step (threshold
    lam*step, with the step of ``opt``, by default 1/L of ``x``) for all
    running columns per iteration.  Column j starts from ``start[:, j]``
    (``start`` is (q, k) and is not modified), by default from
    ``init_columns(q, k, opt.seed)``, and stops on its own once its iterates
    move by at most ``opt.tol`` or after ``opt.max_iter`` updates."""
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    q, k = x.shape[1], y.shape[1]
    if start is None:
        beta = init_columns(q, k, opt.seed)
    else:
        beta = np.asarray(start, dtype=np.float64)
        if beta.shape != (q, k) or not np.all(np.isfinite(beta)):
            raise ValueError(f"start must be a finite ({q}, {k}) array, got shape {beta.shape}")
    pen.check_coverage(q)
    w = mallows_weights(x, cfg)
    step = _curvature_step(x, w) if opt.step is None else opt.step
    results: list = [None] * k
    cols = np.arange(k)  # index of each running column in the input
    for it in range(1, opt.max_iter + 1):
        stepped = beta - step * robust_gradient_columns(x, y, beta, w, cfg.tau)
        if not np.all(np.isfinite(stepped)):
            raise DivergenceError(it, int(cols[np.argmin(np.isfinite(stepped).all(axis=0))]))
        # unvalidated prox: stepped is finite, lam * step >= 0, groups checked above
        beta_new = prox(pen, stepped, lam * step)
        change = np.linalg.norm(beta_new - beta, axis=0)
        beta = beta_new
        done = (change <= opt.tol) | (it == opt.max_iter)
        for i in np.flatnonzero(done):
            results[cols[i]] = FitResult(
                beta[:, i].copy(), it, float(change[i]), bool(change[i] <= opt.tol), step
            )
        if done.any():
            cols, beta, y = cols[~done], beta[:, ~done], y[:, ~done]
            if cols.size == 0:
                break
    return results
