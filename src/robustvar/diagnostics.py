"""Empirical checks of the two conditions that drive the estimation theory.

The deviation check compares the dual norm of the loss gradient at the true
parameter against half the tuning value; the curvature check probes the
Taylor remainder of the loss along random sparse directions and reports the
smallest remainder-to-squared-norm ratio observed.  Each remainder is summed
term by term as Huber Bregman divergences of the weighted residuals, each
nonnegative in floating point, so the check never subtracts two losses; the
probes are scored in blocks, each value equal, bit for bit, to scoring its
direction alone.  Both work on a
``Regression`` with known truth; the replicated run over the benchmark
generator, ``experiments.run_deviation_experiment``, passes its lagged design
to ``diagnostics_replication``, which checks the truth and weights the design
once for both checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._checks import _check_int, _check_real
from ._tables import format_cell, write_table
from .losses import (
    Regression,
    RobustConfig,
    mallows_weights,
    robust_gradient_columns,
    robust_objective_columns,
)
from .penalties import Penalty, dual_value

__all__ = [
    "DiagnosticsReport",
    "deviation_check",
    "re_check",
    "write_reports_csv",
]

# Probes scored per kernel call: a (k, n) residual block per call keeps
# memory flat in the number of directions.
_PROBE_BLOCK = 64


@dataclass
class DiagnosticsReport:
    """One replication's condition diagnostics."""

    deviation_stat: float
    lambda_half: float
    deviation_pass: bool
    re_hat: float
    re_directions: int
    min_direction: np.ndarray | None


def _at_truth(x: np.ndarray, beta_star, cfg: RobustConfig) -> tuple[np.ndarray, np.ndarray]:
    """The truth as float64, checked once where it enters (shape (q,), finite),
    and the Mallows weights of ``x``."""
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_star.shape != (x.shape[1],):
        raise ValueError(f"beta_star has shape {beta_star.shape}, expected ({x.shape[1]},)")
    if not np.isfinite(beta_star).all():
        raise ValueError("beta_star must be finite")
    return beta_star, mallows_weights(x, cfg)


def deviation_check(
    reg: Regression,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
) -> tuple[float, bool]:
    """Dual norm of the gradient at the truth, and whether it is at most lam/2."""
    beta_star, w = _at_truth(reg.x, beta_star, cfg)
    grad = robust_gradient_columns(reg.x, reg.y[:, None], beta_star[:, None], w, cfg.tau)
    stat = dual_value(pen, grad[:, 0])
    return stat, stat <= lam / 2.0


def _huber_bregman_sums(
    xw: np.ndarray, a: np.ndarray, w: np.ndarray, tau: float, block: np.ndarray
) -> np.ndarray:
    """Weighted sums (k,) of Huber Bregman divergences, one per row v of ``block``
    (k, q): sum_i w_i * D(b_i, a_i) with b = a - xw @ v, the weighted residuals
    (n,) at the truth ``a`` moved by the step v on the weighted design ``xw``
    (n, q); inputs are not validated.

    D(b, a) = h(b) - h(a) - psi(a) (b - a), for the Huber loss h and its
    derivative psi = clip(., -tau, tau), is t * (t/2 + (b - c)) with c = psi(b)
    and t = c - psi(a); the two factors share a sign, so every term, and every
    sum, is exactly >= 0.  Each row is its own matrix-vector product and its
    own pairwise sum over the contiguous axis, bit-equal to scoring v alone.
    """
    b = np.subtract(a, np.matmul(xw, block[:, :, None])[:, :, 0])
    c = np.clip(b, -tau, tau)
    b -= c  # the part of b past the cut-off
    c -= np.clip(a, -tau, tau)  # t
    b += c * 0.5
    b *= c
    b *= w
    return np.add.reduce(b, axis=1)


def _re_probe(
    x: np.ndarray,
    y: np.ndarray,
    truth: tuple[np.ndarray, np.ndarray],
    cfg: RobustConfig,
    radius: float | None,
    n_directions: int,
    sparsity_s: int,
    seed: int,
) -> tuple[float, np.ndarray]:
    """Smallest remainder ratio and its direction at ``truth`` (see :func:`_at_truth`); radius
    None is tau / (2 * b_max).  A non-finite loss at the truth raises, as does a radius at which
    n * radius**2, or the bound 1.5 * n * reach**2 on a remainder sum, leaves the float range."""
    if radius is None:
        radius = cfg.tau / (2.0 * cfg.b_max)
    _check_real("radius", radius, 0)
    _check_int("n_directions", n_directions, 1)
    _check_int("sparsity_s", sparsity_s, 1)
    beta_star, w = truth
    n, q = x.shape
    xw = x * w[:, None]
    r = float(radius)  # a Python float overflows to inf without a warning
    scale = n * r * r
    reach = r * math.sqrt(q) * float(np.abs(xw).max(initial=0.0))  # >= |xw_i . v| for |v| = r
    if not 0 < scale < math.inf or 1.5 * n * reach * reach == math.inf:
        raise ValueError(f"radius {radius:g} at tau {cfg.tau:g} puts the sums out of float range")
    s = min(sparsity_s, q)
    if not math.isfinite(robust_objective_columns(x, y, beta_star[None, :], w, cfg.tau)[0]):
        raise ValueError("the loss at beta_star is not finite")
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(n_directions):
        support = rng.choice(q, size=s, replace=False)
        u = np.zeros(q)
        u[support] = rng.standard_normal(s)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            continue
        u *= radius / nrm
        # curvature is sign-asymmetric away from the quadratic regime, so
        # probe both u and -u
        probes += (u, -u)
    directions = np.array(probes).reshape(-1, q)
    resid = w * (y - x @ beta_star)
    best, best_dir = np.inf, np.zeros(q)
    for start in range(0, len(directions), _PROBE_BLOCK):
        block = directions[start : start + _PROBE_BLOCK]
        ratios = _huber_bregman_sums(xw, resid, w, cfg.tau, block) / scale
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best, best_dir = ratios[i], block[i].copy()
    return float(best), best_dir


def re_check(
    reg: Regression,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    radius: float | None = None,
    n_directions: int = 200,
    sparsity_s: int = 1,
    seed: int = 0,
) -> float:
    """Smallest Taylor-remainder curvature of the loss at the truth.

    Directions are random s-sparse unit vectors scaled to ``radius``
    (default tau / (2 * b_max), the local ball the error analysis works in;
    an ``s`` above the dimension q is taken as q); each direction is probed
    with both signs.  Each remainder is a sum of Huber Bregman divergences,
    each computed nonnegative, so the result is exactly >= 0, as convexity of
    the loss says it is.
    """
    truth = _at_truth(reg.x, beta_star, cfg)
    return _re_probe(reg.x, reg.y, truth, cfg, radius, n_directions, sparsity_s, seed)[0]


def diagnostics_replication(
    x: np.ndarray,
    y: np.ndarray,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
    seed: int,
    n_directions: int = 200,
    include_re: bool = True,
) -> DiagnosticsReport:
    """Both condition diagnostics for the regression of ``y`` (n,) on ``x``
    (n, q), both finite float64, with known truth; the truth is checked and
    the weights computed once for both checks."""
    beta_star, w = _at_truth(x, beta_star, cfg)
    grad = robust_gradient_columns(x, y[:, None], beta_star[:, None], w, cfg.tau)
    stat = dual_value(pen, grad[:, 0])
    re_hat, min_dir, n_dirs = np.nan, None, 0
    if include_re:
        s = max(1, int(np.count_nonzero(beta_star)))
        re_hat, min_dir = _re_probe(x, y, (beta_star, w), cfg, None, n_directions, s, seed)
        n_dirs = n_directions
    return DiagnosticsReport(stat, lam / 2.0, stat <= lam / 2.0, re_hat, n_dirs, min_dir)


def write_reports_csv(reports: list[DiagnosticsReport], path) -> None:
    """One CSV row per replication."""
    header = ["rep", *(f.name for f in fields(DiagnosticsReport))]
    rows = [
        (i, r.deviation_stat, r.lambda_half, r.deviation_pass, r.re_hat, r.re_directions,
         "" if r.min_direction is None
         else " ".join(format_cell(float, v) for v in r.min_direction))
        for i, r in enumerate(reports)
    ]
    write_table(path, header, (int, float, float, bool, float, int, str), rows)
