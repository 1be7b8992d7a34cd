"""Empirical checks of the two conditions that drive the estimation theory.

The deviation check compares the dual norm of the loss gradient at the true
parameter against half the tuning value; the curvature check probes the
Taylor remainder of the loss along random sparse directions and reports the
smallest remainder-to-squared-norm ratio observed.  The probes are evaluated
in blocks through one objective call each, which gives the same values, bit
for bit, as evaluating them one at a time.  Both work on a
``Regression`` with known truth; the replicated run over the benchmark
generator, ``experiments.run_deviation_experiment``, passes its lagged design
to ``diagnostics_replication``, which weights it and takes the gradient at
the truth once for both checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._checks import _check_int
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

# Probes evaluated per objective call: an (n, k) residual block per call keeps
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


def _at_truth(
    x: np.ndarray, y: np.ndarray, beta_star, cfg: RobustConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The truth as float64, checked once where it enters (shape (q,), finite),
    then the Mallows weights of ``x`` and the loss gradient (q,) at the truth."""
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_star.shape != (x.shape[1],):
        raise ValueError(f"beta_star has shape {beta_star.shape}, expected ({x.shape[1]},)")
    if not np.isfinite(beta_star).all():
        raise ValueError("beta_star must be finite")
    w = mallows_weights(x, cfg)
    return beta_star, w, robust_gradient_columns(x, y[:, None], beta_star[:, None], w, cfg.tau)[:, 0]


def deviation_check(
    reg: Regression,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
) -> tuple[float, bool]:
    """Dual norm of the gradient at the truth, and whether it is at most lam/2."""
    stat = dual_value(pen, _at_truth(reg.x, reg.y, beta_star, cfg)[2])
    return stat, stat <= lam / 2.0


def _re_probe(
    x: np.ndarray,
    y: np.ndarray,
    truth: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: RobustConfig,
    radius: float | None,
    n_directions: int,
    sparsity_s: int,
    seed: int,
) -> tuple[float, np.ndarray]:
    """Smallest remainder ratio and its direction at ``truth``, the
    (beta_star, weights, gradient) of :func:`_at_truth`; radius None is
    tau / (2 * b_max).  A non-finite loss at the truth raises."""
    if radius is None:
        radius = cfg.tau / (2.0 * cfg.b_max)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    _check_int("n_directions", n_directions, 1)
    _check_int("sparsity_s", sparsity_s, 1)
    beta_star, w, grad = truth
    q = x.shape[1]
    s = min(sparsity_s, q)
    base = float(robust_objective_columns(x, y, beta_star[None, :], w, cfg.tau)[0])
    if not math.isfinite(base):
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
    best, best_dir = np.inf, np.zeros(q)
    for start in range(0, len(directions), _PROBE_BLOCK):
        block = directions[start : start + _PROBE_BLOCK]
        values = robust_objective_columns(x, y, beta_star + block, w, cfg.tau)
        for v, value in zip(block, values):
            ratio = (value - base - grad @ v) / (radius * radius)
            if ratio < best:
                best = ratio
                best_dir = v.copy()
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
    with both signs.  The result is nonnegative up to roundoff because the
    loss is convex.
    """
    truth = _at_truth(reg.x, reg.y, beta_star, cfg)
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
    (n, q), both finite float64, with known truth; the weights and the
    gradient at the truth are computed once and feed both checks."""
    truth = _at_truth(x, y, beta_star, cfg)
    stat = dual_value(pen, truth[2])
    re_hat, min_dir, n_dirs = np.nan, None, 0
    if include_re:
        s = max(1, int(np.count_nonzero(truth[0])))
        re_hat, min_dir = _re_probe(x, y, truth, cfg, None, n_directions, s, seed)
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
