"""Empirical checks of the two conditions that drive the estimation theory.

The deviation check compares the dual norm of the loss gradient at the true
parameter against half the tuning value; the curvature check probes the
Taylor remainder of the loss along random sparse directions and reports the
smallest remainder-to-squared-norm ratio observed.  The probes are evaluated
in blocks through one objective call each, which gives the same values, bit
for bit, as evaluating them one at a time.  Both work on a
``Regression`` with known truth; the replicated run over the benchmark
generator is ``experiments.run_deviation_experiment``.
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
    robust_gradient,
    robust_objective,
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


def deviation_check(
    reg: Regression,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
) -> tuple[float, bool]:
    """Dual norm of the gradient at the truth, and whether it is at most lam/2."""
    stat = dual_value(pen, robust_gradient(reg, beta_star, cfg))
    return stat, stat <= lam / 2.0


def _re_probe(
    reg: Regression,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    radius: float | None,
    n_directions: int,
    sparsity_s: int,
    seed: int,
) -> tuple[float, np.ndarray]:
    """Smallest remainder ratio and its direction; radius None is tau / (2 * b_max)."""
    if radius is None:
        radius = cfg.tau / (2.0 * cfg.b_max)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    _check_int("n_directions", n_directions, 1)
    _check_int("sparsity_s", sparsity_s, 1)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    q = reg.q
    s = min(sparsity_s, q)
    w = mallows_weights(reg.x, cfg)
    base = robust_objective(reg, beta_star, cfg, weights=w)
    grad = robust_gradient(reg, beta_star, cfg, weights=w)
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
    best = np.inf
    best_dir = np.zeros(q)
    for start in range(0, len(directions), _PROBE_BLOCK):
        block = directions[start : start + _PROBE_BLOCK]
        values = robust_objective_columns(reg.x, reg.y, beta_star + block, w, cfg.tau)
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
    return _re_probe(reg, beta_star, cfg, radius, n_directions, sparsity_s, seed)[0]


def diagnostics_replication(
    reg: Regression,
    beta_star: np.ndarray,
    cfg: RobustConfig,
    pen: Penalty,
    lam: float,
    seed: int,
    n_directions: int = 200,
    include_re: bool = True,
) -> DiagnosticsReport:
    """Both condition diagnostics for one regression with known truth."""
    stat, ok = deviation_check(reg, beta_star, cfg, pen, lam)
    re_hat = np.nan
    min_dir = None
    n_dirs = 0
    if include_re:
        s = max(1, int(np.count_nonzero(beta_star)))
        re_hat, min_dir = _re_probe(reg, beta_star, cfg, None, n_directions, s, seed)
        n_dirs = n_directions
    return DiagnosticsReport(
        deviation_stat=stat,
        lambda_half=lam / 2.0,
        deviation_pass=ok,
        re_hat=re_hat,
        re_directions=n_dirs,
        min_direction=min_dir,
    )


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
