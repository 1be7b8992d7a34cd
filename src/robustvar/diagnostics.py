"""Empirical checks of the two conditions that drive the estimation theory.

The deviation check compares the dual norm of the loss gradient at the true
parameter against half the tuning value; the curvature check probes the
Taylor remainder of the loss along random sparse directions and reports the
smallest remainder-to-squared-norm ratio observed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seed
from .losses import Regression, RobustConfig, mallows_weights, robust_gradient, robust_objective
from .penalties import Penalty, dual_value

__all__ = [
    "DiagnosticsReport",
    "deviation_check",
    "re_check",
    "write_reports_csv",
]


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
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n_directions < 1:
        raise ValueError(f"n_directions must be at least 1, got {n_directions}")
    beta_star = np.asarray(beta_star, dtype=np.float64)
    q = reg.q
    s = min(max(1, sparsity_s), q)
    w = mallows_weights(reg.x, cfg)
    base = robust_objective(reg, beta_star, cfg, weights=w)
    grad = robust_gradient(reg, beta_star, cfg, weights=w)
    rng = np.random.default_rng(seed)
    best = np.inf
    best_dir = np.zeros(q)
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
        for v in (u, -u):
            remainder = (
                robust_objective(reg, beta_star + v, cfg, weights=w)
                - base
                - grad @ v
            )
            ratio = remainder / (radius * radius)
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
    (default tau / (2 * b_max), the local ball the error analysis works in);
    each direction is probed with both signs.  The result is nonnegative up
    to roundoff because the loss is convex.
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


def run_deviation_experiment(
    p: int,
    n: int,
    df: float,
    tau: float,
    b: float,
    c: float,
    replications: int,
    seed: int,
    density: float = 0.05,
    rho_target: float = 0.5,
    burn_in: int = 500,
    column: int = 0,
    n_directions: int = 200,
    include_re: bool = False,
) -> list[DiagnosticsReport]:
    """Replicated diagnostics on the benchmark sparse-VAR generator.

    Each replication draws a fresh transition matrix and path, then runs the
    condition checks on the regression of the designated ``column`` with the
    theory-mode tuning value at constant ``c``.
    """
    # local import: simulate depends on var which sits above this module
    from .simulate import StudentTNoise, VarTDgp, gen_er_transition, simulate
    from .var import VarModel, decompose_regressions, theory_lambda

    cfg = RobustConfig(tau=tau, b=b)
    pen = Penalty("l1")
    lam = theory_lambda(p, 1, n - 1, cfg, c)
    reports = []
    for rep in range(replications):
        rep_seed = derive_seed(seed, rep)
        b_mat = gen_er_transition(p, density, rho_target, derive_seed(rep_seed, 0))
        truth = VarModel((b_mat,))
        data = simulate(
            VarTDgp(truth, StudentTNoise(df)), n, burn_in, derive_seed(rep_seed, 1)
        )
        reg = decompose_regressions(data, 1)[column]
        reports.append(
            diagnostics_replication(
                reg, truth.stacked()[:, column], cfg, pen, lam,
                seed=derive_seed(rep_seed, 2), n_directions=n_directions,
                include_re=include_re,
            )
        )
    return reports


def write_reports_csv(reports: list[DiagnosticsReport], path) -> None:
    """One CSV row per replication."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["rep", "deviation_stat", "lambda_half", "deviation_pass",
             "re_hat", "re_directions", "min_direction"]
        )
        for i, rep in enumerate(reports):
            direction = (
                ""
                if rep.min_direction is None
                else " ".join(format(v, ".17g") for v in rep.min_direction)
            )
            writer.writerow(
                [
                    i,
                    format(rep.deviation_stat, ".17g"),
                    format(rep.lambda_half, ".17g"),
                    "true" if rep.deviation_pass else "false",
                    format(rep.re_hat, ".17g"),
                    rep.re_directions,
                    direction,
                ]
            )
