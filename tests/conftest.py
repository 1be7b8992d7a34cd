"""Shared test oracles."""

import numpy as np

from robustvar.losses import mallows_weights, robust_objective_columns


def objective_at(reg, beta, cfg):
    """The weighted robust loss of the regression ``reg`` at one ``beta``: the
    one-row case of the objective kernel, with the design's Mallows weights."""
    w = mallows_weights(reg.x, cfg)
    return float(robust_objective_columns(reg.x, reg.y, beta[None, :], w, cfg.tau)[0])


def penalty_norm(pen, v):
    """Penalty norm of ``v``: sum |v_j| (l1) or the sum of block norms (group),
    for the penalized objective values the solver tests compare."""
    v = np.asarray(v, dtype=np.float64)
    if pen.kind == "l1":
        return float(np.sum(np.abs(v)))
    return float(sum(np.linalg.norm(v[list(g)]) for g in pen.groups))


def cd_robust_lasso(y, x, lam, tau, b, sweeps=2000, tol=1e-10):
    """Cyclic coordinate descent reference solver for the penalized robust
    objective, independent of the proximal gradient code path.

    Each scalar subproblem is solved by bisection on the subgradient
    (monotone by convexity of the loss).
    """
    n, q = x.shape
    norms = np.linalg.norm(x, axis=1)
    w = np.ones(n)
    nz = norms > 0
    w[nz] = np.minimum(1.0, b / norms[nz])
    w2x = (w * w)[:, None] * x

    def partial(j, beta):
        r = y - x @ beta
        lp = np.clip(w * r, -tau, tau)
        return -float(lp @ w2x[:, j]) / n

    beta = np.zeros(q)
    for _ in range(sweeps):
        delta = 0.0
        for j in range(q):
            old = beta[j]

            def h(t):
                beta[j] = t
                return partial(j, beta)

            if abs(h(0.0)) <= lam:
                new = 0.0
            else:
                sign = -1.0 if h(0.0) > lam else 1.0
                lo, hi = 0.0, sign
                while (h(hi) + lam * np.sign(hi)) * sign < 0 and abs(hi) < 1e12:
                    hi *= 2
                lo, hi = (min(lo, hi), max(lo, hi))
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if h(mid) + lam * np.sign(mid) > 0:
                        hi = mid
                    else:
                        lo = mid
                new = 0.5 * (lo + hi)
            beta[j] = new
            delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return beta
