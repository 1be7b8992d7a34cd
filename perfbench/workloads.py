"""The three benchmark workloads: ``study``, ``fit`` and ``conditions``.

Each workload builds a fixed pool of inputs from the workload seed (set-up,
off the clock), then serves one request at a time from that pool, cycling
through it (closed loop, one client).  ``run`` is the timed call into
robustvar; ``check`` validates its output outside the timed interval and
returns a list of failure messages plus the values behind the quality
figures.  The library only ever receives the generated inputs.

Library modules are looked up through ``importlib`` at call time, so that a
traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil

import numpy as np

CSV_COLUMNS = [
    "case", "p", "n", "d", "df", "tau", "lambda", "rep",
    "error", "iterations", "converged", "seed",
]
FIT_KKT_BOUND = 0.05  # l1 optimality residual allowed, as a share of lambda
RE_FLOOR = -1e-12
SEED_RANGE = 2**62


def _mod(name: str):
    return importlib.import_module(f"robustvar.{name}")


class Study:
    """The paper's replicated study as users run it: ``robustvar experiment``
    on the case1_small_heavy preset (p=10, n=30, df 2.5-3.5, tau in {1, 10},
    calibrated c, spec defaults) with one worker.  One request is one CLI call
    with one replication, i.e. 5 (cell, rep) tasks, 5 paths and 10 fits."""

    name = "study"
    pool_size = 100
    tasks_per_request = 5

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        experiments = _mod("experiments")
        rng = np.random.default_rng(seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.pool = []
        for k, spec_seed in enumerate(rng.integers(0, SEED_RANGE, self.pool_size)):
            doc = experiments.spec_to_dict(
                experiments.case1_small_heavy(seed=int(spec_seed), replications=1)
            )
            doc["output_dir"] = os.path.join(self.workdir, str(k))
            path = os.path.join(self.workdir, f"spec{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.pool.append((path, doc))

    def run(self, k: int):
        path, _ = self.pool[k]
        with contextlib.redirect_stdout(io.StringIO()):
            return _mod("cli").cli_main(["experiment", "--spec", path, "--workers", "1"])

    def check(self, k: int, rc) -> tuple[list[str], dict]:
        _, doc = self.pool[k]
        if rc != 0:
            return [f"cli exit code {rc}"], {}
        base = os.path.join(doc["output_dir"], doc["case"])
        fails = []
        with open(base + ".csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != CSV_COLUMNS:
            return [f"csv header {rows[0] if rows else None}"], {}
        body = rows[1:]
        want = len(doc["df_grid"]) * doc["replications"] * len(doc["tau_grid"])
        if len(body) != want:
            fails.append(f"csv has {len(body)} rows, expected {want}")
        if any(len(r) != len(CSV_COLUMNS) for r in body):
            fails.append("csv row with wrong field count")
            return fails, {}
        errors = [float(r[CSV_COLUMNS.index("error")]) for r in body]
        if not all(math.isfinite(e) for e in errors):
            fails.append("non-finite error in csv")
        with open(base + ".svg", encoding="utf-8") as fh:
            svg = fh.read()
        if not (svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")):
            fails.append("malformed svg")
        with open(base + ".provenance.json", encoding="utf-8") as fh:
            if "spec" not in json.load(fh):
                fails.append("provenance without spec")
        lambdas = sorted({float(r[CSV_COLUMNS.index("lambda")]) for r in body})
        return fails, {"errors": errors, "lambdas": lambdas, "fingerprint": tuple(errors)}


class Fit:
    """``fit_var`` on Student-t(3) VAR series, p=50, n=200, density 0.05,
    rho 0.5, tau=1, b=3 and the default optimizer settings apart from the
    seed.  Lambda is explicit per series: half the median per-column
    lambda_max = ||grad L(0)||_inf, rounded to 3 significant figures."""

    name = "fit"
    pool_size = 24
    tasks_per_request = 1
    p, n, density, rho, df = 50, 200, 0.05, 0.5, 3.0

    def setup(self, seed: int) -> None:
        simulate, var, losses = _mod("simulate"), _mod("var"), _mod("losses")
        optimizer, penalties = _mod("optimizer"), _mod("penalties")
        rng = np.random.default_rng(seed)
        cfg = losses.RobustConfig(tau=1.0, b=3.0)
        self.pool = []
        for b_seed, path_seed, opt_seed in rng.integers(0, SEED_RANGE, (self.pool_size, 3)):
            b = simulate.gen_er_transition(self.p, self.density, self.rho, int(b_seed))
            truth = var.VarModel((b,))
            dgp = simulate.VarTDgp(truth, simulate.StudentTNoise(self.df))
            data = simulate.simulate(dgp, self.n, 500, int(path_seed))
            regs = [losses.Regression(data[1:, j], data[:-1]) for j in range(self.p)]
            lam_max = [
                float(np.max(np.abs(losses.robust_gradient(reg, np.zeros(self.p), cfg))))
                for reg in regs
            ]
            lam = float(f"{0.5 * float(np.median(lam_max)):.3g}")
            fit = var.FitConfig(
                robust=cfg, penalty=penalties.Penalty("l1"), lambda_mode="explicit",
                lam=lam, opt=optimizer.OptimizerConfig(seed=int(opt_seed)),
            )
            self.pool.append((data, truth, regs, fit))

    def run(self, k: int):
        data, _, _, fit = self.pool[k]
        return _mod("var").fit_var(data, 1, fit)

    def check(self, k: int, out) -> tuple[list[str], dict]:
        losses, var = _mod("losses"), _mod("var")
        _, truth, regs, fit = self.pool[k]
        est, results = out
        beta = est.stacked()
        fails = []
        if not np.all(np.isfinite(beta)):
            return ["non-finite estimate"], {}
        if np.count_nonzero(beta) == 0:
            fails.append("all-zero estimate")
        bad = [j for j, r in enumerate(results) if not r.converged]
        if bad:
            fails.append(f"columns not converged: {bad[:10]}")
        lam = fit.lam
        worst = 0.0
        for j, reg in enumerate(regs):
            g = losses.robust_gradient(reg, beta[:, j], fit.robust)
            b = beta[:, j]
            resid = np.where(b != 0, np.abs(g + lam * np.sign(b)), np.maximum(np.abs(g) - lam, 0.0))
            worst = max(worst, float(resid.max()))
        if worst > FIT_KKT_BOUND * lam:
            fails.append(f"optimality residual {worst:.3g} exceeds {FIT_KKT_BOUND} * lambda {lam:g}")
        return fails, {
            "errors": [var.estimation_error(est, truth)],
            "lambdas": [lam],
            "kkt_share": worst / lam,
            "fingerprint": beta.tobytes(),
        }


class Conditions:
    """The deviation and curvature checks across process families.  One
    request holds one process of each family (VAR-t, ARCH, BEKK, threshold,
    random coefficients); each task draws a path (p=10, n=200, burn-in 500,
    t(3) noise), then runs ``deviation_check`` at theory lambda and
    ``re_check`` (200 directions) on column 0 at the truth.  Threshold paths
    use the ``indicator_map`` design with stacked regime coefficients.
    Families differ in cost by up to 2x, so a request covers all five to keep
    its time unimodal."""

    name = "conditions"
    families = ("var_t", "arch_var", "bekk_var", "threshold_var", "rc_var")
    pool_size = 10
    tasks_per_request = len(families)
    p, n, burn_in, density, rho, df = 10, 200, 500, 0.05, 0.5, 3.0
    max_path_retries = 10

    def _transition(self, rng):
        simulate = _mod("simulate")
        b = simulate.gen_er_transition(self.p, self.density, self.rho, int(rng.integers(SEED_RANGE)))
        # the ARCH, BEKK, threshold and random-coefficient gates bound norms
        # that a sparse matrix of spectral radius 0.5 can exceed, so every
        # family uses operator norm 0.5 (which implies spectral radius <= 0.5)
        return b * (self.rho / np.linalg.norm(b, 2))

    def _process(self, family: str, rng):
        simulate, var = _mod("simulate"), _mod("var")
        p, noise = self.p, simulate.StudentTNoise(self.df)
        b = self._transition(rng)
        if family == "var_t":
            return simulate.VarTDgp(var.VarModel((b,)), noise), b
        if family == "arch_var":
            f_mats = tuple(np.diag(0.1 * (np.arange(p) == j)) for j in range(p))
            return simulate.ArchVarDgp(b=b, f=(1.0,) * p, f_mats=f_mats, noise=noise), b
        if family == "bekk_var":
            return simulate.BekkVarDgp(b=b, c=np.eye(p), f=0.4 * np.eye(p), noise=noise), b
        if family == "threshold_var":
            regimes = (b, self._transition(rng))
            dgp = simulate.ThresholdVarDgp(models=regimes, partition=simulate.SignPartition(), noise=noise)
            return dgp, np.vstack(regimes)
        return simulate.RcVarDgp(b=b, gamma_sd=0.05, noise=noise), b

    def setup(self, seed: int) -> None:
        losses, penalties = _mod("losses"), _mod("penalties")
        rng = np.random.default_rng(seed)
        self.cfg = losses.RobustConfig(tau=1.0, b=3.0)
        self.pen = penalties.Penalty("l1")
        self.pool = []
        for _ in range(self.pool_size):
            request = []
            for family in self.families:
                dgp, coef = self._process(family, rng)
                path_seeds = [int(s) for s in rng.integers(0, SEED_RANGE, self.max_path_retries)]
                request.append((family, dgp, coef[:, 0].copy(), path_seeds, int(rng.integers(SEED_RANGE))))
            self.pool.append(request)

    def _task(self, family, dgp, beta_star, path_seeds, re_seed):
        simulate, losses, var = _mod("simulate"), _mod("losses"), _mod("var")
        diagnostics, experiments = _mod("diagnostics"), _mod("experiments")
        for path_seed in path_seeds:
            try:
                z = simulate.simulate(dgp, self.n, self.burn_in, path_seed)
                break
            except simulate.SimulationError:
                continue
        else:
            raise RuntimeError(f"{family}: every path attempt diverged")
        if family == "threshold_var":
            x = np.array([simulate.indicator_map(dgp.partition, row) for row in z[:-1]])
        else:
            x = z[:-1]
        reg = losses.Regression(z[1:, 0], x)
        lam = var.theory_lambda(self.p, reg.q // self.p, reg.n, self.cfg, experiments.CALIBRATED_C)
        stat, ok = diagnostics.deviation_check(reg, beta_star, self.cfg, self.pen, lam)
        re_hat = diagnostics.re_check(reg, beta_star, self.cfg, n_directions=200, seed=re_seed)
        return {"family": family, "stat": stat, "pass": ok, "re": re_hat, "lambda": lam}

    def run(self, k: int):
        return [self._task(*task) for task in self.pool[k]]

    def check(self, k: int, outs) -> tuple[list[str], dict]:
        fails = []
        for out in outs:
            if not (math.isfinite(out["stat"]) and math.isfinite(out["re"])):
                fails.append(f"{out['family']}: non-finite statistics {out}")
            elif out["re"] < RE_FLOOR:
                fails.append(f"{out['family']}: re_check {out['re']:.3g} below {RE_FLOOR}")
        return fails, {
            "deviation_pass": [bool(out["pass"]) for out in outs],
            "lambdas": [out["lambda"] for out in outs],
            "fingerprint": tuple((out["stat"], out["re"]) for out in outs),
        }


def make(name: str, workdir: str):
    if name == "study":
        return Study(workdir)
    if name == "fit":
        return Fit()
    return Conditions()
