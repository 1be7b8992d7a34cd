"""Simulation-study harness: sweep noise heaviness, sample size, and
robustification level over replicated sparse-VAR fits, with CSV output.

A grid cell fixes the data-generating parameters (degrees of freedom, sample
size); every robustification level in ``tau_grid`` is fit on the same
simulated path of that cell, all levels in one solver call, so comparisons
across levels are paired.
Per-cell, per-replication seeds are derived deterministically from the spec
seed, which makes the emitted CSV byte-identical for any worker count.

``run_deviation_experiment`` checks the deviation condition on the same
generator instead of fitting; both check its settings once, up front.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._checks import _check_int, _check_real
from ._seeds import derive_seed
from ._tables import read_table, write_table
from .diagnostics import DiagnosticsReport, diagnostics_replication
from .losses import RobustConfig
from .optimizer import OptimizerConfig, proximal_gradient_fit_columns
from .penalties import Penalty
from .simulate import (
    SimulationError, StudentTNoise, VarTDgp, gen_er_transition, simulate, simulate_paths,
)
from .var import FitConfig, VarModel, _Unchecked, estimation_error

__all__ = [
    "CALIBRATED_C",
    "ExperimentSpec",
    "case1_small",
    "case1_medium",
    "case1_small_heavy",
    "case1_medium_heavy",
    "case2",
    "case3",
    "run_experiment",
    "run_deviation_experiment",
    "aggregate",
    "emit_csv",
    "read_results_csv",
    "write_provenance",
    "spec_to_dict",
    "spec_from_dict",
]

log = logging.getLogger(__name__)

RNG_ID = "numpy PCG64; streams derived by splitmix64 over (seed, cell, rep)"

# Tuning constant for theory-mode lambda, calibrated once on the small-VAR
# benchmark (p=10, n=30, t(3) noise, tau=1, b=3, 200 replications, seed 0)
# as the smallest rounded value at which the deviation condition holds in at
# least 90% of replications, and frozen here.
CALIBRATED_C = 0.45

# the results CSV columns in order, with the type each value is read back as
CSV_SCHEMA = (
    ("case", str), ("p", int), ("n", int), ("d", int), ("df", float), ("tau", float),
    ("lambda", float), ("rep", int), ("error", float), ("iterations", int),
    ("converged", bool), ("seed", int),
)
CSV_FIELDS, CSV_KINDS = (list(column) for column in zip(*CSV_SCHEMA))

MAX_PATH_RETRIES = 10

# Most bytes of noise and state that one stacked recursion holds while it runs
# (two (burn_in + n, p) float arrays per path at lag 1, the lag of every study
# and diagnose stack): bounds a worker's memory, whatever the number, length or
# dimension of the paths.  Each drawn path keeps only its own n rows.
_STACK_BYTES = 8 << 20


def _stacks(items: list, steps: int, p: int, workers: int = 1) -> list[list]:
    """``items`` cut into consecutive runs, one stacked recursion each: as many
    paths of ``steps`` x ``p`` as ``_STACK_BYTES`` holds, and at least one, but
    no more than a ``workers``-th share of the items, so that every worker
    gets some."""
    size = max(1, min(_STACK_BYTES // (16 * steps * p), math.ceil(len(items) / workers)))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _study_dgp(p: int, density: float, rho_target: float, df: float, rep_seed: int) -> VarTDgp:
    """The replication's sparse VAR(1) truth with t(df) noise."""
    b_mat = gen_er_transition(p, density, rho_target, derive_seed(rep_seed, 0))
    return VarTDgp(VarModel(_Unchecked((b_mat,))), StudentTNoise(df))


def _check_generator(p: int, n_values, replications: int, burn_in: int,
                     density: float, rho_target: float) -> None:
    """Reject settings of the sparse VAR-t study generator that cannot run:
    the theory lambda is 0 at p=1, and a lag-1 fit needs at least 2 rows."""
    _check_int("p", p, 2)
    for n in n_values:
        _check_int("n", n, 2)
    _check_int("replications", replications, 1)
    _check_int("burn_in", burn_in, 0)
    _check_real("density", density, 0, 1)
    _check_real("rho_target", rho_target, 0)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a case label, parameter grids, and run bookkeeping.

    Every fit is lag 1.  Construction stores each grid as a tuple, checks the
    generator settings and seed, builds the fit settings of each tau with the
    tuning value of each n, and the noise of each df, so a value they reject
    fails here, before any path is simulated.
    """

    case: str = "custom"
    p: int = 10
    n_grid: tuple[int, ...] = (30,)
    df_grid: tuple[float, ...] = (3.0,)
    tau_grid: tuple[float, ...] = (1.0, 10.0)
    replications: int = 10
    density: float = 0.05
    rho_target: float = 0.5
    b: float = 3.0
    seed: int = 0
    lambda_mode: str = "theory"
    c: float = CALIBRATED_C
    lam: float = 0.0
    burn_in: int = 500
    step: float | None = None  # None: 1/L of each fit's design
    tol: float = 1e-4
    max_iter: int = 10000
    output_dir: str = "."

    def __post_init__(self):
        if self.case not in ("case1_df_sweep", "case2_n_sweep", "case3_n_sweep_fixed_tau", "custom"):
            raise ValueError(f"unknown case {self.case!r}")
        for grid in ("n_grid", "df_grid", "tau_grid"):
            if not isinstance(values := getattr(self, grid), (list, tuple)):
                raise ValueError(f"{grid} must be a list of values, got {values!r}")
            object.__setattr__(self, grid, tuple(values))
        if not (self.n_grid and self.df_grid and self.tau_grid):
            raise ValueError("grids must be nonempty")
        _check_generator(self.p, self.n_grid, self.replications, self.burn_in,
                         self.density, self.rho_target)
        _check_int("seed", self.seed)
        for tau in self.tau_grid:
            fit = self.fit_config(tau)
            for n in self.n_grid:
                fit.lambda_for(self.p, 1, n - 1)
        for df in self.df_grid:
            StudentTNoise(df)

    def fit_config(self, tau: float) -> FitConfig:
        """Settings of the l1 fits at robustification level ``tau``."""
        return FitConfig(
            robust=RobustConfig(tau=tau, b=self.b),
            penalty=Penalty("l1"),
            lambda_mode=self.lambda_mode,
            lam=self.lam,
            c=self.c,
            opt=OptimizerConfig(step=self.step, tol=self.tol, max_iter=self.max_iter),
        )


def case1_small(seed: int = 0, replications: int = 20) -> ExperimentSpec:
    """Error vs noise heaviness, small system, strong vs weak robustification."""
    return ExperimentSpec(
        case="case1_df_sweep", p=10, n_grid=(30,),
        df_grid=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
        tau_grid=(1.0, 10.0), replications=replications, seed=seed,
    )


def case1_medium(seed: int = 0, replications: int = 20) -> ExperimentSpec:
    """Error vs noise heaviness, medium system."""
    return ExperimentSpec(
        case="case1_df_sweep", p=30, n_grid=(60,),
        df_grid=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
        tau_grid=(1.0, 10.0), replications=replications, seed=seed,
    )


def case1_small_heavy(seed: int = 0, replications: int = 20) -> ExperimentSpec:
    """Error vs noise heaviness over very heavy tails, small system."""
    return ExperimentSpec(
        case="case1_df_sweep", p=10, n_grid=(30,),
        df_grid=(2.5, 2.75, 3.0, 3.25, 3.5),
        tau_grid=(1.0, 10.0), replications=replications, seed=seed,
    )


def case1_medium_heavy(seed: int = 0, replications: int = 20) -> ExperimentSpec:
    """Error vs noise heaviness over very heavy tails, medium system."""
    return ExperimentSpec(
        case="case1_df_sweep", p=30, n_grid=(60,),
        df_grid=(2.5, 2.75, 3.0, 3.25, 3.5),
        tau_grid=(1.0, 10.0), replications=replications, seed=seed,
    )


def case2(p: int = 10, seed: int = 0, replications: int = 10) -> ExperimentSpec:
    """Error vs sample size at fixed noise (df=3), strong vs weak robustification."""
    return ExperimentSpec(
        case="case2_n_sweep", p=p, n_grid=(30, 60, 120, 240),
        df_grid=(3.0,), tau_grid=(1.0, 10.0), replications=replications, seed=seed,
    )


def case3(p: int = 10, seed: int = 0, replications: int = 20) -> ExperimentSpec:
    """Error vs sample size at fixed noise (df=3), two moderate robustification levels."""
    return ExperimentSpec(
        case="case3_n_sweep_fixed_tau", p=p, n_grid=(30, 60, 120, 240),
        df_grid=(3.0,), tau_grid=(1.0, 3.0), replications=replications, seed=seed,
    )


def _run_cell_rep(spec: ExperimentSpec, fit: FitConfig, lams: list[float],
                  task: tuple[int, float, int, int], rep_seed: int,
                  dgp: VarTDgp, data: np.ndarray | SimulationError) -> list[dict]:
    """All rows for one (grid cell, replication): one row per tau level, fitted
    with ``fit`` (its tau replaced by each level's) and the level's tuning value
    in ``lams``.  The levels share the path's lag-1 design, so they are fitted in
    one tau-major call of len(tau_grid) * p columns, every column from zero.
    ``data`` is the attempt-0 path or its error; a non-finite path is retried
    alone, on the next substreams."""
    cell_index, df, n, rep = task
    attempt = 0
    while isinstance(data, SimulationError):
        log.warning("cell %d rep %d attempt %d: %s", cell_index, rep, attempt, data)
        attempt += 1
        if attempt == MAX_PATH_RETRIES:
            data = None
            break
        try:
            data = simulate(dgp, n, spec.burn_in, derive_seed(rep_seed, 1, attempt))
        except SimulationError as exc:
            data = exc
    p, levels = spec.p, len(spec.tau_grid)
    rows = [{"case": spec.case, "p": p, "n": n, "d": 1, "df": df, "tau": tau, "lambda": lam,
             "rep": rep, "seed": rep_seed} for tau, lam in zip(spec.tau_grid, lams)]
    if data is None:
        for row in rows:
            row.update(error=math.nan, iterations=0, converged=False)
        return rows
    # the path was checked finite where it was drawn
    results = proximal_gradient_fit_columns(
        data[:-1], np.tile(data[1:], levels), fit.robust, fit.penalty,
        np.repeat(lams, p), fit.opt, tau=np.repeat(spec.tau_grid, p),
    )
    est = np.column_stack([r.beta_hat for r in results])  # tau-major: one p-column block per level
    for row, i in zip(rows, range(0, levels * p, p)):
        level = results[i:i + p]
        row.update(
            error=estimation_error(VarModel(_Unchecked((est[:, i:i + p],))), dgp.model),
            iterations=max(r.iterations for r in level),
            converged=all(r.converged for r in level),
        )
    return rows


def _run_stack(spec: ExperimentSpec, tasks: list[tuple[int, float, int, int]]) -> list[list[dict]]:
    """The rows of each of a list of (cell index, df, n, rep) tasks of one n,
    in task order, their attempt-0 paths drawn by one stacked recursion.  The
    fit settings of each tau, and their tuning values at this n, are built
    once per stack."""
    n = tasks[0][2]
    fits = [spec.fit_config(tau) for tau in spec.tau_grid]
    lams = [fit.lambda_for(spec.p, 1, n - 1) for fit in fits]
    rep_seeds = [derive_seed(spec.seed, cell_index, rep) for cell_index, _, _, rep in tasks]
    dgps = [_study_dgp(spec.p, spec.density, spec.rho_target, df, rep_seed)
            for (_, df, _, _), rep_seed in zip(tasks, rep_seeds)]
    paths = simulate_paths(dgps, n, spec.burn_in,
                           [derive_seed(rep_seed, 1, 0) for rep_seed in rep_seeds])
    return [_run_cell_rep(spec, fits[0], lams, task, rep_seed, dgp, data)
            for task, rep_seed, dgp, data in zip(tasks, rep_seeds, dgps, paths)]


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list[dict]:
    """Run the full grid x replication sweep; returns one row dict per
    (cell, tau, replication).

    ``workers`` defaults to the ROBUSTVAR_WORKERS environment variable (or 1);
    a count that is not an integer of at least 1 raises ValueError naming it.
    The (cell, replication) tasks of each n are cut into stacks (see
    ``_stacks``), each drawn and fitted in one go; the workers run the stacks,
    each worker a share of every n, and no more workers start than there are
    stacks.  Output is identical for any worker count: tasks are seeded
    independently and their rows put back in grid order.
    """
    name = "workers"
    if workers is None:
        name, workers = "ROBUSTVAR_WORKERS", os.environ.get("ROBUSTVAR_WORKERS", "1")
        with contextlib.suppress(ValueError):
            workers = int(workers)
    _check_int(name, workers, 1)
    # cell indices seed the replications, so this (df, n) order is fixed
    cells = enumerate(itertools.product(spec.df_grid, spec.n_grid))
    tasks = [(ci, df, n, rep) for ci, (df, n) in cells for rep in range(spec.replications)]
    stacks = [stack for n in dict.fromkeys(spec.n_grid)
              for stack in _stacks([task for task in tasks if task[2] == n],
                                   spec.burn_in + n, spec.p, workers)]
    run = functools.partial(_run_stack, spec)
    if (processes := min(workers, len(stacks))) == 1:
        done = list(map(run, stacks))
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            done = list(pool.map(run, stacks))
    rows = {task: task_rows for stack, stack_rows in zip(stacks, done)
            for task, task_rows in zip(stack, stack_rows)}
    return [row for task in tasks for row in rows[task]]


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
    lam: float | None = None,
) -> list[DiagnosticsReport]:
    """Replicated diagnostics on the study's sparse VAR-t generator.

    Each replication draws a fresh transition matrix and path, then runs the
    condition checks on the regression of the designated ``column`` with the
    lag-1 tuning value: ``lam`` exactly if given, else the theory value at ``c``.
    """
    _check_generator(p, (n,), replications, burn_in, density, rho_target)
    _check_int("seed", seed)
    _check_int("column", column, 0, p)
    _check_int("n_directions", n_directions, 1)
    mode, fixed = ("theory", 0.0) if lam is None else ("explicit", lam)
    fit = FitConfig(RobustConfig(tau=tau, b=b), lambda_mode=mode, lam=fixed, c=c)
    lam = fit.lambda_for(p, 1, n - 1)
    reports = []
    for stack in _stacks(list(range(replications)), burn_in + n, p):
        rep_seeds = [derive_seed(seed, rep) for rep in stack]
        dgps = [_study_dgp(p, density, rho_target, df, rep_seed) for rep_seed in rep_seeds]
        paths = simulate_paths(dgps, n, burn_in,
                               [derive_seed(rep_seed, 1) for rep_seed in rep_seeds])
        for rep_seed, dgp, data in zip(rep_seeds, dgps, paths):
            if isinstance(data, SimulationError):
                raise data
            reports.append(diagnostics_replication(
                data[:-1], data[1:, column], dgp.model.stacked()[:, column], fit.robust,
                fit.penalty, lam, seed=derive_seed(rep_seed, 2), n_directions=n_directions,
                include_re=include_re,
            ))
    return reports


def aggregate(rows: list[dict], x_field: str, series_field: str) -> dict:
    """Mean and standard error of ``error`` per (series value, x value).

    Rows with missing (NaN) errors are skipped.  Returns
    {(series, x): (mean, stderr, count)}.
    """
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        err = row["error"]
        if isinstance(err, float) and math.isnan(err):
            continue
        groups.setdefault((row[series_field], row[x_field]), []).append(err)
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        out[key] = (mean, stderr, len(arr))
    return out


def emit_csv(rows: list[dict], path) -> None:
    """Write result rows with the fixed 12-column schema, LF endings, UTF-8."""
    if not rows:
        raise ValueError("refusing to write an empty results table")
    write_table(path, CSV_FIELDS, CSV_KINDS, ([row[f] for f in CSV_FIELDS] for row in rows))


def read_results_csv(path) -> list[dict]:
    """Parse a results CSV back into typed row dicts (inverse of emit_csv)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != CSV_FIELDS:
            raise ValueError(f"unexpected header {header}")
        return [dict(zip(CSV_FIELDS, row)) for row in read_table(fh, CSV_FIELDS, CSV_KINDS)]


def spec_to_dict(spec: ExperimentSpec) -> dict:
    # every field is a scalar or a tuple of scalars, so no deep copy is needed
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}


def spec_from_dict(d: dict) -> ExperimentSpec:
    return ExperimentSpec(**d)


def write_provenance(path, record: dict) -> None:
    """Record everything needed to reproduce a run's output files.

    Writes ``record`` plus the RNG identifier as sorted, indent-2 JSON with
    LF line endings.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({**record, "rng": RNG_ID}, fh, indent=2, sort_keys=True)
        fh.write("\n")
