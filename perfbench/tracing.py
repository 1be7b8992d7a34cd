"""Span tracing around robustvar's public functions, from outside the package.

A traced pass replaces each public function at the module attribute where its
callers look it up (``robustvar.optimizer.prox``, ``robustvar.experiments.simulate``,
...) with a wrapper that records a span: name, start, end, parent span and
task.  Spans live in flat in-memory arrays and are written out once, when the
run ends.  Counters read from call arguments and results (simulation steps,
solver iterations, all-zero fits) are kept next to the spans, so ratios are
measured where the work happens.  Nothing is wrapped outside a traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _observe_simulate(tracer, args, kwargs, out, exc):
    if exc is not None:
        if type(exc).__name__ == "SimulationError":
            tracer.counts["simulate.retries"] += 1
        return
    tracer.counts["simulate.steps"] += _arg(args, kwargs, 1, "n") + _arg(args, kwargs, 2, "burn_in")


def _observe_solver(tracer, args, kwargs, out, exc):
    if exc is not None:
        return
    reg = _arg(args, kwargs, 0, "reg")
    tracer.counts["optimizer.iterations"] += out.iterations
    tracer.counts["optimizer.nonconverged"] += 0 if out.converged else 1
    # one residual matvec (2nq) and one transposed gradient product (2nq)
    tracer.counts["optimizer.flops_computed"] += 4 * reg.n * reg.q * out.iterations


def _observe_fit_var(tracer, args, kwargs, out, exc):
    if exc is not None:
        return
    tracer.counts["var.fit_var.fits"] += 1
    if not np.any(out[0].stacked()):
        tracer.counts["var.fit_var.zero_fits"] += 1


# (module, attribute looked up by callers, span name, observer)
TRACE_POINTS = [
    ("robustvar.cli", "cli_main", "cli.cli_main", None),
    ("robustvar.cli", "run_experiment", "experiments.run_experiment", None),
    ("robustvar.cli", "emit_csv", "cli.emit_csv", None),
    ("robustvar.cli", "emit_svg_lines", "svgplot.emit_svg_lines", None),
    ("robustvar.cli", "write_provenance", "cli.write_provenance", None),
    ("robustvar.experiments", "simulate", "simulate", _observe_simulate),
    ("robustvar.simulate", "simulate", "simulate", _observe_simulate),
    ("robustvar.experiments", "fit_var", "var.fit_var", _observe_fit_var),
    ("robustvar.var", "fit_var", "var.fit_var", _observe_fit_var),
    ("robustvar.experiments", "decompose_regressions", "var.decompose_regressions", None),
    ("robustvar.var", "decompose_regressions", "var.decompose_regressions", None),
    ("robustvar.experiments", "estimation_error", "var.estimation_error", None),
    ("robustvar.experiments", "gradient_lipschitz_bound", "optimizer.lipschitz", None),
    ("robustvar.optimizer", "gradient_lipschitz_bound", "optimizer.lipschitz", None),
    ("robustvar.var", "proximal_gradient_fit", "optimizer", _observe_solver),
    ("robustvar.optimizer", "prox", "penalties.prox", None),
    ("robustvar.optimizer", "mallows_weights", "losses.mallows_weights", None),
    ("robustvar.optimizer", "robust_objective", "losses.robust_objective", None),
    ("robustvar.losses", "mallows_weights", "losses.mallows_weights", None),
    ("robustvar.diagnostics", "mallows_weights", "losses.mallows_weights", None),
    ("robustvar.diagnostics", "robust_gradient", "losses.robust_gradient", None),
    ("robustvar.diagnostics", "robust_objective", "losses.robust_objective", None),
    ("robustvar.diagnostics", "deviation_check", "diagnostics.deviation_check", None),
    ("robustvar.diagnostics", "re_check", "diagnostics.re_check", None),
]


class Tracer:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.task = array("q")
        self.counts: Counter = Counter()
        self.task_id = -1
        self.tasks = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.finish(sid)
                if observe is not None:
                    observe(self, args, kwargs, None, exc)
                raise
            self.finish(sid)
            if observe is not None:
                observe(self, args, kwargs, out, None)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every trace point that exists; record the ones that do not."""
        for module_name, attr, name, observe in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, observe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def task_span(self, task_id: int, weight: int):
        """Span for one benchmark request covering ``weight`` tasks."""
        self.task_id = task_id
        sid = self.begin("task")
        try:
            yield
        finally:
            self.finish(sid)
            self.tasks += weight

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV (times in ns)."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_ns,end_ns,parent,task\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.names[self.name[sid]]},{self.start[sid]},"
                    f"{self.end[sid]},{self.parent[sid]},{self.task[sid]}\n"
                )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds (busy minus the
        part covered by direct child spans)."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {
            nm: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, nm in enumerate(self.names)
        }


def layer_metrics(tracer: Tracer, untraced_s_per_task: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per task so that passes of different
    length compare; returns {name: (value, unit)}."""
    tot = tracer.layer_totals()
    tasks = max(tracer.tasks, 1)
    c = tracer.counts

    def get(name, field):
        return tot.get(name, {}).get(field, 0)

    def per_task(x):
        return x / tasks

    wall = get("task", "busy_s") / tasks
    steps = c["simulate.steps"]
    iters = c["optimizer.iterations"]
    fits = c["var.fit_var.fits"]
    out = {
        "task.wall_s": (wall, "s/task"),
        "trace_overhead_share": (wall / untraced_s_per_task - 1.0 if untraced_s_per_task > 0 else 0.0, "ratio"),
        "simulate.calls": (per_task(get("simulate", "calls")), "count/task"),
        "simulate.busy_s": (per_task(get("simulate", "busy_s")), "s/task"),
        "simulate.steps": (per_task(steps), "count/task"),
        "simulate.us_per_step": (get("simulate", "busy_s") / steps * 1e6 if steps else 0.0, "us"),
        "simulate.retries": (per_task(c["simulate.retries"]), "count/task"),
        "var.fit_var.calls": (per_task(get("var.fit_var", "calls")), "count/task"),
        "var.fit_var.self_s": (per_task(get("var.fit_var", "self_s")), "s/task"),
        "var.fit_var.zero_share": (c["var.fit_var.zero_fits"] / fits if fits else 0.0, "ratio"),
        "var.decompose_regressions.calls": (per_task(get("var.decompose_regressions", "calls")), "count/task"),
        "var.decompose_regressions.busy_s": (per_task(get("var.decompose_regressions", "busy_s")), "s/task"),
        "optimizer.calls": (per_task(get("optimizer", "calls")), "count/task"),
        "optimizer.busy_s": (per_task(get("optimizer", "busy_s")), "s/task"),
        "optimizer.iterations": (per_task(iters), "count/task"),
        "optimizer.us_per_iter": (get("optimizer", "busy_s") / iters * 1e6 if iters else 0.0, "us"),
        "optimizer.nonconverged": (per_task(c["optimizer.nonconverged"]), "count/task"),
        "optimizer.flops_computed": (per_task(c["optimizer.flops_computed"]), "flop/task"),
        "optimizer.lipschitz.busy_s": (per_task(get("optimizer.lipschitz", "busy_s")), "s/task"),
        "losses.mallows_weights.busy_s": (per_task(get("losses.mallows_weights", "busy_s")), "s/task"),
        "losses.robust_gradient.busy_s": (per_task(get("losses.robust_gradient", "busy_s")), "s/task"),
        "losses.robust_objective.calls": (per_task(get("losses.robust_objective", "calls")), "count/task"),
        "losses.robust_objective.busy_s": (per_task(get("losses.robust_objective", "busy_s")), "s/task"),
        "penalties.prox.calls": (per_task(get("penalties.prox", "calls")), "count/task"),
        "penalties.prox.busy_s": (per_task(get("penalties.prox", "busy_s")), "s/task"),
        "diagnostics.deviation_check.busy_s": (per_task(get("diagnostics.deviation_check", "busy_s")), "s/task"),
        "diagnostics.re_check.busy_s": (per_task(get("diagnostics.re_check", "busy_s")), "s/task"),
        "experiments.run_experiment.self_s": (per_task(get("experiments.run_experiment", "self_s")), "s/task"),
        "cli.cli_main.self_s": (per_task(get("cli.cli_main", "self_s")), "s/task"),
        "cli.emit_csv.busy_s": (per_task(get("cli.emit_csv", "busy_s")), "s/task"),
        "svgplot.emit_svg_lines.busy_s": (per_task(get("svgplot.emit_svg_lines", "busy_s")), "s/task"),
        "cli.write_provenance.busy_s": (per_task(get("cli.write_provenance", "busy_s")), "s/task"),
    }
    return out
