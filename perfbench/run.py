"""robustvar benchmark runner.

    python3 perfbench/run.py --workload {study,fit,conditions} --seed N \
        --seconds S --trace {0,1}

Run from the root of a robustvar checkout; the package is imported from
``./src`` and nowhere else.  Set-up builds the workload's input pool from the
seed several times and reports the median.  With ``--trace 0`` the runner
serves requests from the pool for at least S seconds (closed loop, one client,
one process) and reports the end-to-end metrics, rescaled to a reference
machine speed (see reference.py).  With ``--trace 1`` it serves each input
traced and untraced, in whole passes until S seconds are used, and reports
per-layer metrics per task.  Every output is checked; the last stdout line is
one JSON object, and the exit code is 1 when a check failed.  A result file
with an environment record is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("study", "fit", "conditions")
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 100
MIN_TASKS = 40  # so that the fit tail is at least p75
LOOP_CAP_S = 140.0  # keeps a run of a much slower program under three minutes
MAX_FAILURE_MESSAGES = 20
# The end-to-end metrics gated by BENCHMARK.json: never zero on a healthy
# run.  failed_share and mean_error are printed and stored in the result file.
END_TO_END = ("tasks_per_s", "task_s_p50", "task_s_tail", "setup_s", "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def import_robustvar():
    """Import the package from ./src of the current checkout, or exit 2."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "robustvar", "__init__.py")):
        print(f"perfbench: no robustvar sources under {src}; run from a checkout root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import robustvar

    if not os.path.abspath(robustvar.__file__).startswith(src + os.sep):
        print(f"perfbench: robustvar imported from {robustvar.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return robustvar


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment(np, robustvar, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
        blas_config = blas.get("openblas configuration", "")
    except (TypeError, KeyError):
        blas_name, blas_config = "unknown", ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "robustvar": getattr(robustvar, "__version__", "unknown"),
        "blas": blas_name,
        "blas_config": blas_config,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def tail(samples):
    """(level, value, n): the highest percentile with ten samples beyond it,
    i.e. the eleventh largest sample, at level (n - 10) / n."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - 10, 1)
    return rank / n, xs[rank - 1], n


class Run:
    """Serves requests from a workload pool and keeps the timings and checks."""

    def __init__(self, wl):
        self.wl = wl
        self.samples: list[float] = []  # per-task seconds of untraced requests
        self.busy = 0.0
        self.plain_tasks = 0
        self.tasks = 0
        self.failed = 0
        self.messages: list[str] = []
        self.quality: dict[int, dict] = {}
        self.kkt: list[float] = []

    def request(self, k, tracer=None, ref=None):
        """Serve input ``k``; untraced requests are followed by reference
        loops worth about 2% of their time."""
        wl = self.wl
        weight = wl.tasks_per_request
        try:
            with tracer.task_span(k, weight) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = wl.run(k)
                dt = time.perf_counter() - t0
            if ref is not None:
                ref.measure(0.02 * dt)
            fails, q = wl.check(k, out)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            dt, fails, q = None, [f"{type(exc).__name__}: {exc}"], {}
        self.tasks += weight
        if dt is not None and tracer is None:
            self.plain_tasks += weight
            self.samples.append(dt / weight)
            self.busy += dt
        seen = self.quality.get(k)
        if q and seen is not None and seen["fingerprint"] != q["fingerprint"]:
            fails = fails + ["output differs from an earlier run of the same input"]
        if q and seen is None:
            self.quality[k] = q
        if "kkt_share" in q:
            self.kkt.append(q["kkt_share"])
        if fails:
            self.failed += weight
            for msg in fails:
                if len(self.messages) < MAX_FAILURE_MESSAGES:
                    self.messages.append(f"{wl.name}[{k}]: {msg}")
        return dt


def run_benchmark(args):
    robustvar = import_robustvar()
    import numpy as np
    import reference
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, workdir)
    try:
        # set up at least SETUP_REPEATS times and for at least a second, so
        # that a set-up of a few milliseconds still gets a steady median
        setup_ref = reference.Reference()
        setup_times = []
        t_setup = time.perf_counter()
        while len(setup_times) < SETUP_REPEATS or (
            time.perf_counter() - t_setup < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
        ):
            t0 = time.perf_counter()
            wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
            setup_ref.measure(0.02 * setup_times[-1])
        ref = reference.Reference()

        run = Run(wl)
        pool = len(wl.pool)
        t_start = time.perf_counter()
        i = 0
        extra = {}
        if args.trace == 0:
            while True:
                elapsed = time.perf_counter() - t_start
                if (elapsed >= args.seconds and run.tasks >= MIN_TASKS) or elapsed >= LOOP_CAP_S:
                    break
                run.request(i % pool, ref=ref)
                i += 1
        else:
            # each traced request is paired with an untraced one of the same
            # input, in alternating order, so drifts in machine speed cancel
            tracer = tracing.Tracer()
            plain_s = 0.0
            passes = 0
            while True:
                pass_start = time.perf_counter()
                for k in range(pool):
                    for traced in ((False, True) if (passes + k) % 2 == 0 else (True, False)):
                        if not traced:
                            plain_s += run.request(k, ref=ref) or 0.0
                            continue
                        tracer.install()
                        try:
                            run.request(k, tracer)
                        finally:
                            tracer.uninstall()
                passes += 1
                now = time.perf_counter()
                # whole passes only, so that per-task counts repeat exactly
                if now - t_start + (now - pass_start) > max(args.seconds, 1.0) or now - t_start >= LOOP_CAP_S / 2:
                    break
            ref_per_task = plain_s / max(tracer.tasks, 1)
            spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv.gz")
            tracer.write(spans_path)
            extra = {
                "spans_file": os.path.relpath(spans_path),
                "spans": len(tracer.start),
                "traced_tasks": tracer.tasks,
                "untraced_reference_s_per_task": ref_per_task,
                "trace_points_missing": tracer.missing,
            }
        wall_s = time.perf_counter() - t_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    level, tail_value, n = tail(run.samples) if run.samples else (0.5, math.nan, 0)
    errors = [e for q in run.quality.values() for e in q.get("errors", [])]
    lambdas = sorted({lam for q in run.quality.values() for lam in q.get("lambdas", [])})
    raw = {
        "setup_s": statistics.median(setup_times),
        "tasks_per_s": run.plain_tasks / run.busy if run.busy > 0 else 0.0,
        "task_s_p50": statistics.median(run.samples) if run.samples else math.nan,
        "task_s_tail": tail_value,
    }
    # times rescaled to the nominal machine speed (see reference.py)
    f_setup, f_run = setup_ref.factor(), ref.factor() if ref.times else math.nan
    summary = {
        "setup_s": (raw["setup_s"] * f_setup, "s"),
        "tasks_per_s": (raw["tasks_per_s"] / f_run, "1/s"),
        "task_s_p50": (raw["task_s_p50"] * f_run, "s"),
        "task_s_tail": (raw["task_s_tail"] * f_run, "s"),
        "failed_share": (run.failed / max(run.tasks, 1), "ratio"),
        "mean_error": (statistics.fmean(errors) if errors else math.nan, "norm"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layers = tracing.layer_metrics(tracer, ref_per_task) if args.trace else {}
    detail = {
        "requests": len(run.samples),
        "tasks_per_request": wl.tasks_per_request,
        "pool_size": pool,
        "distinct_inputs_checked": len(run.quality),
        "tail_level": level,
        "tail_samples": n,
        "wall_s": wall_s,
        "raw_seconds": raw,
        "raw_task_s": run.samples,
        "setup_times_s": setup_times,
        "reference_median_s": {
            "setup": statistics.median(setup_ref.times),
            "run": statistics.median(ref.times) if ref.times else math.nan,
            "loops": len(ref.times),
        },
        "reference_nominal_s": reference.NOMINAL_S,
        "failures": run.messages,
    }
    if run.kkt:
        detail["kkt_share_max"] = max(run.kkt)
    if wl.name == "conditions" and run.quality:
        detail["deviation_pass_share"] = statistics.fmean(
            ok for q in run.quality.values() for ok in q["deviation_pass"]
        )
    detail.update(extra)
    env = environment(np, robustvar, args.seed)
    env["lambdas"] = lambdas

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "detail": detail,
    }
    result_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={run.tasks} requests={len(run.samples)} wall_s={wall_s:.2f}")
    for key, (value, unit) in summary.items():
        note = ""
        if key == "task_s_tail":
            note = f"  (p{100 * level:.4g}, n={n} requests)"
        elif key == "failed_share":
            note = f"  ({run.failed}/{run.tasks} tasks)"
        elif key == "mean_error":
            note = f"  ({len(errors)} estimates)" if errors else "  (no estimates in this workload)"
        print(f"  {key:<14} {value:.6g} {unit}{note}")
    for key, (value, unit) in layers.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    for msg in run.messages:
        print(f"  FAILED {msg}")
    print(f"  result file: {os.path.relpath(result_path)}")

    metrics = layers if args.trace else {k: summary[k] for k in END_TO_END}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.tasks, 1),
        "failed": run.failed if run.tasks else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 and run.tasks else 1


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
