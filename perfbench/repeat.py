"""Repeat benchmark runs and summarise them.

    python3 perfbench/repeat.py spread --workload fit --seeds 1 2 3 [--seconds 30]
    python3 perfbench/repeat.py counts --workload fit --seed 7 [--seconds 30]

``spread`` runs the untraced benchmark once per seed and prints, for every
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the inter-quartile distance as a share of the median next to the
metric's bound from BENCHMARK.json.  ``counts`` makes two traced runs on one
seed and checks that every count and ratio the program produces (calls,
iterations, steps, all-zero share) is identical between them.  Run from the
checkout root; each run is a child process that is waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

# per-layer metrics that must repeat exactly on a fixed seed
COUNTS = (
    "simulate.calls", "simulate.steps", "simulate.retries",
    "var.fit_var.calls", "var.fit_var.zero_share",
    "var.decompose_regressions.calls",
    "optimizer.calls", "optimizer.iterations", "optimizer.nonconverged", "optimizer.flops_computed",
    "losses.robust_objective.calls", "penalties.prox.calls",
)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def spread(args):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, args.seconds, 0)
        runs.append(res["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    worst = 0.0
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        bound = bounds.get(name)
        if name != "setup_s" and bound:
            worst = max(worst, share / bound)
        print(f"{args.workload:<11} {name:<12} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={share:.4f} bound={bound}")
    print(f"{args.workload}: largest spread/bound (setup_s excluded) = {worst:.3f}")


def counts(args):
    first = run_once(args.workload, args.seed, args.seconds, 1)["metrics"]
    second = run_once(args.workload, args.seed, args.seconds, 1)["metrics"]
    same = True
    for name in COUNTS:
        a, b = first[name]["value"], second[name]["value"]
        same &= a == b
        print(f"{args.workload:<11} {name:<34} {a!r:>22} {b!r:>22} {'same' if a == b else 'DIFFERENT'}")
    return 0 if same else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=int, nargs="+", required=True)
    sp.add_argument("--seconds", type=float, default=30)
    cp = sub.add_parser("counts")
    cp.add_argument("--workload", required=True)
    cp.add_argument("--seed", type=int, required=True)
    cp.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    if args.mode == "spread":
        spread(args)
        return 0
    return counts(args)


if __name__ == "__main__":
    sys.exit(main())
