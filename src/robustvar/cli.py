"""Command-line interface: simulate, fit, experiment, diagnose, check-stability.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every run that
writes output files also writes a ``.provenance.json`` next to them with the
resolved parameters, the seed of the commands that draw (``fit`` draws
nothing), and the RNG identifier.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from ._seeds import derive_seed
from .diagnostics import write_reports_csv
from .experiments import (
    CALIBRATED_C,
    emit_csv,
    run_deviation_experiment,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
    write_provenance,
)
from .losses import RobustConfig
from .optimizer import OptimizerConfig
from .penalties import Penalty
from .simulate import (
    ArchVarDgp,
    BekkVarDgp,
    GaussianNoise,
    IntervalPartition,
    RcVarDgp,
    ScaleMixtureNoise,
    SignPartition,
    StudentTNoise,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarTDgp,
    gen_er_transition,
    simulate,
    write_series_csv,
    read_series_csv,
)
from .svgplot import emit_svg_lines
from .var import (
    FitConfig,
    VarModel,
    companion_matrix,
    fit_var,
    read_var_model_csv,
    spectral_radius,
    write_var_model_csv,
)

__all__ = ["build_parser", "cli_main", "dgp_from_dict", "main"]


_NOISES = {
    "student_t": StudentTNoise,
    "gaussian": GaussianNoise,
    "scale_mixture": ScaleMixtureNoise,
}
_PARTITIONS = {"sign": SignPartition, "interval": IntervalPartition}


def _var_t(coeffs, **kwargs):
    return VarTDgp(model=VarModel(coeffs), **kwargs)


_PROCESSES = {
    "var_t": _var_t,
    "arch_var": ArchVarDgp,
    "univariate_arch": UnivariateArchDgp,
    "bekk_var": BekkVarDgp,
    "threshold_var": ThresholdVarDgp,
    "rc_var": RcVarDgp,
}


def _from_table(table: dict, what: str, doc: dict):
    kwargs = dict(doc)
    kind = kwargs.pop("kind", None)
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return table[kind](**kwargs)


def dgp_from_dict(d: dict):
    """Build a process spec from a JSON-compatible dict (see README for schemas).

    ``kind`` picks the class and the other keys are its fields, passed by
    name; nested ``noise`` and ``partition`` dicts are read the same way, and
    ``var_t`` takes ``coeffs`` (the lag matrices) in place of ``model``.  An
    unknown kind raises ``ValueError`` and an unknown key ``TypeError``.
    """
    kwargs = dict(d)
    if "noise" in kwargs:
        kwargs["noise"] = _from_table(_NOISES, "noise", kwargs["noise"])
    if "partition" in kwargs:
        kwargs["partition"] = _from_table(_PARTITIONS, "partition", kwargs["partition"])
    return _from_table(_PROCESSES, "process", kwargs)


def _cmd_simulate(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec_doc = json.load(fh)
    else:
        if args.model:
            model = read_var_model_csv(args.model)
        else:
            b = gen_er_transition(args.p, args.density, args.rho, derive_seed(args.seed, 0))
            model = VarModel((b,))
        spec_doc = {
            "kind": "var_t",
            "coeffs": [c.tolist() for c in model.coeffs],
            "noise": {"kind": "student_t", "df": args.df},
        }
    data = simulate(dgp_from_dict(spec_doc), args.n, args.burn_in, derive_seed(args.seed, 1))
    write_series_csv(data, args.out)
    write_provenance(
        args.out + ".provenance.json",
        {"tool": "robustvar simulate", "dgp": spec_doc, "n": args.n,
         "burn_in": args.burn_in, "seed": args.seed, "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({data.shape[0]} rows, {data.shape[1]} columns)")
    return 0


def _cmd_fit(args) -> int:
    data = read_series_csv(args.input)
    fit = FitConfig(
        robust=RobustConfig(tau=args.tau, b=args.b, weight_form=args.weight_form),
        penalty=Penalty("l1"),
        lambda_mode=args.lambda_mode,
        lam=args.lam,
        c=args.c,
        opt=OptimizerConfig(step=args.step, tol=args.tol, max_iter=args.max_iter),
    )
    est, results = fit_var(data, args.lag, fit)
    write_var_model_csv(est, args.out)
    lam = fit.lambda_for(est.p, args.lag, data.shape[0] - args.lag)
    write_provenance(
        args.out + ".provenance.json",
        {"tool": "robustvar fit", "input": args.input, "lag": args.lag,
         "tau": args.tau, "b": args.b, "weight_form": args.weight_form,
         "lambda_mode": args.lambda_mode, "lambda": lam, "c": args.c,
         "step": args.step, "step_used": results[0].step, "tol": args.tol,
         "max_iter": args.max_iter, "outputs": [args.out]},
    )
    converged = sum(r.converged for r in results)
    print(
        f"wrote {args.out}: p={est.p} d={est.d} lambda={lam:.6g} "
        f"columns_converged={converged}/{est.p}"
    )
    return 0


def _cmd_experiment(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh))
    rows = run_experiment(spec, workers=args.workers)
    os.makedirs(spec.output_dir, exist_ok=True)
    base = os.path.join(spec.output_dir, spec.case)
    csv_path, svg_path = base + ".csv", base + ".svg"
    emit_csv(rows, csv_path)
    x_field = "df" if spec.case == "case1_df_sweep" else "n"
    emit_svg_lines(rows, x_field, "tau", svg_path)
    write_provenance(
        base + ".provenance.json",
        {"tool": "robustvar", "spec": spec_to_dict(spec), "seed": spec.seed,
         "outputs": [csv_path, svg_path]},
    )
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_diagnose(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    # the spec's keys are run_deviation_experiment's parameters, with "lambda" for lam
    kwargs = {"p": 10, "n": 30, "df": 3.0, "tau": 1.0, "b": 3.0, "replications": 200,
              "seed": 0, "include_re": True, **doc}
    lam = kwargs.pop("lambda", None)
    if kwargs.get("c") is None:
        kwargs["c"] = CALIBRATED_C
    reports = run_deviation_experiment(**kwargs, lam=lam)
    write_reports_csv(reports, args.out)
    write_provenance(
        args.out + ".provenance.json",
        {"tool": "robustvar diagnose", "spec": doc, "seed": kwargs["seed"], "outputs": [args.out]},
    )
    rate = sum(r.deviation_pass for r in reports) / len(reports)
    print(f"wrote {args.out}: deviation pass rate {rate:.3f} over {len(reports)} replications")
    return 0


def _cmd_check_stability(args) -> int:
    model = read_var_model_csv(args.model)
    radius = spectral_radius(companion_matrix(model))
    stable = radius < 1.0
    print(f"p={model.p} d={model.d} spectral_radius={radius:.10g} stable={str(stable).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustvar",
        description="Robust sparse VAR estimation under heavy-tailed noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a heavy-tailed VAR path as CSV")
    ps.add_argument("--spec", help="JSON process spec (overrides the quick flags)")
    ps.add_argument("--model", help="varmodel CSV to simulate from")
    ps.add_argument("--p", type=int, default=10)
    ps.add_argument("--df", type=float, default=3.0)
    ps.add_argument("--density", type=float, default=0.05)
    ps.add_argument("--rho", type=float, default=0.5)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--burn-in", type=int, default=500, dest="burn_in")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_simulate)

    pf = sub.add_parser("fit", help="estimate a transition matrix from a series CSV")
    pf.add_argument("--input", required=True)
    pf.add_argument("--lag", type=int, default=1)
    pf.add_argument("--tau", type=float, required=True)
    pf.add_argument("--b", type=float, default=3.0)
    pf.add_argument("--weight-form", default="linear", choices=["linear", "quadratic"],
                    dest="weight_form")
    pf.add_argument("--lambda-mode", default="theory", choices=["theory", "explicit"],
                    dest="lambda_mode", help="theory: lambda from --c; explicit: --lambda")
    pf.add_argument("--c", type=float, default=1.0, help="theory-mode constant in the rate form "
                    f"(experiment and diagnose default to CALIBRATED_C = {CALIBRATED_C})")
    pf.add_argument("--lambda", type=float, default=0.0, dest="lam", help="explicit-mode lambda")
    pf.add_argument("--step", type=float, default=None,
                    help="fixed proximal-gradient step; by default 1/L, the inverse of the "
                         "design's gradient Lipschitz bound")
    pf.add_argument("--tol", type=float, default=1e-4)
    pf.add_argument("--max-iter", type=int, default=10000, dest="max_iter")
    pf.add_argument("--out", default="bhat.csv")
    pf.set_defaults(func=_cmd_fit)

    pe = sub.add_parser("experiment", help="run a replicated sweep from a JSON spec")
    pe.add_argument("--spec", required=True)
    pe.add_argument("--workers", type=int, default=None)
    pe.set_defaults(func=_cmd_experiment)

    pd = sub.add_parser("diagnose", help="deviation/curvature diagnostics from a JSON spec")
    pd.add_argument("--spec", required=True)
    pd.add_argument("--out", default="diagnostics.csv")
    pd.set_defaults(func=_cmd_diagnose)

    pc = sub.add_parser("check-stability", help="report the companion spectral radius")
    pc.add_argument("--model", required=True)
    pc.set_defaults(func=_cmd_check_stability)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`cli_main` reuses: it is built once per process."""
    return build_parser()


def cli_main(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
