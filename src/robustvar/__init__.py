"""Robust sparse VAR estimation under heavy-tailed noise.

Core pieces: a Huber/Mallows-weighted regression loss, l1 and group
proximal operators, a proximal gradient solver, VAR companion/decomposition
machinery, heavy-tailed process simulators with stability gates, condition
diagnostics, and a replicated experiment harness with CSV/SVG output.
"""

from .losses import (
    Regression,
    RobustConfig,
    mallows_weights,
    robust_gradient,
)
from .penalties import Penalty, dual_value
from .optimizer import DivergenceError, FitResult, OptimizerConfig
from .var import (
    FitConfig,
    VarModel,
    companion_matrix,
    estimation_error,
    fit_var,
    read_var_model_csv,
    spectral_radius,
    theory_lambda,
    write_var_model_csv,
)
from .simulate import (
    ArchVarDgp,
    BekkVarDgp,
    GaussianNoise,
    IntervalPartition,
    RcVarDgp,
    ScaleMixtureNoise,
    SignPartition,
    SimulationError,
    StabilityError,
    StudentTNoise,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarTDgp,
    gen_er_transition,
    indicator_map,
    read_series_csv,
    sample_noise,
    simulate,
    simulate_paths,
    write_series_csv,
)
from .diagnostics import DiagnosticsReport, deviation_check, re_check
from .experiments import (
    CALIBRATED_C,
    ExperimentSpec,
    aggregate,
    case1_medium,
    case1_medium_heavy,
    case1_small,
    case1_small_heavy,
    case2,
    case3,
    emit_csv,
    read_results_csv,
    run_experiment,
)
from .svgplot import emit_svg_lines
from .cli import cli_main

__version__ = "0.1.0"
