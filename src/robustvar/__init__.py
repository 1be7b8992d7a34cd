"""Robust sparse VAR estimation under heavy-tailed noise.

Core pieces: a Huber/Mallows-weighted regression loss, l1 and group
proximal operators, a proximal gradient solver, VAR companion/decomposition
machinery, heavy-tailed process simulators with stability gates, condition
diagnostics, and a replicated experiment harness with CSV/SVG output.
"""

from .losses import (
    Regression,
    RobustConfig,
    huber_derivative,
    huber_value,
    mallows_weight,
    mallows_weights,
    robust_gradient,
    robust_objective,
)
from .penalties import (
    Penalty,
    dual_value,
    group_soft_threshold,
    penalty_value,
    soft_threshold,
)
from .optimizer import (
    DivergenceError,
    FitResult,
    OptimizerConfig,
    gradient_lipschitz_bound,
    init_beta,
    proximal_gradient_fit,
)
from .var import (
    FitConfig,
    VarModel,
    companion_matrix,
    decompose_regressions,
    estimation_error,
    fit_var,
    read_var_model_csv,
    rescale_to_radius,
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
