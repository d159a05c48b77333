"""Desk-scale exponential asymptotics for the fifth-order KdV equation.

Pipeline: exact divergent series (`series`), complex evaluation and optimal
truncation (`evaluation`), late-term analysis and the prefactor constant
(`late_terms`), Stokes-line smoothing and the exponentially small tail
(`stokes`), and a direct nonlinear BVP cross-check (`bvp`). The `cli` module
ties them into reproducible experiments.
"""

__version__ = "0.1.0"

from .series import (
    N_MAX_LIMIT,
    RecurrenceError,
    ResourceLimitError,
    SechPolynomial,
    SeriesTable,
    build_series,
    fourth_derivative,
    load_table,
    order_residual,
    save_table,
    second_derivative,
    table_from_json,
    table_to_json,
)
from .evaluation import (
    POLE_THRESHOLD,
    EvalPoint,
    PartialSum,
    PoleProximityError,
    empirical_optimum,
    eval_coefficient,
    optimal_N,
    partial_sum,
    sech_squared,
    singularity,
)
from .late_terms import (
    SingulantReport,
    chi_squared_estimate,
    fit_divergence_exponent,
    lambda_constant_sequence,
    lambda_sequence,
    ratio_test,
    richardson_extrapolate,
    richardson_table,
    singulant_report,
)
from .stokes import (
    DEFAULT_LAMBDA,
    QuadratureError,
    StokesFrame,
    StokesProfile,
    erf_profile,
    exp_tail,
    frame_for,
    integrate_multiplier,
    multiplier_rhs,
    one_sided_remainder,
    smoothing_rhs,
    stokes_jump,
    tail_amplitude,
)
from .bvp import (
    ExponentFit,
    FitQualityError,
    GridSolution,
    IllConditionedError,
    NonConvergenceError,
    ResolutionError,
    SolverConfig,
    TailMeasurement,
    WindowContaminatedError,
    check_window,
    default_c,
    fit_exponent,
    initial_guess,
    measure_tail,
    predicted_amplitude,
    solve,
    sweep,
)
