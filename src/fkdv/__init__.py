"""Desk-scale exponential asymptotics for the fifth-order KdV equation.

Pipeline: exact divergent series (`series`), complex evaluation and optimal
truncation (`evaluation`), late-term analysis and the prefactor constant
(`late_terms`), Stokes-line smoothing and the exponentially small tail
(`stokes`), and a direct nonlinear BVP cross-check (`bvp`). The `cli` module
ties them into reproducible experiments.

The series end (`series`, `evaluation`, `late_terms`) is integer and
`Fraction` code and is imported with the package. The two array layers,
`stokes` and `bvp`, are imported on first access to one of their names, so
`import fkdv` and the series end never load numpy; `bvp.solve` loads scipy.
"""

from importlib import import_module

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

#: public name -> the array layer that defines it, imported by `__getattr__`
_LAZY = {
    **dict.fromkeys((
        "DEFAULT_LAMBDA", "QuadratureError", "StokesFrame", "StokesProfile",
        "erf_profile", "exp_tail", "frame_for", "integrate_multiplier",
        "multiplier_rhs", "one_sided_remainder", "smoothing_rhs",
        "stokes_jump", "tail_amplitude"), "stokes"),
    **dict.fromkeys((
        "ExponentFit", "FitQualityError", "GridSolution", "IllConditionedError",
        "NonConvergenceError", "ResolutionError", "SolverConfig",
        "TailMeasurement", "WindowContaminatedError", "check_window",
        "default_c", "fit_exponent", "initial_guess", "measure_tail",
        "predicted_amplitude", "solve", "sweep"), "bvp"),
}

__all__ = [
    # series
    "N_MAX_LIMIT", "RecurrenceError", "ResourceLimitError", "SechPolynomial",
    "SeriesTable", "build_series", "fourth_derivative", "load_table",
    "order_residual", "save_table", "second_derivative", "table_from_json",
    "table_to_json",
    # evaluation
    "POLE_THRESHOLD", "EvalPoint", "PartialSum", "PoleProximityError",
    "empirical_optimum", "eval_coefficient", "optimal_N", "partial_sum",
    "sech_squared", "singularity",
    # late_terms
    "SingulantReport", "chi_squared_estimate", "fit_divergence_exponent",
    "lambda_constant_sequence", "lambda_sequence", "ratio_test",
    "richardson_extrapolate", "richardson_table", "singulant_report",
    # stokes and bvp
    *_LAZY,
]


def __getattr__(name):
    # reads the module's attribute on every access, so a name never goes stale
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
