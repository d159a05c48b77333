"""Desk-scale exponential asymptotics for the fifth-order KdV equation.

Pipeline: exact divergent series (`series`), complex evaluation and optimal
truncation (`evaluation`), late-term analysis and the prefactor constant
(`late_terms`), Stokes-line smoothing and the exponentially small tail
(`stokes`), and a direct nonlinear BVP cross-check (`bvp`). The `cli` module
ties them into reproducible experiments.

`import fkdv` loads no submodule: each public name, and each of the five
submodules, is imported on first access. The series end (`series`,
`evaluation`, `late_terms`) is integer and `Fraction` code and never loads
numpy; numpy, the only third-party dependency, comes with the two array
layers, `stokes` and `bvp`.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines; __all__, __getattr__ and
#: __dir__ all read this one table
_NAMES = {
    "series": (
        "N_MAX_LIMIT", "RecurrenceError", "ResourceLimitError", "SechPolynomial",
        "SeriesTable", "build_series", "load_table", "order_residual",
        "save_table", "second_derivative", "table_from_json", "table_to_json"),
    "evaluation": (
        "POLE_THRESHOLD", "EvalPoint", "PartialSum", "PoleProximityError",
        "empirical_optimum", "optimal_N", "partial_sum", "sech_squared",
        "singularity"),
    "late_terms": (
        "SingulantReport", "chi_squared_estimate", "fit_divergence_exponent",
        "ratio_test", "singulant_report"),
    "stokes": (
        "DEFAULT_LAMBDA", "QuadratureError", "StokesFrame", "StokesProfile",
        "erf_profile", "frame_for", "integrate_multiplier", "multiplier_rhs",
        "smoothing_rhs", "stokes_jump", "tail_amplitude"),
    "bvp": (
        "ExponentFit", "FitQualityError", "GridSolution", "IllConditionedError",
        "NonConvergenceError", "ResolutionError", "SolverConfig",
        "TailMeasurement", "WindowContaminatedError", "check_window",
        "default_c", "fit_exponent", "initial_guess", "measure_tail",
        "predicted_amplitude", "solve", "sweep"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # reads the module's attribute on every access, so a name never goes stale
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_NAMES, *_HOME})
