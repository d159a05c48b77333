from importlib import import_module

import pytest

import fkdv

#: every public name of the package, by the submodule that defines it
PUBLIC = {
    "series": ["N_MAX_LIMIT", "RecurrenceError", "ResourceLimitError",
               "SechPolynomial", "SeriesTable", "build_series",
               "fourth_derivative", "load_table", "order_residual",
               "save_table", "second_derivative", "table_from_json",
               "table_to_json"],
    "evaluation": ["POLE_THRESHOLD", "EvalPoint", "PartialSum",
                   "PoleProximityError", "empirical_optimum",
                   "eval_coefficient", "optimal_N", "partial_sum",
                   "sech_squared", "singularity"],
    "late_terms": ["SingulantReport", "chi_squared_estimate",
                   "fit_divergence_exponent", "lambda_constant_sequence",
                   "lambda_sequence", "ratio_test", "richardson_extrapolate",
                   "richardson_table", "singulant_report"],
    "stokes": ["DEFAULT_LAMBDA", "QuadratureError", "StokesFrame",
               "StokesProfile", "erf_profile", "exp_tail", "frame_for",
               "integrate_multiplier", "multiplier_rhs", "one_sided_remainder",
               "smoothing_rhs", "stokes_jump", "tail_amplitude"],
    "bvp": ["ExponentFit", "FitQualityError", "GridSolution",
            "IllConditionedError", "NonConvergenceError", "ResolutionError",
            "SolverConfig", "TailMeasurement", "WindowContaminatedError",
            "check_window", "default_c", "fit_exponent", "initial_guess",
            "measure_tail", "predicted_amplitude", "solve", "sweep"],
}


def test_every_public_name_is_its_submodules_object():
    star = {}
    exec("from fkdv import *", star)
    listed = dir(fkdv)
    for module, names in PUBLIC.items():
        sub = import_module(f"fkdv.{module}")
        for name in names:
            obj = getattr(sub, name)
            assert getattr(fkdv, name) is obj, name
            assert name in listed, name
            assert star[name] is obj, name
    assert sorted(fkdv.__all__) == sorted(n for ns in PUBLIC.values() for n in ns)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fkdv.no_such_name
