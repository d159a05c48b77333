import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

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
                   "fit_divergence_exponent", "ratio_test",
                   "richardson_extrapolate", "singulant_report"],
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


def _fresh_interpreter(script: str) -> None:
    src = Path(fkdv.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule():
    _fresh_interpreter("""
import sys
import fkdv
loaded = sorted(m for m in sys.modules if m.startswith("fkdv."))
assert not loaded, loaded
""")


def test_first_series_name_loads_only_its_module():
    # neither numpy nor the array layers come with the series end
    _fresh_interpreter("""
import sys
import fkdv
fkdv.build_series
loaded = sorted(m for m in sys.modules if m.startswith(("fkdv.", "numpy")))
assert loaded == ["fkdv.series"], loaded
""")


@pytest.mark.parametrize("module", PUBLIC)
def test_submodule_resolves_as_an_attribute(module):
    # in a fresh interpreter, so the first access goes through __getattr__
    _fresh_interpreter(f"""
import sys
import fkdv
sub = fkdv.{module}
assert sub is sys.modules["fkdv.{module}"], sub
""")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fkdv.no_such_name


def test_every_exception_class_states_its_exit_code():
    # the CLI catches only ValueError (exit 2) and ArithmeticError (exit 1),
    # so every exception class of the package subclasses exactly one of them
    classes = []
    for module in [*PUBLIC, "cli"]:
        sub = import_module(f"fkdv.{module}")
        classes += [obj for obj in vars(sub).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == sub.__name__]
    assert {cls.__name__ for cls in classes} >= {
        name for names in PUBLIC.values() for name in names
        if name.endswith("Error")}
    for cls in classes:
        assert issubclass(cls, ValueError) != issubclass(cls, ArithmeticError), cls


def test_pyproject_lists_no_scipy_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(fkdv.__file__).resolve().parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    requirements = [*project["dependencies"],
                    *(r for rs in project["optional-dependencies"].values() for r in rs)]
    assert not [r for r in requirements if r.lower().startswith("scipy")]
