import ast
import os
import subprocess
import sys
from dataclasses import fields
from functools import cached_property
from importlib import import_module
from pathlib import Path
from types import FunctionType

import pytest

import fkdv

#: every public name of the package, by the submodule that defines it
PUBLIC = {
    "series": ["N_MAX_LIMIT", "RecurrenceError", "ResourceLimitError",
               "SechPolynomial", "SeriesTable", "build_series", "load_table",
               "order_residual", "save_table", "second_derivative",
               "table_from_json", "table_to_json"],
    "evaluation": ["POLE_THRESHOLD", "EvalPoint", "PartialSum",
                   "PoleProximityError", "empirical_optimum", "optimal_N",
                   "partial_sum", "sech_squared", "singularity"],
    "late_terms": ["SingulantReport", "chi_squared_estimate",
                   "fit_divergence_exponent", "ratio_test",
                   "singulant_report"],
    "stokes": ["DEFAULT_LAMBDA", "QuadratureError", "StokesFrame",
               "StokesProfile", "erf_profile", "frame_for",
               "integrate_multiplier", "multiplier_rhs", "smoothing_rhs",
               "stokes_jump", "tail_amplitude"],
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


#: public names with no caller in the chain, kept as checks of it:
#: order_residual, the exactness check of a built table; table_to_json, the
#: tests' byte reference for save_table's text; second_derivative, which checks
#: the closed-basis derivative, and twice over the fourth, by finite differences
UNCALLED = {"order_residual", "table_to_json", "second_derivative"}


def _chain_trees():
    """The parsed package modules, acceptance criteria and perfbench."""
    root = Path(fkdv.__file__).resolve().parents[2]
    files = [*(p for p in (root / "src" / "fkdv").glob("*.py")
               if p.name != "__init__.py"),
             root / "tests" / "test_acceptance.py",
             *(root / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text(), str(path)) for path in files]


def test_every_public_name_has_a_caller():
    # a caller is a load of the name, an attribute of that name or an import
    # of it in the package's modules, the acceptance criteria or perfbench
    called = set()
    for tree in _chain_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                called.update(alias.name for alias in node.names)
    uncalled = set(fkdv.__all__) - called
    assert sorted(uncalled - UNCALLED) == []
    assert uncalled >= UNCALLED  # an exempt name that gained a caller leaves the set


#: public members that no code outside their class reads, each with its reason
UNREAD = {
    ("GridSolution", "residual_history"): "residual_norm and iterations read it",
    ("GridSolution", "residual_target"): "the convergence target a solve is "
        "checked against, which the run manifest will record (ROADMAP item 15)",
    ("TailMeasurement", "fit_residual"): "cmd_tails writes the record by asdict",
    ("TailMeasurement", "value_at_L"): "cmd_tails writes the record by asdict",
}


def _attribute_loads(node, owner=None):
    """(attribute, enclosing class name or None) of each attribute load."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr, owner
        yield from _attribute_loads(
            child, child.name if isinstance(child, ast.ClassDef) else owner)


def test_every_public_member_has_a_reader():
    # the members of a public non-exception class are its dataclass fields,
    # properties and public methods; a reader is an attribute load of the
    # member's name outside its own class body, in the files the name rule scans
    members = set()
    for name in fkdv.__all__:
        cls = getattr(fkdv, name)
        if isinstance(cls, type) and not issubclass(cls, BaseException):
            members.update((name, f.name) for f in fields(cls))
            members.update((name, m) for m, v in vars(cls).items()
                           if not m.startswith("_") and isinstance(
                               v, (property, cached_property, FunctionType)))
    loads = {load for tree in _chain_trees() for load in _attribute_loads(tree)}
    unread = {(cls, m) for cls, m in members
              if not any(attr == m and owner != cls for attr, owner in loads)}
    assert sorted(unread) == sorted(UNREAD)


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
