import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fkdv import SolverConfig, bvp, cli, predicted_amplitude, stokes
from fkdv.cli import main

SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_prints_exact_eigenvalues(tmp_path, capsys):
    out = tmp_path / "table.json"
    code, stdout, _ = run(capsys, "series", "--n-max", "1", "--out", str(out))
    assert code == 0
    assert "c = [4, 16]" in stdout
    doc = json.loads(out.read_text())
    assert doc["c"] == ["4", "16"]
    assert (tmp_path / "table.json.manifest.json").exists()


def test_series_gamma_two(tmp_path, capsys):
    code, stdout, _ = run(capsys, "series", "--n-max", "0", "--gamma", "2",
                          "--out", str(tmp_path / "t.json"))
    assert code == 0
    assert "c = [16]" in stdout


def test_series_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "series", "--n-max", "6", "--out", str(a))
    run(capsys, "series", "--n-max", "6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_series_larger_table(tmp_path, capsys):
    out = tmp_path / "t30.json"
    code, _, _ = run(capsys, "series", "--n-max", "30", "--out", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["u"]) == 31


def test_lambda_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, stdout, _ = run(capsys, "lambda", "--n-max", "30", "--order", "3",
                          "--out", str(out), "--emit-csv")
    assert code == 0
    doc = json.loads(out.read_text())
    assert -20.07 <= doc["lambda_final"] <= -19.87
    assert out.with_suffix(".csv").exists()
    csv_lines = out.with_suffix(".csv").read_text().splitlines()
    assert csv_lines[0] == "n,lambda_n"
    assert len(csv_lines) == 32


def test_lambda_report_bytes_are_pinned(tmp_path, capsys):
    # digests of the report and CSV written before the series tables were
    # stored as integer forms; the top coefficients, the beta fit and every
    # float of the report must come out bit for bit the same
    out = tmp_path / "lambda_report.json"
    code, _, _ = run(capsys, "lambda", "--n-max", "40", "--gamma", "3/2",
                     "--emit-csv", "--out", str(out))
    assert code == 0
    digests = {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, out.with_suffix(".csv"))}
    assert digests == {
        ".json": "e4031ee6e002a08f19a869a84066d22b2f0e5e141d2ef5f01bd02db28af3f2fc",
        ".csv": "8c03bcffad149185dda337613c60f8ebaeed10771c88e81fc9db57985687660f",
    }


def test_lambda_insufficient_data_is_validation_failure(tmp_path, capsys,
                                                        monkeypatch):
    # every shortfall is caught before any table is built
    monkeypatch.setattr(cli, "build_series", None)
    for argv in (["--n-max", "3"], ["--n-max", "7"], ["--n-max", "13"],
                 ["--order", "-1"], ["--order", "0"]):
        code, _, stderr = run(capsys, "lambda", *argv,
                              "--out", str(tmp_path / "r.json"))
        assert code == 2, argv
        assert "insufficient" in stderr or "order" in stderr
        assert list(tmp_path.iterdir()) == []


def test_stokes_profile_sweep(tmp_path, capsys):
    code, stdout, _ = run(capsys, "stokes-profile", "--epsilon", "0.1", "0.05",
                          "--out-dir", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("stokes_profile_*.csv"))
    assert files == ["stokes_profile_eps0.05.csv", "stokes_profile_eps0.1.csv"]
    assert stdout.count("jump_numeric/jump_closed") == 2
    header = (tmp_path / files[0]).read_text().splitlines()[0]
    assert header == "eta,re_S,im_S,re_S_closed,im_S_closed"


def test_tails_single_epsilon_measurement_only(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    code, stdout, _ = run(capsys, "tails", "--epsilon", "0.15", "--out", str(out),
                          "--out-dir", str(tmp_path), "--dump-solutions",
                          "--grid-h", "0.005")
    assert code == 0
    assert "skipping the exponent fit" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 1 and records[0]["epsilon"] == 0.15
    assert records[0]["grid_spacing"] == 0.005
    dump = tmp_path / "bvp_solution_eps0.15.csv"
    assert dump.read_text().splitlines()[0] == "x,u"
    manifest = json.loads((tmp_path / "m.jsonl.manifest.json").read_text())
    assert str(dump) in manifest["outputs"]


def test_tails_default_sweep_fits_the_exponent(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    code, stdout, _ = run(capsys, "tails", "--out", str(out))
    assert code == 0
    assert "fit: slope =" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 4
    for rec in records:
        assert rec["amplitude_predicted"] == predicted_amplitude(
            SolverConfig(epsilon=rec["epsilon"]))


def test_tails_row_does_not_depend_on_the_other_epsilons(tmp_path, capsys):
    rows = {}
    for name, argv in (("default", []), ("single", ["--epsilon", "0.1"])):
        out = tmp_path / f"{name}.jsonl"
        assert run(capsys, "tails", *argv, "--out", str(out))[0] == 0
        rows[name] = [line for line in out.read_text().splitlines()
                      if json.loads(line)["epsilon"] == 0.1]
    assert len(rows["single"]) == 1
    assert rows["default"] == rows["single"]


def test_tails_contaminated_window_rejected(tmp_path, capsys):
    code, _, stderr = run(capsys, "tails", "--epsilon", "0.03",
                          "--out", str(tmp_path / "m.jsonl"))
    assert code == 2
    assert "core" in stderr
    assert not (tmp_path / "m.jsonl").exists()


def test_compare_beyond_domain_is_validation_failure(tmp_path, capsys):
    code, _, stderr = run(capsys, "compare", "--epsilon", "0.1", "--x", "99")
    assert code == 2
    assert "beyond" in stderr


def test_compare_nan_x_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before x was checked")

    monkeypatch.setattr(bvp, "solve", no_solve)
    code, _, stderr = run(capsys, "compare", "--epsilon", "0.1", "--x", "nan",
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert "x = nan lies beyond the domain" in stderr
    assert list(tmp_path.iterdir()) == []


def test_compare_stencil_beyond_double_range_is_validation_failure(
        tmp_path, capsys, monkeypatch):
    # at eps = 1e80 the default L = 10 + 20 pi eps asks for 4.8e82 cosine
    # modes: the solver config refuses it before any array is built
    def no_solve(*args, **kwargs):
        raise AssertionError("solved past the mode cap")

    monkeypatch.setattr(bvp, "solve", no_solve)
    code, _, stderr = run(capsys, "compare", "--epsilon", "1e80", "--n-max", "5",
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr == ("error: gamma = 1.0, L = 6.285e+81: 4.801e+82 cosine "
                      "modes exceed the cap of 3072\n")
    assert list(tmp_path.iterdir()) == []


def test_compare_solves_before_building_the_series(tmp_path, capsys, monkeypatch):
    # Newton fails at eps = 1; the series build it would have wasted never runs
    calls = []
    monkeypatch.setattr(cli, "build_series", lambda *a: calls.append(a))
    code, _, stderr = run(capsys, "compare", "--epsilon", "1",
                          "--out-dir", str(tmp_path))
    assert code == 1
    assert "math failure" in stderr
    assert calls == []


def test_compare_off_the_wave_branch_is_math_failure(tmp_path, capsys):
    # Newton converges onto u = 0 at eps = 0.4, gamma = 2: no value is reported
    code, stdout, stderr = run(capsys, "compare", "--epsilon", "0.4",
                               "--gamma", "2", "--out-dir", str(tmp_path))
    assert code == 1
    assert "below the wave's branch" in stderr
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_compare_singular_newton_matrix_is_math_failure(tmp_path, capsys,
                                                        monkeypatch):
    # numpy's LinAlgError is a ValueError, which main would report as exit 2
    monkeypatch.setattr(bvp._Collocation, "jacobian",
                        lambda self, u: np.zeros((len(u), len(u))))
    code, stdout, stderr = run(capsys, "compare", "--epsilon", "0.1",
                               "--out-dir", str(tmp_path))
    assert code == 1
    assert stderr.startswith("math failure: Newton matrix: Singular matrix")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    # 1e-300 = 1/10^300: its denominator is beyond GAMMA_BOUND
    (["compare", "--epsilon", "0.1", "--gamma", "1e-300"],
     "gamma must be positive, in lowest terms p/q with p, q < 2^32, not 1e-300"),
    # the core is 10 wide: the default L = 16.285 cut it off
    (["compare", "--epsilon", "0.1", "--gamma", "0.1"],
     "L = 16.285 too short at gamma = 0.1: need L >= 106.28"),
    # 1e300: its numerator is beyond GAMMA_BOUND
    (["tails", "--epsilon", "0.1", "--gamma", "1e300"],
     "gamma must be positive, in lowest terms p/q with p, q < 2^32, not 1e300"),
], ids=["compare-tiny-gamma", "compare-narrow-gamma", "tails-huge-gamma"])
def test_gamma_the_bvp_cannot_hold_is_validation_failure(tmp_path, capsys,
                                                         argv, message):
    code, stdout, stderr = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr.startswith("error: " + message)
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_narrow_gamma_solves_on_a_long_enough_domain(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code, stdout, _ = run(capsys, "compare", "--epsilon", "0.1", "--gamma", "0.1",
                          "--domain-length", "120", "--out", str(out))
    assert code == 0
    # 2 g^2 + 10 g^4 eps^2 + 60 g^6 eps^4 + ... = 0.020010006
    assert "u_bvp(0.0) = 0.0200100060" in stdout
    assert max(e for _, e in json.loads(out.read_text())["errors"]) < 1e-8


def _compare(capsys, tmp_path, *argv):
    out = tmp_path / "cmp.json"
    assert run(capsys, "compare", *argv, "--out", str(out))[0] == 0
    return json.loads(out.read_text())


def test_compare_has_no_grid_h(tmp_path, capsys):
    # compare reads u off the cosine interpolant, and the sampling step no
    # longer moves L: a --grid-h there would move nothing
    with pytest.raises(SystemExit) as info:
        main(["compare", "--epsilon", "0.1", "--grid-h", "0.005",
              "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --grid-h 0.005" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "tails"])
@pytest.mark.parametrize("epsilon", ["0.09", "0.14"])
def test_tail_harmonics_below_k_max_pass_the_resolution_check(
        tmp_path, capsys, command, epsilon):
    # the tail's second (eps = 0.09) and third (0.14) harmonic lie in the top
    # tenth of the spectrum, resolved; the solve is accepted
    code, _, stderr = run(capsys, command, "--epsilon", epsilon,
                          "--out-dir", str(tmp_path))
    assert (code, stderr) == (0, "")


def test_compare_reads_the_interpolant_between_samples(tmp_path, capsys):
    # x = 0.4 is a sample, 0.40125 lies half a step away; linear interpolation
    # between samples raised that error floor 4.6-fold
    floors = [min(e for _, e in _compare(capsys, tmp_path, "--epsilon", "0.05",
                                         "--n-max", "40", "--x", x)["errors"])
              for x in ("0.4", "0.40125")]
    assert max(floors) <= 2.0 * min(floors)


def test_compare_reports_optimal_N(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code, stdout, _ = run(capsys, "compare", "--epsilon", "0.1", "--x", "0",
                          "--n-max", "16", "--out", str(out))
    assert code == 0
    assert "optimal_N = 8" in stdout
    doc = json.loads(out.read_text())
    assert doc["optimal_N"] == 8
    assert len(doc["errors"]) == 13


def test_compare_tail_scale_reads_the_one_lambda(tmp_path, capsys, monkeypatch):
    def tail_scale():
        out = tmp_path / "cmp.json"
        assert run(capsys, "compare", "--epsilon", "0.1", "--out", str(out))[0] == 0
        return json.loads(out.read_text())["tail_scale"]

    before = tail_scale()
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", 2 * stokes.DEFAULT_LAMBDA)
    assert tail_scale() == 2 * before


@pytest.mark.parametrize("command, epsilons", [
    ("stokes-profile", ["inf"]), ("tails", ["inf"]), ("compare", ["inf"]),
    # every frame is built before the first profile is integrated or written
    ("stokes-profile", ["0.1", "inf"]),
], ids=["stokes-profile", "tails", "compare", "stokes-profile-after-good"])
def test_infinite_epsilon_is_validation_failure(tmp_path, capsys, command,
                                                epsilons):
    code, stdout, stderr = run(capsys, command, "--epsilon", *epsilons,
                               "--out-dir", str(tmp_path))
    assert code == 2
    assert "epsilon must be positive and finite" in stderr
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["stokes-profile", "--epsilon", "0.1", "0.1000001"],
    ["tails", "--epsilon", "0.15", "0.1500001", "--dump-solutions",
     "--grid-h", "0.005"],
], ids=lambda argv: argv[0])
def test_colliding_output_names_are_validation_failure(tmp_path, capsys,
                                                       monkeypatch, argv):
    # the file names keep 6 significant digits: the second profile or solution
    # would overwrite the first, so nothing is solved or written
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the names were checked")

    monkeypatch.setattr(stokes, "integrate_multiplier", no_solve)
    monkeypatch.setattr(bvp, "solve", no_solve)
    code, _, stderr = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert "would both write" in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["tails"])
@pytest.mark.parametrize("grid_h", ["0", "-0.005", "inf"])
def test_nonpositive_grid_h_is_validation_failure(tmp_path, capsys, command, grid_h):
    code, _, stderr = run(capsys, command, "--epsilon", "0.1", "--grid-h", grid_h,
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert "grid_spacing must be positive" in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["tails", "compare"])
def test_infinite_domain_length_is_validation_failure(tmp_path, capsys, command):
    code, _, stderr = run(capsys, command, "--epsilon", "0.1", "--domain-length",
                          "inf", "--out-dir", str(tmp_path))
    assert code == 2
    assert "half_length must be positive and finite" in stderr
    assert list(tmp_path.iterdir()) == []


#: the arguments each command needs besides --gamma
COMMAND_ARGS = {"series": ["--n-max", "3"], "lambda": [],
                "stokes-profile": ["--epsilon", "0.1"],
                "tails": ["--epsilon", "0.1"], "compare": ["--epsilon", "0.1"]}


@pytest.mark.parametrize("command", ["stokes-profile", "tails", "series",
                                     "lambda", "compare"])
@pytest.mark.parametrize("gamma", ["0", "-1", "1/0", "1e400", "1e-400"])
def test_nonpositive_gamma_is_validation_failure(tmp_path, capsys, command, gamma):
    code, _, stderr = run(capsys, command, *COMMAND_ARGS[command],
                          "--gamma", gamma, "--out-dir", str(tmp_path))
    assert code == 2
    assert "gamma must be positive" in stderr
    assert list(tmp_path.iterdir()) == []


#: gamma = 1/G and G at the edges of the bound, G = GAMMA_BOUND - 1 = 2^32 - 1
G = cli.GAMMA_BOUND - 1
EDGES = {"1/G": ("1/4294967295", G), "G": ("4294967295", 1 / G)}


def _edge_argv(command, scale):
    """command at eps = 0.1 scale and L = 16.3 scale: the gamma = 1 problem
    at eps = 0.1 mapped to gamma = 1/scale."""
    eps, L = repr(0.1 * scale), repr(16.3 * scale)
    return {"series": ["--n-max", "8"], "lambda": ["--n-max", "14"],
            "stokes-profile": ["--epsilon", eps],
            "tails": ["--epsilon", eps, "--domain-length", L],
            "compare": ["--epsilon", eps, "--domain-length", L, "--n-max", "8"],
            }[command]


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("command", ["series", "lambda", "stokes-profile",
                                     "tails", "compare"])
def test_gamma_just_inside_the_bound_is_accepted(tmp_path, capsys, edge,
                                                 command):
    gamma, scale = EDGES[edge]
    code, stdout, stderr = run(capsys, command, *_edge_argv(command, scale),
                               "--gamma", gamma, "--out-dir", str(tmp_path))
    if command in ("tails", "compare") and edge == "G":
        # past the gamma rule, the BVP's own rule L >= 10 max(1, 1/gamma)
        # + 20 pi eps refuses a core 1/G wide on a domain that short
        assert code == 2
        assert stderr.startswith("error: L = 3.795") and \
            "too short at gamma = 4294967295.0" in stderr
        return
    assert (code, stderr) == (0, "")
    if command == "stokes-profile":  # the map eps -> gamma eps keeps the jump
        assert "jump_numeric/jump_closed = 1.008096" in stdout


@pytest.mark.parametrize("gamma", ["4294967296", "1/4294967296",
                                   "4294967297/4294967296", "1e300", "1e-300",
                                   "1e40"])
@pytest.mark.parametrize("command", ["series", "lambda", "stokes-profile",
                                     "tails", "compare"])
def test_gamma_just_outside_the_bound_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, gamma):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before gamma was checked")

    monkeypatch.setattr(cli, "build_series", no_work)
    monkeypatch.setattr(bvp, "solve", no_work)
    monkeypatch.setattr(stokes, "integrate_multiplier", no_work)
    code, stdout, stderr = run(capsys, command, *COMMAND_ARGS[command],
                               "--gamma", gamma, "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr == ("error: gamma must be positive, in lowest terms p/q "
                      f"with p, q < 2^32, not {gamma}\n")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epsilon", ["1e-300", "1e300", "8e-124", "3e123"])
def test_stokes_epsilon_beyond_the_double_range_is_refused(tmp_path, capsys,
                                                           epsilon):
    # eps^2 and eps^2.5 must be normal doubles, checked before any integration
    code, stdout, stderr = run(capsys, "stokes-profile", "--epsilon", "0.1",
                               epsilon, "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr.startswith("error: epsilon must be positive and finite")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["series", "--n-max", "2"],
    ["lambda", "--n-max", "14"],
    ["stokes-profile", "--epsilon", "0.1"],
    ["tails", "--epsilon", "0.15"],
    ["compare", "--epsilon", "0.1", "--n-max", "8"],
], ids=lambda argv: argv[0])
def test_every_command_writes_a_manifest(tmp_path, capsys, argv):
    code, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0
    manifests = list(tmp_path.glob("*.manifest.json"))
    assert len(manifests) == 1
    outputs = json.loads(manifests[0].read_text())["outputs"]
    assert outputs and all(Path(p).exists() for p in outputs)


def test_startup_never_imports_scipy(tmp_path):
    # fkdv needs numpy only; importing scipy would cost about 0.3 s a command
    script = f"""
import sys
import fkdv
from fkdv import cli
out = {str(tmp_path)!r}
for argv in (["series", "--n-max", "8"], ["lambda", "--n-max", "16"],
             ["stokes-profile", "--epsilon", "0.1"], ["tails"],
             ["compare", "--epsilon", "0.1"]):
    assert cli.main(argv + ["--out-dir", out]) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.manifest.json"))) == 5


def test_series_end_never_imports_numpy(tmp_path):
    # series, evaluation and late_terms are integer and Fraction code; numpy
    # is about half of a fresh `import fkdv`
    script = f"""
import sys
import fkdv
from fkdv import cli
out = {str(tmp_path)!r}
assert "numpy" not in sys.modules
for argv in (["series", "--n-max", "8"], ["lambda", "--n-max", "16"]):
    assert cli.main(argv + ["--out-dir", out]) == 0, argv
# a failure maps to its exit code without loading the array layers either
for argv in (["lambda", "--n-max", "5"], ["series", "--n-max", "129"],
             ["series", "--n-max", "3", "--gamma", "0"],
             ["series", "--n-max", "3", "--gamma", "1/0"]):
    assert cli.main(argv + ["--out-dir", out]) == 2, argv
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.manifest.json"))) == 2
