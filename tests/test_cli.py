import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fkdv import (SolverConfig, StokesFrame, bvp, cli, integrate_multiplier,
                  predicted_amplitude, stokes)
from fkdv.cli import main
from fkdv.stokes import profile_csv_rows

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


def test_stokes_profile_at_given_r(tmp_path, capsys):
    code, _, _ = run(capsys, "stokes-profile", "--epsilon", "0.1", "--r", "1.2",
                     "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "stokes_profile_eps0.1.csv").read_text().splitlines()[1:]
    frame = StokesFrame(r=1.2, epsilon=0.1)
    rows = profile_csv_rows(integrate_multiplier(frame), frame)
    assert [tuple(map(float, line.split(","))) for line in lines] == rows


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


def test_compare_term_beyond_double_range_is_math_failure(tmp_path, capsys):
    # eps^2 = 1e160 takes eps^4 u_2 past 1.8e308: exit 1, no traceback
    code, _, stderr = run(capsys, "compare", "--epsilon", "1e80", "--n-max", "5",
                          "--out-dir", str(tmp_path))
    assert code == 1
    assert "math failure" in stderr
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


@pytest.mark.parametrize("command", ["stokes-profile", "tails", "compare"])
def test_infinite_epsilon_is_validation_failure(tmp_path, capsys, command):
    code, _, stderr = run(capsys, command, "--epsilon", "inf",
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert "epsilon must be positive and finite" in stderr
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


@pytest.mark.parametrize("command", ["tails", "compare"])
@pytest.mark.parametrize("grid_h", ["0", "-0.005"])
def test_nonpositive_grid_h_is_validation_failure(tmp_path, capsys, command, grid_h):
    code, _, stderr = run(capsys, command, "--epsilon", "0.1", "--grid-h", grid_h,
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert "grid_spacing must be positive" in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["stokes-profile", "tails"])
@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_nonpositive_gamma_is_validation_failure(tmp_path, capsys, command, gamma):
    code, _, stderr = run(capsys, command, "--epsilon", "0.1", "--gamma", gamma,
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert "gamma must be positive" in stderr
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
    # only the BVP needs scipy; importing it costs about 0.3 s of every command
    script = f"""
import sys
import fkdv
from fkdv import cli
out = {str(tmp_path)!r}
for argv in (["series", "--n-max", "8"], ["lambda", "--n-max", "16"],
             ["stokes-profile", "--epsilon", "0.1"]):
    assert cli.main(argv + ["--out-dir", out]) == 0, argv
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.manifest.json"))) == 3


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
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.manifest.json"))) == 2
