import json
from pathlib import Path

import pytest

from fkdv import cli
from fkdv.cli import main


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


def test_stokes_profile_flat_for_zero_lambda(tmp_path, capsys):
    code, _, _ = run(capsys, "stokes-profile", "--epsilon", "0.1",
                     "--lambda-const", "0", "--out-dir", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "stokes_profile_eps0.1.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


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


def test_compare_reports_optimal_N(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code, stdout, _ = run(capsys, "compare", "--epsilon", "0.1", "--x", "0",
                          "--n-max", "16", "--out", str(out))
    assert code == 0
    assert "optimal_N = 8" in stdout
    doc = json.loads(out.read_text())
    assert doc["optimal_N"] == 8
    assert len(doc["errors"]) == 13


@pytest.mark.parametrize("command", ["tails", "compare"])
@pytest.mark.parametrize("grid_h", ["0", "-0.005"])
def test_nonpositive_grid_h_is_validation_failure(tmp_path, capsys, command, grid_h):
    code, _, stderr = run(capsys, command, "--epsilon", "0.1", "--grid-h", grid_h,
                          "--out-dir", str(tmp_path))
    assert code == 2
    assert "grid_spacing must be positive" in stderr
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
