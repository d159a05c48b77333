import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fkdv import SolverConfig, bvp, cli, predicted_amplitude, series, stokes
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
    # float of the report must come out bit for bit the same. The report's
    # digest was renewed when ratio_test's model became scale-free: 15 of the
    # 40 predictions moved, each by at most 2 ulps
    out = tmp_path / "lambda_report.json"
    code, _, _ = run(capsys, "lambda", "--n-max", "40", "--gamma", "3/2",
                     "--emit-csv", "--out", str(out))
    assert code == 0
    digests = {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, out.with_suffix(".csv"))}
    assert digests == {
        ".json": "70d5bb9eb7010fcb1bac4c76cf074a256c389b346c56a238b327ca36f561025b",
        ".csv": "8c03bcffad149185dda337613c60f8ebaeed10771c88e81fc9db57985687660f",
    }


@pytest.mark.parametrize("argv", [
    ["--gamma", "1/65536"], ["--n-max", "60", "--gamma", "65536"],
    ["--n-max", "60", "--gamma", "4294967295/2"],
], ids=["1/65536", "65536", "4294967295/2"])
def test_lambda_ratio_model_stays_in_double_range(tmp_path, capsys, argv):
    # |chi|^(2n+2) with |chi| = pi/(2 gamma) once overflowed: exit 1
    code, _, stderr = run(capsys, "lambda", *argv, "--out-dir", str(tmp_path))
    assert (code, stderr) == (0, "")
    doc = json.loads((tmp_path / "lambda_report.json").read_text())
    assert len(doc["ratio_table"]) == (60 if "60" in argv else 30)


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


@pytest.mark.parametrize("argv, name, message", [
    (["lambda", "--emit-csv"], "r.csv", "--emit-csv would overwrite the report"),
    (["tails", "--epsilon", "0.1", "--dump-solutions"], "bvp_solution_eps0.1.csv",
     "--dump-solutions would overwrite the measurements"),
], ids=["lambda", "tails"])
def test_an_output_onto_another_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, argv, name, message):
    # --out r.csv --emit-csv once wrote the CSV over the report, and tails
    # the measurements over the dump; the manifest listed the path twice
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the paths were checked")

    monkeypatch.setattr(cli, "build_series", no_work)
    monkeypatch.setattr(bvp, "solve", no_work)
    out = tmp_path / name
    code, stdout, stderr = run(capsys, *argv, "--out", str(out),
                               "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr == f"error: {message} {out}\n"
    assert stdout == ""
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
                          "--out-dir", str(tmp_path), "--dump-solutions")
    assert code == 0
    assert "skipping the exponent fit" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 1 and records[0]["epsilon"] == 0.15
    assert sorted(records[0]) == [
        "amplitude_measured", "amplitude_predicted", "epsilon", "fit_residual",
        "half_length", "iterations", "mean", "residual_norm", "value_at_L",
        "wavelength_measured"]
    dump = tmp_path / "bvp_solution_eps0.15.csv"
    lines = dump.read_text().splitlines()
    # sampled at eps/20 on the default L = 19.425: 2592 steps, 5-smooth
    assert lines[0] == "x,u" and len(lines) == 2594
    manifest = json.loads((tmp_path / "m.jsonl.manifest.json").read_text())
    assert str(dump) in manifest["outputs"]


#: sha256 of the gamma = 1 BVP outputs, which the gamma = 1 map leaves bit
#: for bit as they were (manifests hold durations and are left out). The
#: canonical bytes are OpenBLAS's at two threads, the default on the 2-core
#: machine that took them: LAPACK's solve of the same Newton matrix differs in
#: its last bits under OPENBLAS_NUM_THREADS=1, and every digest here with it
BVP_DIGESTS = {
    "tail_measurements.jsonl":
        "d90f1bc396a7e9bd4a8af32be0f4a76dd51e9c49f1511c0c56aa691fcad8010e",
    "bvp_solution_eps0.08.csv":
        "0dad45d7d20d8e139fc0d130d5dd061e294ac4936a8af8373e4482ace499da12",
    "bvp_solution_eps0.1.csv":
        "c8debc0e477b26302627186e9c3a1e861f8403445e5e633574a717e217bf084c",
    "bvp_solution_eps0.12.csv":
        "0dea2ed62836f1af02839657cdcc1c9c0c827bcc40101157fce1835eb497e492",
    "bvp_solution_eps0.15.csv":
        "8e8cf58dc05fe1226b95e11edfa8342d1fe099507ec8dce5d1eb1cf160dd1ad8",
    "compare.json":
        "5112cb803758566da5da05aa8f0ea2ced572770b72f6919cb1f0a53388ca9e61",
}


def _output_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir() if not p.name.endswith(".manifest.json")}


#: sha256 of the BVP outputs through the gamma map, at gamma = 3/2 and 2/3
#: (manifests left out), the two-thread bytes as BVP_DIGESTS are
GAMMA_MAP_DIGESTS = {
    ("compare", "--epsilon", "0.1", "--gamma", "3/2"): {
        "compare.json":
            "4efd65a5fbc01d9077aa200d2ed98e096c62c6863004e16883e63f5cb369381e"},
    ("compare", "--epsilon", "0.1", "--gamma", "2/3", "--x", "0.5"): {
        "compare.json":
            "e2beafbf16547e442fca83edc32580adac611acd571a4ea13879198133a8ef66"},
    ("tails", "--gamma", "2/3", "--epsilon", "0.12", "0.15", "0.18", "0.21",
     "--dump-solutions"): {
        "tail_measurements.jsonl":
            "28effa6a7bdfa541f63f0222efede0c94de762afaf1d9a5d836a7829dd148afa",
        "bvp_solution_eps0.12.csv":
            "9ba3f699f51752fbbef50c8ebce0157f17c03890c60a7126991c6ac04aed8114",
        "bvp_solution_eps0.15.csv":
            "f4c2692644c5b0840404d2d9091ff61ab95bacd46662338eccb9af24e99193b1",
        "bvp_solution_eps0.18.csv":
            "23cb7258dfae656ed6fc12da9afd9a1b2723e83ba8890f07ad951d9fbb7b5635",
        "bvp_solution_eps0.21.csv":
            "d41e7b7b39d3b3b20a7861c76a395697b75e7935c0d0d844b3203b460332b3b0"},
}
GAMMA_ONE_ARGV = [("tails",), ("tails", "--dump-solutions"),
                  ("compare", "--epsilon", "0.1", "--x", "0.5", "--n-max", "12")]


@pytest.fixture(scope="module")
def pinned_bvp_runs(tmp_path_factory):
    """argv -> output digests of each pinned BVP command. All of them run in
    one child process with OpenBLAS fixed at two threads, so the pins hold
    whatever thread setting the suite runs under; with one CPU available,
    OpenBLAS caps the count at one and the pins fail."""
    runs = [(str(tmp_path_factory.mktemp("bvp")), argv)
            for argv in [*GAMMA_ONE_ARGV, *GAMMA_MAP_DIGESTS]]
    script = """
import json, sys
from fkdv.cli import main
for out, argv in json.loads(sys.argv[1]):
    if main([*argv, "--out-dir", out]) != 0:
        sys.exit(f"{argv} failed")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {argv: _output_digests(Path(out)) for out, argv in runs}


@pytest.mark.parametrize("argv", GAMMA_ONE_ARGV)
def test_gamma_one_bvp_bytes_are_pinned(pinned_bvp_runs, argv):
    written = pinned_bvp_runs[argv]
    assert written == {name: BVP_DIGESTS[name] for name in written}
    assert len(written) == {"tails": 1 + 4 * ("--dump-solutions" in argv),
                            "compare": 1}[argv[0]]


@pytest.mark.parametrize("argv", GAMMA_MAP_DIGESTS)
def test_gamma_map_bvp_bytes_are_pinned(pinned_bvp_runs, argv):
    assert pinned_bvp_runs[argv] == GAMMA_MAP_DIGESTS[argv]


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
    rows, stdouts = {}, {}
    for name, argv in (("default", []), ("single", ["--epsilon", "0.1"]),
                       ("repeated", ["--epsilon", "0.1", "0.12", "0.1", "0.15"])):
        out = tmp_path / f"{name}.jsonl"
        code, stdouts[name], _ = run(capsys, "tails", *argv, "--out", str(out))
        assert code == 0
        rows[name] = out.read_text().splitlines()
    assert len(rows["repeated"]) == 3
    rows = {name: [line for line in lines if json.loads(line)["epsilon"] == 0.1]
            for name, lines in rows.items()}
    assert len(rows["single"]) == 1
    assert rows["default"] == rows["single"] == rows["repeated"]
    # three distinct eps: fit_exponent refuses them, and tails skips the fit
    assert stdouts["repeated"].endswith(
        "\nfewer than 4 measurements: skipping the exponent fit\n")
    assert "fit:" not in stdouts["repeated"]


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


@pytest.mark.parametrize("x", ["-100", "inf", "nan"])
def test_compare_x_beyond_the_domain_is_refused_before_the_series(
        tmp_path, capsys, monkeypatch, x):
    # the solution's evaluate refuses |x| > L, and a NaN x, before any table
    calls = []
    monkeypatch.setattr(cli, "build_series", lambda *a: calls.append(a))
    code, stdout, stderr = run(capsys, "compare", "--epsilon", "0.1", "--x", x,
                               "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr == (f"error: x = {abs(float(x))} lies beyond the domain "
                      "|x| <= L = 16.285\n")
    assert (stdout, calls, list(tmp_path.iterdir())) == ("", [], [])


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


def test_only_tails_samples_the_solution(tmp_path, capsys):
    # compare reads the interpolant and takes no samples, so the cap on
    # L/h = 1.2e6 samples at h = eps/20 (it once refused compare too, though
    # M = 459) applies to tails alone, whose sweep samples every solution
    code, stdout, stderr = run(capsys, "compare", "--epsilon", "0.001",
                               "--domain-length", "60", "--n-max", "12",
                               "--out-dir", str(tmp_path / "compare"))
    assert (code, stderr) == (0, "")
    assert "u_bvp(0.0) = 2.0000100001" in stdout
    code, _, stderr = run(capsys, "tails", "--epsilon", "0.001", "--domain-length",
                          "60", "--out-dir", str(tmp_path / "tails"))
    assert (code, stderr) == (2, "error: L = 60.0, h = eps/h_factor = 0.001/20.0: "
                                 "1.2e+06 samples exceed the cap of 1048576\n")
    assert not (tmp_path / "tails").exists()


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
    # the core is 10 wide: L = 16.285, gamma = 1's default, cuts it off
    (["compare", "--epsilon", "0.1", "--gamma", "0.1", "--domain-length", "16.285"],
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


def test_tails_has_no_grid_h(tmp_path, capsys):
    # the tail is measured off the cosine coefficients and --dump-solutions
    # samples at eps/20: a sampling step would move no output but the dump
    with pytest.raises(SystemExit) as info:
        main(["tails", "--epsilon", "0.1", "--grid-h", "0.005",
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
    ["tails", "--epsilon", "0.15", "0.1500001", "--dump-solutions"],
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
    # the BVP's rule L >= 10/gamma + 20 pi eps holds at both edges: U is the
    # gamma = 1 wave at eps = 0.1 on L = 16.3
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
    ["compare", "--epsilon", "1e-310"],
    ["tails", "--epsilon", "1e-310", "0.1", "0.12", "0.15"],
    ["stokes-profile", "--epsilon", "0.1", "1e-310"],
], ids=lambda argv: argv[0])
def test_subnormal_epsilon_is_refused_before_any_work(tmp_path, capsys,
                                                      monkeypatch, argv):
    # 1e-310 passed 0 < eps < inf and then divided into inf: each command
    # exited 1 with "cannot convert float infinity to integer"
    def no_work(*args, **kwargs):
        raise AssertionError("work began before eps was checked")

    monkeypatch.setattr(cli, "build_series", no_work)
    monkeypatch.setattr(bvp, "solve", no_work)
    monkeypatch.setattr(stokes, "integrate_multiplier", no_work)
    code, stdout, stderr = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert stderr == ("error: epsilon must be positive and finite, with eps^2 "
                      "and eps^2.5 normal doubles, not 1e-310\n")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [["--steps", "2000"], ["--width", "1"]],
                         ids=lambda option: option[0])
def test_stokes_profile_has_no_steps_or_width(tmp_path, capsys, option):
    # every profile integrates over -pi/2 +- 1 from one 2000-step grid
    with pytest.raises(SystemExit) as info:
        main(["stokes-profile", "--epsilon", "0.1", *option,
              "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
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


#: sha256 of the stdout of each run below from --out-dir out, as it was when
#: each command printed its own report
REPORT_SHA256 = {
    "series": "36d4d0f8634422437741cdf27a936406fe23968b30011c3b3a476a90af49cba2",
    "lambda": "35b0d9401e0c13dbebdfed7b5ebd88d343430a7a7e1e76b2c436dd662874a3dc",
    "stokes-profile": "34bd2f360fb9365e09759ecbcc6d772041e71a22e1836bd72ee4cf94e3df049a",
    "tails": "9ab528a3b9fb354cdb36e92d6587844e6c474bbfd1e9bb9d1a5b1f03e8055872",
    "compare": "08d92a427f53985cf6e721b104c460cd774c19fcc2553b14be10022a95aa7760",
}


@pytest.mark.parametrize("argv", [
    ["series", "--n-max", "2"],
    ["lambda", "--n-max", "14", "--emit-csv"],
    ["stokes-profile", "--epsilon", "0.1", "0.05"],
    ["tails", "--epsilon", "0.15", "0.12", "--dump-solutions"],
    ["compare", "--epsilon", "0.1", "--n-max", "8"],
], ids=lambda argv: argv[0])
def test_commands_compute_and_main_writes(tmp_path, capsys, monkeypatch, argv):
    # a command returns its outputs as path -> text and its report as lines,
    # and neither writes nor prints: main writes, then prints the report
    def no_write(*args):
        raise AssertionError("a command wrote a file")

    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(cli, "atomic_write", no_write)
        m.setattr(series, "atomic_write", no_write)
        args = cli.build_parser().parse_args([*argv, "--out-dir", "out"])
        outputs, lines = args.func(args)
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
    code, stdout, stderr = run(capsys, *argv, "--out-dir", "out")
    assert (code, stdout, stderr) == (0, "".join(f"{line}\n" for line in lines), "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == REPORT_SHA256[argv[0]]
    manifest, = Path("out").glob("*.manifest.json")
    assert manifest.name == f"{next(iter(outputs)).name}.manifest.json"
    assert json.loads(manifest.read_text())["outputs"] == [str(p) for p in outputs]
    assert {p: p.read_text() for p in outputs} == outputs


@pytest.mark.parametrize("argv, message", [
    (["tails", "--epsilon", "0.08", "0.09", "0.10", "0.11", "0.12", "0.13",
      "0.14", "0.15", "--dump-solutions"],
     "math failure: r^2 = 0.9700 below 0.99 (slope -1.5135); measurements "
     "unreliable\n"),
    (["stokes-profile", "--epsilon", "0.1", "1e-14"],
     "math failure: no convergence to rtol=1e-08 after 8 doublings; worst panel "
     "theta in [-1.570804, -1.570796]\n"),
], ids=["tails", "stokes-profile"])
def test_a_failed_run_writes_nothing(tmp_path, capsys, argv, message):
    # both once left every file solved before the failure, and no manifest:
    # eight solution dumps and the measurements, or the eps = 0.1 profile;
    # and both once printed their report first: eight tails lines, or the
    # eps = 0.1 line that claims its profile was written
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv, "--out-dir", str(out))
    assert (code, stdout, stderr) == (1, "", message)
    assert not out.exists()


def test_a_write_refused_before_its_renames_writes_nothing(tmp_path, capsys):
    # a directory in the way of the CSV once left the report and no manifest:
    # every temp file is written, and every path checked, before any rename;
    # nor is the lambda_final line printed, as it once was before the write.
    # The refusal is one line and exit 2, where it once ended in a traceback
    (tmp_path / "r.csv").mkdir()
    code, stdout, stderr = run(capsys, "lambda", "--n-max", "14", "--emit-csv",
                               "--out", str(tmp_path / "r.json"))
    assert (code, stdout, stderr) == (2, "", f"error: Is a directory: {tmp_path}/r.csv\n")
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
    assert list((tmp_path / "r.csv").iterdir()) == []


def test_an_output_under_a_file_is_refused_in_one_line(tmp_path, capsys):
    # --out <a file>/x.json once ended in a FileExistsError traceback
    (tmp_path / "f").write_text("kept")
    code, stdout, stderr = run(capsys, "series", "--n-max", "3",
                               "--out", str(tmp_path / "f" / "x.json"))
    assert (code, stdout, stderr) == (
        2, "", f"error: [Errno 17] File exists: '{tmp_path}/f'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert (tmp_path / "f").read_text() == "kept"


@pytest.mark.parametrize("env", [True, False], ids=["FKDV_OUT_DIR", "cwd"])
def test_default_output_directory(tmp_path, capsys, monkeypatch, env):
    # without --out or --out-dir: $FKDV_OUT_DIR, else the working directory
    for name in ("env", "cwd"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("FKDV_OUT_DIR", str(tmp_path / "env"))
    if not env:
        monkeypatch.delenv("FKDV_OUT_DIR")
    assert run(capsys, "series", "--n-max", "1")[0] == 0
    written = {d: sorted(p.name for p in (tmp_path / d).iterdir()) for d in ("env", "cwd")}
    names = ["series_table.json", "series_table.json.manifest.json"]
    assert written == {"env": names if env else [], "cwd": [] if env else names}


def test_python_m_fkdv_runs_the_cli(tmp_path):
    # `python -m fkdv` (fkdv/__main__.py) is the module entry the README names
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "fkdv", "--version"], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{cli.__version__}\n", "")


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
