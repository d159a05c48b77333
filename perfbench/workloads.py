"""The four workloads, the traced calls they share, and the probe that
times layers a workload does not reach.

Every operation of a workload does the same work. The seed moves only the
points at which outputs are checked or evaluated, never the amount of work,
so runs with different seeds measure the same thing.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from fkdv import (EvalPoint, build_series, empirical_optimum, fit_exponent,
                  frame_for, integrate_multiplier, load_table, measure_tail,
                  optimal_N, partial_sum, save_table, singulant_report, sweep)
from fkdv.late_terms import report_to_json
from fkdv.stokes import DEFAULT_LAMBDA, erf_profile

import checks
from checks import require

HERE = Path(__file__).resolve().parent
CLI_SESSION = HERE / "cli_session.py"

#: epsilons of the default `fkdv tails` sweep
TAIL_EPSILONS = (0.08, 0.10, 0.12, 0.15)
SMOOTH_EPSILONS = (0.15, 0.1, 0.05, 0.025)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("FKDV_OUT_DIR", None)
    return env


# ---------------------------------------------------------------------------
# traced calls into each layer, shared by the workloads and the probe

def traced_series(tr, n_max: int, gamma: Fraction, path: Path):
    with tr.span("series.build") as sp:
        table = build_series(n_max, gamma)
        sp.set(orders=n_max + 1)
    with tr.span("series.save") as sp:
        save_table(table, path)
    sp.set(bytes=path.stat().st_size)
    with tr.span("series.load"):
        loaded = load_table(path)
    return table, loaded


def traced_report(tr, table):
    with tr.span("late_terms.report"):
        report = singulant_report(table, order=3)
    # report_to_json runs ratio_test at x = 0 and packs the report
    with tr.span("late_terms.ratio_test"):
        doc = report_to_json(report, table)
    return report, doc


def traced_evaluation(tr, table, x: complex, eps: float):
    with tr.span("evaluation.optimal_N"):
        N = optimal_N(x, eps, table.gamma)
    point = EvalPoint(x, eps)
    with tr.span("evaluation.partial_sum") as sp:
        ps = partial_sum(table, point, N)
        sp.set(coeff_evals=N)
    with tr.span("evaluation.empirical_optimum") as sp:
        emp = empirical_optimum(table, point)
        sp.set(coeff_evals=table.n_max + 1)
    return N, ps.value, emp


def _erf_deviation(profile, frame) -> float:
    sq = math.sqrt(frame.epsilon)
    return max(abs(s - erf_profile((th + math.pi / 2) / sq, frame))
               for th, s in profile.samples)


def traced_stokes(tr, eps: float):
    frame = frame_for(eps)
    out = {}
    for integrand in ("smoothing", "late_term"):
        with tr.span(f"stokes.integrate_{integrand}") as sp:
            profile = integrate_multiplier(frame, integrand=integrand)
            sp.set(refinements=profile.refinements,
                   rhs_evals=(len(profile.samples) - 1) * 2 ** profile.refinements + 1)
        with tr.span("stokes.erf_compare"):
            dev = _erf_deviation(profile, frame)
        out[integrand] = (profile, dev)
    return frame, out


def traced_sweep(tr, h_factor: float):
    with tr.span("bvp.sweep") as sp:
        results = sweep(TAIL_EPSILONS, h_factor=h_factor)
        sp.set(newton_iters=sum(sol.iterations for _, sol, _ in results),
               nodes=sum(len(sol.u) for _, sol, _ in results))
    if tr.op is not None:
        # sweep measures inside; time the same measurement again so that
        # the solve time can be told apart (traced operations only)
        with tr.span("bvp.measure"):
            for config, sol, _ in results:
                measure_tail(sol, config)
    with tr.span("bvp.fit"):
        fit = fit_exponent([m for _, _, m in results])
    return results, fit


def _child_seconds(t0: float, proc) -> float:
    """Seconds from spawning a child to the end of its work, read off the
    perf_counter value the child prints last. perf_counter is the
    system-wide monotonic clock, so the two processes share it. Interpreter
    teardown and the parent's wake-up are left out: on the reference
    machine their latency clusters in 0.1 s steps."""
    return float(proc.stdout.splitlines()[-1]) - t0


def cli_session(tr, src: Path, out_dir: Path, commands) -> dict:
    """Run `commands` in one fresh interpreter; returns its time, exit code,
    summed manifest durations and bytes written."""
    with tr.span("cli.session") as sp:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(CLI_SESSION), json.dumps(commands)],
            env=child_env(src), capture_output=True, text=True, timeout=150)
        seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        seconds = _child_seconds(t0, proc)
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    command_s = 0.0
    for p in files:
        if p.name.endswith(".manifest.json"):
            command_s += json.loads(p.read_text())["duration_seconds"]
    nbytes = sum(p.stat().st_size for p in files)
    sp.set(seconds=seconds, command_s=command_s, bytes=nbytes)
    return {"seconds": seconds, "code": proc.returncode, "stderr": proc.stderr,
            "files": files, "command_s": command_s}


def import_time(tr, src: Path) -> float:
    """Time of a fresh interpreter's start and `import fkdv`."""
    with tr.span("cli.import") as sp:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import fkdv, time; print(time.perf_counter())"],
            env=child_env(src), capture_output=True, text=True, check=True,
            timeout=150)
    seconds = _child_seconds(t0, proc)
    sp.set(seconds=seconds)
    return seconds


def probe(tr, src: Path, work: Path) -> None:
    """A small fixed pass through every layer, so that every traced run can
    report every per-layer metric."""
    d = work / "probe"
    d.mkdir(exist_ok=True)
    table, _ = traced_series(tr, 16, Fraction(1), d / "table.json")
    traced_report(tr, table)
    traced_evaluation(tr, table, 0j, 0.1)
    traced_stokes(tr, 0.1)
    traced_sweep(tr, 20.0)
    cli_dir = d / "cli"
    shutil.rmtree(cli_dir, ignore_errors=True)
    cli_dir.mkdir()
    res = cli_session(tr, src, cli_dir,
                      [["series", "--n-max", "8", "--out-dir", str(cli_dir)]])
    require(res["code"] == 0, f"probe CLI session exited {res['code']}: {res['stderr']}")


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    #: operations run in this process; the reference kernel, which runs
    #: here too, tracks their speed but not that of fresh interpreters.
    #: Otherwise an operation's output carries its own "seconds".
    in_process = True

    def __init__(self, seed: int, work: Path, src: Path, smoke: bool):
        self.rng = random.Random(seed)
        self.work = work
        self.src = src
        self.smoke = smoke

    def prepare(self, tr) -> None:
        """Workload-specific set-up after the import; repeated and timed."""

    def prepare_checks(self) -> None:
        """Untimed preparation of reference data for the checks."""

    def op(self, tr):
        raise NotImplementedError

    def check(self, out) -> None:
        """Check one operation's output."""

    def check_run(self) -> dict:
        """One-off checks after the timed phase; returns figures to report."""
        return {}


class LambdaReport(Workload):
    """build_series(40, 3/2), save/load round trip, singulant report."""

    name = "lambda_report"
    gamma = Fraction(3, 2)

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.n_max = 24 if self.smoke else 40
        self.path = self.work / "table.json"
        self.residual_xs = [self.rng.uniform(0.2, 1.5) for _ in range(3)]
        self.first = None

    def prepare_checks(self) -> None:
        self.unit_table = build_series(self.n_max, Fraction(1))

    def op(self, tr):
        table, loaded = traced_series(tr, self.n_max, self.gamma, self.path)
        report, doc = traced_report(tr, loaded)
        return table, loaded, report, doc

    def check(self, out) -> None:
        table, loaded, report, doc = out
        checks.check_early_orders(table, self.gamma)
        checks.check_gamma_scaling(table, self.unit_table)
        checks.check_roundtrip(table, loaded)
        require(report.beta_selected == 2, f"beta = {report.beta_selected}, expected 2")
        require(abs(report.lambda_final + 19.97) <= 0.02,
                f"Lambda = {report.lambda_final}, expected -19.97 +- 0.02")
        text = json.dumps(doc, allow_nan=False, sort_keys=True)
        require(json.loads(text)["lambda_final"] == report.lambda_final,
                "report JSON does not carry lambda_final")
        if self.first is None:
            self.first = (table, text)
        else:
            require(table == self.first[0] and text == self.first[1],
                    "operations gave different outputs")

    def check_run(self) -> dict:
        ratios = checks.check_residual_scaling(self.first[0], self.residual_xs)
        return {"residual_ratio": {str(k): v for k, v in ratios.items()}}


class TruncateAndSmooth(Workload):
    """Optimal truncation and Stokes smoothing at four epsilons."""

    name = "truncate_and_smooth"
    n_max = 30

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        # one complex point at distance 0.5 from sigma = i pi/2, on the side
        # of the real axis; the seed picks its angle, which leaves N fixed
        phi = self.rng.uniform(-5 * math.pi / 6, -math.pi / 6)
        self.points = (0j, 1j * math.pi / 2 + 0.5 * cmath.exp(1j * phi))
        self.first = None

    def prepare(self, tr) -> None:
        with tr.span("series.build") as sp:
            self.table = build_series(self.n_max)
            sp.set(orders=self.n_max + 1)

    def op(self, tr):
        out = []
        for eps in SMOOTH_EPSILONS:
            evals = [traced_evaluation(tr, self.table, x, eps) for x in self.points]
            frame, profiles = traced_stokes(tr, eps)
            out.append((eps, evals, frame, profiles))
        return out

    @staticmethod
    def _summary(out):
        return [(eps, evals, frame.rho,
                 [(p.jump_numeric, p.refinements, dev) for p, dev in profiles.values()])
                for eps, evals, frame, profiles in out]

    def check(self, out) -> None:
        summary = self._summary(out)
        if self.first is not None:
            require(summary == self.first, "operations gave different outputs")
            return
        for eps, evals, frame, profiles in out:
            for x, (N, value, emp) in zip(self.points, evals):
                require(N == checks.truncation_index(x, eps, 1.0),
                        f"optimal_N = {N} at x = {x}, eps = {eps}")
                checks.check_partial_sum(self.table, x, eps, N, value)
                checks.check_empirical_optimum(x, eps, 1.0, self.n_max, emp)
            checks.check_smoothing(profiles["smoothing"][0], frame.r, eps, DEFAULT_LAMBDA)
            checks.check_late_term(profiles["late_term"][0], eps, DEFAULT_LAMBDA)
        self.first = summary


class TailSweep(Workload):
    """`bvp.sweep` over the CLI's default epsilons at h = eps/20 and eps/40."""

    name = "tail_sweep"

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.core_xs = np.array([0.0] + sorted(self.rng.uniform(0.0, 3.0)
                                               for _ in range(15)))
        self.first = None

    def op(self, tr):
        return [traced_sweep(tr, h) for h in (20.0, 40.0)]

    def check(self, out) -> None:
        summary = [(fit.slope, fit.r_squared,
                    [(m.amplitude_measured, m.wavelength_measured) for _, _, m in res])
                   for res, fit in out]
        if self.first is not None:
            require(summary == self.first, "operations gave different outputs")
            return
        for results, fit in out:
            checks.check_tail_sweep(results, fit, self.core_xs)
        self.first = summary


class CliCold(Workload):
    """Five fkdv commands at small sizes in one fresh interpreter."""

    name = "cli_cold"
    in_process = False

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.out_dir = self.work / "cli"
        self.x = round(self.rng.uniform(0.0, 2.0), 2)
        out = str(self.out_dir)
        self.commands = [
            ["series", "--n-max", "12", "--out-dir", out],
            ["lambda", "--n-max", "16", "--emit-csv", "--out-dir", out],
            ["stokes-profile", "--epsilon", "0.1", "--out-dir", out],
            ["tails", "--out-dir", out],
            ["compare", "--epsilon", "0.1", "--x", str(self.x), "--n-max", "12",
             "--out", str(self.out_dir / "compare.json")],
        ]
        self.first = None

    def op(self, tr):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        res = cli_session(tr, self.src, self.out_dir, self.commands)
        res["bytes"] = {p.name: p.read_bytes() for p in res["files"]}
        return res

    def check(self, out) -> None:
        require(out["code"] == 0, f"CLI session exited {out['code']}: {out['stderr']}")
        data = {}
        manifests = 0
        for name, raw in out["bytes"].items():
            text = raw.decode()
            if name.endswith(".json"):
                doc = json.loads(text)
            elif name.endswith(".jsonl"):
                doc = [json.loads(line) for line in text.splitlines()]
            elif name.endswith(".csv"):
                rows = list(csv.reader(text.splitlines()))
                doc = [[float(v) for v in row] for row in rows[1:]]
                require(len(doc) > 0 and all(len(r) == len(rows[0]) for r in doc),
                        f"{name}: ragged or empty CSV")
            else:
                raise checks.CheckFailure(f"unexpected output file {name}")
            if name.endswith(".manifest.json"):
                manifests += 1
                for listed in doc["outputs"]:
                    require(Path(listed).is_file(), f"{name} lists missing {listed}")
            else:
                data[name] = (raw, doc)
        require(manifests == len(self.commands),
                f"{manifests} manifests, expected one per command")
        require({"series_table.json", "compare.json"} <= data.keys(),
                f"outputs missing: {sorted(data)}")
        table = data["series_table.json"][1]
        require(table["c"][:2] == ["4", "16"] and set(table["c"][2:]) == {"0"},
                f"series c = {table['c']}")
        cmp = data["compare.json"][1]
        require(cmp["optimal_N"] == checks.truncation_index(complex(self.x), 0.1, 1.0),
                f"compare optimal_N = {cmp['optimal_N']}")
        raw_data = {k: v[0] for k, v in data.items()}
        if self.first is None:
            self.first = raw_data
        else:
            require(raw_data == self.first,
                    "identical parameters gave different output bytes")


WORKLOADS = {w.name: w for w in (LambdaReport, TruncateAndSmooth, TailSweep, CliCold)}
