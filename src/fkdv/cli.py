"""Command-line harness: reproducible experiments over the series engine,
late-term analysis, Stokes smoothing, and the direct BVP solve; `fkdv --help`
lists the commands.

Each command computes and returns its outputs, an ordered path -> text map,
and its report, the lines for stdout. `main` alone writes the outputs and a
run manifest (<first output>.manifest.json) of parameters and files, in one
`atomic_write`, and only then prints the report: a failed command, or a write
refused before its renames, writes nothing and prints only its error (stderr).
Exit codes: 0 success, 1 math failure, 2 validation failure. Every exception
class of the layers subclasses `ArithmeticError` (a math failure, as are
`OverflowError` and `ZeroDivisionError`) or `ValueError` (a validation failure),
and `main` catches only these two and `OSError`, an unwritable output (exit 2).
The default output directory is $FKDV_OUT_DIR, else the working directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .series import _table_text, atomic_write, build_series
from .evaluation import EvalPoint, empirical_optimum, optimal_N, partial_sum
from .late_terms import (InsufficientDataError, check_report_data, report_to_json,
                         singulant_report)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_VALIDATION = 2


def _out_dir(args) -> Path:
    return Path(args.out_dir or os.environ.get("FKDV_OUT_DIR", "."))


def _out_path(args, name: str) -> Path:
    """--out if given, else name in the output directory."""
    return Path(args.out) if args.out else _out_dir(args) / name


def _per_epsilon_paths(args, prefix: str, epsilons) -> list[Path]:
    """<prefix><eps:g>.csv in the output directory, one per epsilon.

    The name keeps six significant digits, so two epsilons can share it and
    one file would overwrite the other; such a list is refused before any work.
    """
    paths = [_out_dir(args) / f"{prefix}{eps:g}.csv" for eps in epsilons]
    first = {}
    for eps, path in zip(epsilons, paths):
        if path in first:
            raise ValueError(f"epsilon {first[path]!r} and {eps!r} would both "
                             f"write {path.name}")
        first[path] = eps
    return paths


#: bound on p and q of --gamma = p/q. The table is the gamma = 1 table, whose
#: largest integer has 843 digits at n = N_MAX_LIMIT = 128, times (p/q)^258 at
#: most: 2486 digits more, about 3330 in all, within the 4300 that str() and
#: int() allow (sys.get_int_max_str_digits()); gamma^{+-4} is within 2^{+-128}.
GAMMA_BOUND = 2 ** 32


def _gamma(args) -> Fraction:
    """--gamma as an exact rational p/q, which every command reads before any
    work: refused unless 0 < p, q < GAMMA_BOUND in lowest terms."""
    try:
        gamma = Fraction(args.gamma)
    except ZeroDivisionError:
        gamma = Fraction(0)
    if 0 < gamma.numerator < GAMMA_BOUND and gamma.denominator < GAMMA_BOUND:
        return gamma
    raise ValueError(f"gamma must be positive, in lowest terms p/q with p, q "
                     f"< 2^32, not {args.gamma}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # a float is written as its repr
    return buf.getvalue()


def cmd_series(args) -> tuple[dict[Path, str], list[str]]:
    table = build_series(args.n_max, _gamma(args))
    out = _out_path(args, "series_table.json")
    return {out: _table_text(table)}, [
        "c = [" + ", ".join(str(ci) for ci in table.c) + "]",
        f"wrote {out} ({table.n_max + 1} orders, gamma = {table.gamma})"]


def cmd_lambda(args) -> tuple[dict[Path, str], list[str]]:
    check_report_data(args.n_max, args.order)
    out = _out_path(args, "lambda_report.json")
    if args.emit_csv and out.with_suffix(".csv") == out:
        raise ValueError(f"--emit-csv would overwrite the report {out}")
    table = build_series(args.n_max, _gamma(args))
    report = singulant_report(table, order=args.order)
    outputs = {out: _json_text(report_to_json(report, table))}
    if args.emit_csv:
        outputs[out.with_suffix(".csv")] = _csv_text(
            ["n", "lambda_n"], enumerate(report.lambda_sequence))
    return outputs, [f"lambda_final = {report.lambda_final:.6f} "
                     f"+/- {report.lambda_error:.2e} (order {args.order}, "
                     f"n_max {args.n_max}); beta = {report.beta_selected}"]


def cmd_stokes_profile(args) -> tuple[dict[Path, str], list[str]]:
    from .stokes import frame_for, integrate_multiplier, profile_csv_rows
    gamma = _gamma(args)
    paths = _per_epsilon_paths(args, "stokes_profile_eps", args.epsilon)
    # all frames before any integration: a bad eps late in the list costs no work
    frames = [frame_for(eps, gamma) for eps in args.epsilon]
    outputs, lines = {}, []
    for frame, out in zip(frames, paths):
        profile = integrate_multiplier(frame)
        outputs[out] = _csv_text(["eta", "re_S", "im_S", "re_S_closed", "im_S_closed"],
                                 profile_csv_rows(profile, frame))
        ratio = abs(profile.jump_numeric / profile.jump_closed_form)
        lines.append(f"eps = {frame.epsilon:g}: jump_numeric/jump_closed = {ratio:.6f} "
                     f"(|jump| = {abs(profile.jump_numeric):.6e}), wrote {out}")
    return outputs, lines


def cmd_tails(args) -> tuple[dict[Path, str], list[str]]:
    from .bvp import fit_exponent, sweep
    gamma = float(_gamma(args))
    epsilons = sorted(set(args.epsilon))
    dumps = (_per_epsilon_paths(args, "bvp_solution_eps", epsilons)
             if args.dump_solutions else [])
    out = _out_path(args, "tail_measurements.jsonl")
    if out in dumps:
        raise ValueError(f"--dump-solutions would overwrite the measurements {out}")
    results = sweep(epsilons, gamma, half_length=args.domain_length)
    lines = [f"eps = {meas.epsilon:g}: amplitude = {meas.amplitude_measured:.6e} "
             f"(predicted {meas.amplitude_predicted:.6e}), "
             f"wavelength = {meas.wavelength_measured:.4f}"
             for _, _, meas in reversed(results)]

    outputs = {out: "".join(json.dumps({
        **asdict(meas), "iterations": sol.iterations,
        "residual_norm": sol.residual_norm, "half_length": cfg.half_length,
    }, sort_keys=True) + "\n" for cfg, sol, meas in results)}
    for (_, sol, _), path in reversed(list(zip(results, dumps))):  # both ascending in eps
        outputs[path] = _csv_text(["x", "u"], zip(sol.nodes.tolist(), sol.u.tolist()))
    try:
        fit = fit_exponent([meas for _, _, meas in reversed(results)])
    except InsufficientDataError:
        lines.append("fewer than 4 measurements: skipping the exponent fit")
    else:
        target = -math.pi / (2.0 * gamma)
        lines.append(f"fit: slope = {fit.slope:.4f} (model {target:.4f}), "
                     f"log prefactor = {fit.log_prefactor:.3f}, r^2 = {fit.r_squared:.5f}")
    return outputs, lines


def cmd_compare(args) -> tuple[dict[Path, str], list[str]]:
    from .bvp import SolverConfig, predicted_amplitude, solve
    gamma = _gamma(args)
    eps = args.epsilon
    cfg = SolverConfig(epsilon=eps, gamma=float(gamma), half_length=args.domain_length)
    # milliseconds; a failed solve or an x beyond the domain then wastes no build
    u_bvp = float(solve(cfg).evaluate(abs(args.x)))
    table = build_series(args.n_max, gamma)
    point = EvalPoint(complex(args.x), eps)
    n_opt = optimal_N(args.x, eps, gamma)
    n_emp = empirical_optimum(table, point)

    scale = predicted_amplitude(cfg)
    n_hi = min(14, table.n_max + 1)
    errors = []
    for N in range(2, n_hi + 1):
        ps = partial_sum(table, point, N)
        errors.append((N, abs(ps.value - u_bvp)))
    err_opt = dict(errors).get(n_opt)
    lines = [f"optimal_N = {n_opt}, empirical argmin of terms at n = {n_emp}",
             f"u_bvp({args.x}) = {u_bvp:.10f}"]
    lines += [f"  N = {N:2d}: |partial - u_bvp| = {e:.6e}"
              + ("  <- optimal" if N == n_opt else "") for N, e in errors]
    if err_opt is not None and scale > 0:
        lines.append(f"err(optimal) / tail scale = {err_opt / scale:.3f} "
                     f"(scale {scale:.3e})")
    return {_out_path(args, "compare.json"): _json_text({
        "epsilon": eps, "x": args.x, "optimal_N": n_opt,
        "empirical_argmin": n_emp, "u_bvp": u_bvp,
        "errors": [[N, e] for N, e in errors],
        "tail_scale": scale,
    })}, lines


DOMAIN_LENGTH_HELP = ("half length L, solved as given (default 10/min(1, gamma) + 20 pi "
                      "eps rounded up to a multiple of eps/20; >= 10/gamma + 20 pi eps)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkdv",
        description="Exponential asymptotics laboratory for the fifth-order KdV equation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--gamma", default="1",
                       help="sech width parameter as an exact rational, e.g. 3/2")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default $FKDV_OUT_DIR or cwd)")

    p = sub.add_parser("series", help="build the exact series table")
    common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", default=None, help="table JSON path")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("lambda", help="late-term report and Lam extrapolation")
    common(p)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--order", type=int, default=3,
                   help="Richardson extrapolation order")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--emit-csv", action="store_true",
                   help="also write (n, lambda_n) CSV next to the report")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("stokes-profile",
                       help="integrate the multiplier across the Stokes line")
    common(p)
    p.add_argument("--epsilon", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_stokes_profile)

    p = sub.add_parser("tails", help="BVP sweep and tail exponent fit")
    common(p)
    p.add_argument("--epsilon", type=float, nargs="+",
                   default=[0.08, 0.10, 0.12, 0.15])
    p.add_argument("--domain-length", type=float, default=None,
                   help=DOMAIN_LENGTH_HELP)
    p.add_argument("--out", default=None, help="measurement JSONL path")
    p.add_argument("--dump-solutions", action="store_true",
                   help="also write one (x, u) CSV per epsilon, sampled at eps/20")
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("compare",
                       help="optimal truncation against the BVP solution")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--domain-length", type=float, default=None,
                   help=DOMAIN_LENGTH_HELP)
    p.add_argument("--out", default=None, help="comparison JSON path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        outputs, lines = args.func(args)
        manifest = _json_text({
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k != "func"},
            "version": __version__, "outputs": [str(p) for p in outputs],
            "duration_seconds": time.perf_counter() - t0})
        atomic_write({**outputs, Path(f"{next(iter(outputs))}.manifest.json"): manifest})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"math failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    print(*lines, sep="\n")
    return EXIT_OK

