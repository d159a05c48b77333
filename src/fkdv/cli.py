"""Command-line harness: reproducible experiments over the series engine,
late-term analysis, Stokes smoothing, and the direct BVP solve; `fkdv --help`
lists the commands.

Every command writes its outputs atomically and records a run manifest
(<first output>.manifest.json) listing parameters and produced files.
Exit codes: 0 success, 1 math failure, 2 validation failure. Every exception
class of the layers subclasses `ArithmeticError` (a math failure, as are
`OverflowError` and `ZeroDivisionError`) or `ValueError` (a validation failure),
and `main` catches only these two. The default output directory is
$FKDV_OUT_DIR, else the working directory.
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
from fractions import Fraction
from pathlib import Path

from . import __version__
from .series import atomic_write, build_series, save_table
from .evaluation import EvalPoint, empirical_optimum, optimal_N, partial_sum
from .late_terms import check_report_data, report_to_json, singulant_report

EXIT_OK = 0
EXIT_MATH = 1
EXIT_VALIDATION = 2


def _out_dir(args) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    return Path(os.environ.get("FKDV_OUT_DIR", "."))


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


def _write_json(path: Path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    atomic_write(path, buf.getvalue())


def cmd_series(args) -> list[Path]:
    table = build_series(args.n_max, _gamma(args))
    out = _out_path(args, "series_table.json")
    save_table(table, out)
    print("c =", "[" + ", ".join(str(ci) for ci in table.c) + "]")
    print(f"wrote {out} ({table.n_max + 1} orders, gamma = {table.gamma})")
    return [out]


def cmd_lambda(args) -> list[Path]:
    check_report_data(args.n_max, args.order)
    table = build_series(args.n_max, _gamma(args))
    report = singulant_report(table, order=args.order)
    out = _out_path(args, "lambda_report.json")
    _write_json(out, report_to_json(report, table))
    outputs = [out]
    if args.emit_csv:
        csv_path = out.with_suffix(".csv")
        _write_csv(csv_path, ["n", "lambda_n"],
                   enumerate(report.lambda_sequence))
        outputs.append(csv_path)
    print(f"lambda_final = {report.lambda_final:.6f} "
          f"+/- {report.lambda_error:.2e} (order {args.order}, "
          f"n_max {args.n_max}); beta = {report.beta_selected}")
    return outputs


def cmd_stokes_profile(args) -> list[Path]:
    from .stokes import frame_for, integrate_multiplier, profile_csv_rows
    gamma = _gamma(args)
    paths = _per_epsilon_paths(args, "stokes_profile_eps", args.epsilon)
    # every frame is checked before the first integration, as `bvp.sweep`
    # builds every config first: a bad epsilon late in the list writes nothing
    frames = [frame_for(eps, gamma) for eps in args.epsilon]
    span = (-math.pi / 2 - args.width, -math.pi / 2 + args.width)
    for frame, out in zip(frames, paths):
        profile = integrate_multiplier(frame, span, steps=args.steps)
        _write_csv(out, ["eta", "re_S", "im_S", "re_S_closed", "im_S_closed"],
                   profile_csv_rows(profile, frame))
        ratio = abs(profile.jump_numeric / profile.jump_closed_form)
        print(f"eps = {frame.epsilon:g}: jump_numeric/jump_closed = {ratio:.6f} "
              f"(|jump| = {abs(profile.jump_numeric):.6e}), wrote {out}")
    return paths


def cmd_tails(args) -> list[Path]:
    from .bvp import fit_exponent, sweep
    gamma = float(_gamma(args))
    epsilons = sorted(set(args.epsilon))
    dumps = (dict(zip(epsilons, _per_epsilon_paths(args, "bvp_solution_eps",
                                                   epsilons)))
             if args.dump_solutions else {})
    results = sweep(epsilons, gamma, half_length=args.domain_length,
                    grid_spacing=args.grid_h)
    solution_files = []
    for cfg, sol, meas in reversed(results):
        if args.dump_solutions:
            spath = dumps[cfg.epsilon]
            _write_csv(spath, ["x", "u"],
                       zip(sol.nodes.tolist(), sol.u.tolist()))
            solution_files.append(spath)
        print(f"eps = {meas.epsilon:g}: amplitude = {meas.amplitude_measured:.6e} "
              f"(predicted {meas.amplitude_predicted:.6e}), "
              f"wavelength = {meas.wavelength_measured:.4f}")

    out = _out_path(args, "tail_measurements.jsonl")
    atomic_write(out, "".join(json.dumps({
        "epsilon": meas.epsilon,
        "amplitude_measured": meas.amplitude_measured,
        "amplitude_predicted": meas.amplitude_predicted,
        "wavelength_measured": meas.wavelength_measured,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "half_length": cfg.half_length,
        "grid_spacing": cfg.grid_spacing,
    }, sort_keys=True) + "\n" for cfg, sol, meas in results))
    if len(results) >= 4:
        fit = fit_exponent([meas for _, _, meas in reversed(results)])
        target = -math.pi / (2.0 * gamma)
        print(f"fit: slope = {fit.slope:.4f} (model {target:.4f}), "
              f"log prefactor = {fit.log_prefactor:.3f}, r^2 = {fit.r_squared:.5f}")
    else:
        print("fewer than 4 measurements: skipping the exponent fit")
    return [out] + solution_files


def cmd_compare(args) -> list[Path]:
    from .bvp import SolverConfig, predicted_amplitude, solve
    gamma = _gamma(args)
    eps = args.epsilon
    cfg = SolverConfig(epsilon=eps, gamma=float(gamma), half_length=args.domain_length)
    if not abs(args.x) <= cfg.half_length:  # a NaN x fails it too
        raise ValueError(f"x = {args.x} lies beyond the domain [0, {cfg.half_length}]")

    sol = solve(cfg)  # milliseconds; a failed solve then wastes no build
    table = build_series(args.n_max, gamma)
    point = EvalPoint(complex(args.x), eps)
    n_opt = optimal_N(args.x, eps, gamma)
    n_emp = empirical_optimum(table, point)
    u_bvp = float(sol.evaluate(abs(args.x)))

    scale = predicted_amplitude(cfg)
    n_hi = min(14, table.n_max + 1)
    errors = []
    for N in range(2, n_hi + 1):
        ps = partial_sum(table, point, N)
        errors.append((N, abs(ps.value - u_bvp)))
    err_opt = dict(errors).get(n_opt)
    print(f"optimal_N = {n_opt}, empirical argmin of terms at n = {n_emp}")
    print(f"u_bvp({args.x}) = {u_bvp:.10f}")
    for N, e in errors:
        marker = "  <- optimal" if N == n_opt else ""
        print(f"  N = {N:2d}: |partial - u_bvp| = {e:.6e}{marker}")
    if err_opt is not None and scale > 0:
        print(f"err(optimal) / tail scale = {err_opt / scale:.3f} "
              f"(scale {scale:.3e})")
    out = _out_path(args, "compare.json")
    _write_json(out, {
        "epsilon": eps, "x": args.x, "optimal_N": n_opt,
        "empirical_argmin": n_emp, "u_bvp": u_bvp,
        "errors": [[N, e] for N, e in errors],
        "tail_scale": scale,
    })
    return [out]


DOMAIN_LENGTH_HELP = ("half length L, solved as given (default 10 + 20 pi eps rounded "
                      "up to a multiple of eps/20; >= 10 max(1, 1/gamma) + 20 pi eps)")


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
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--width", type=float, default=1.0,
                   help="half-width of the theta span around -pi/2")
    p.set_defaults(func=cmd_stokes_profile)

    p = sub.add_parser("tails", help="BVP sweep and tail exponent fit")
    common(p)
    p.add_argument("--epsilon", type=float, nargs="+",
                   default=[0.08, 0.10, 0.12, 0.15])
    p.add_argument("--domain-length", type=float, default=None,
                   help=DOMAIN_LENGTH_HELP)
    p.add_argument("--grid-h", type=float, default=None, help="sampling step h "
                   "(default eps/20, at most eps/10); it never moves L or the solve")
    p.add_argument("--out", default=None, help="measurement JSONL path")
    p.add_argument("--dump-solutions", action="store_true",
                   help="also write one (x, u) CSV per epsilon")
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
        outputs = args.func(args)
        _write_json(Path(str(outputs[0]) + ".manifest.json"), {
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k != "func"},
            "version": __version__, "outputs": [str(p) for p in outputs],
            "duration_seconds": time.perf_counter() - t0})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"math failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
