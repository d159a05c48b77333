"""Late-term analysis: factorial/power divergence, singulant, and the
prefactor constant of the series for the fifth-order KdV solitary core.

The computed coefficients follow

    u_n ~ Lam (-1)^n Gamma(2n + beta) / chi^{2n + beta},   chi = x - sigma,

near the dominant singularity sigma = i pi/(2 gamma), with beta = 2 forced by
the double pole of u_0 and Lam a real constant. The (-1)^n is intrinsic: the
top coefficient of u_n in the S basis has fixed sign while S^{n+1} alternates
as x -> sigma. Per-order estimates of Lam therefore come in two flavours,
the raw alternating sequence and the sign-aligned one; only the latter is a
convergent sequence suitable for Richardson acceleration. Its limit here is
-19.969, matching the quoted inner-problem value of about -19.97.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .evaluation import eval_coefficient, singularity
from .series import SeriesTable


class InsufficientDataError(ValueError):
    """Not enough sequence entries or measurements for the requested
    operation."""


def lambda_sequence(table: SeriesTable) -> list[float]:
    """Raw per-order prefactor estimates (-1)^{n+1} a_{n,n+1} g^-(2n+2) / (2n+1)!.

    Matches the local behaviour u_n ~ a_{n,n+1} S^{n+1} against
    Gamma(2n+2)/chi^{2n+2} without unwinding the (-1)^n late-term factor,
    so consecutive entries alternate in sign. See lambda_constant_sequence
    for the convergent form.
    """
    if table.n_max < 5:
        raise InsufficientDataError("need a table built to n_max >= 5")
    out = []
    g = table.gamma
    for n in range(table.n_max + 1):
        top = table.top_coefficient(n)
        exact = Fraction((-1) ** (n + 1)) * top / (g ** (2 * n + 2) * math.factorial(2 * n + 1))
        out.append(float(exact))
    return out


def lambda_constant_sequence(table: SeriesTable) -> list[float]:
    """Sign-aligned per-order estimates of the constant Lam; converges ~ Lam + O(1/n)."""
    return [(-1) ** n * v for n, v in enumerate(lambda_sequence(table))]


def _neville_at_zero(hs: list[float], ys: list[float]) -> float:
    # polynomial through (h_i, y_i) evaluated at h = 0
    t = list(ys)
    for k in range(1, len(t)):
        for i in range(len(t) - k):
            t[i] = (hs[i] * t[i + 1] - hs[i + k] * t[i]) / (hs[i] - hs[i + k])
    return t[0]


def richardson_table(seq: list[float], max_order: int) -> list[float]:
    """Extrapolants of orders 0..max_order from the tail of the sequence.

    seq[i] is read as the value at n = i + 1; order k eliminates the
    corrections 1/n, ..., 1/n^k through the last k+1 entries.
    """
    if len(seq) <= max_order:
        raise InsufficientDataError(
            f"need more than {max_order} entries, got {len(seq)}")
    out = []
    for k in range(max_order + 1):
        ns = range(len(seq) - k, len(seq) + 1)
        hs = [1.0 / n for n in ns]
        out.append(_neville_at_zero(hs, seq[-(k + 1):]))
    return out


def richardson_extrapolate(seq: list[float], order: int) -> tuple[float, float]:
    """(estimate, error bound) after eliminating 1/n powers up to the order.

    The error bound is the difference of the last two extrapolants.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    tab = richardson_table(seq, order)
    return tab[-1], abs(tab[-1] - tab[-2])


def ratio_test(table: SeriesTable, x: float) -> list[tuple[int, float, float]]:
    """(n, measured, predicted) consecutive-term ratios u_{n+1}(x)/u_n(x).

    The prediction uses the conjugate-pair late-term model
    u_n ~ (-1)^n Gamma(2n+2) * 2 Re[(x - sigma)^-(2n+2)]; at x = 0 it reduces
    to -(2n+2)(2n+3)/chi^2 with chi^2 = (x - sigma)^2 = -(pi/2 gamma)^2, i.e.
    a positive ratio. Orders where either value underflows the model are
    skipped (recorded as gaps).
    """
    if table.n_max < 5:
        raise InsufficientDataError("need a table built to n_max >= 5")
    x = float(x)
    sigma = singularity(table.gamma)
    chi = complex(x) - sigma

    def model(n: int) -> float:
        # Gamma factors are divided out of the ratio below; keep the phase
        return (-1) ** n * 2.0 * (chi ** -(2 * n + 2)).real * abs(chi) ** (2 * n + 2)

    if x == 0.0:
        # S = 1 exactly: sum the coefficients in exact arithmetic, because in
        # floats the huge alternating a_m cancel down ~11 digits by n ~ 27
        u_at_x = [float(sum(p.coeffs.values())) for p in table.u]
    else:
        u_at_x = [eval_coefficient(p, complex(x)).real for p in table.u]
    out = []
    r2 = abs(chi) ** 2
    for n in range(table.n_max):
        un, un1 = u_at_x[n], u_at_x[n + 1]
        if un == 0.0 or not math.isfinite(un) or not math.isfinite(un1):
            continue
        measured = un1 / un
        mn, mn1 = model(n), model(n + 1)
        if abs(mn) < 1e-12 or abs(mn1) < 1e-12:
            continue
        predicted = (2 * n + 2) * (2 * n + 3) / r2 * (mn1 / mn)
        out.append((n, measured, predicted))
    return out


def chi_squared_estimate(table: SeriesTable, n: int, x: float = 0.0) -> float:
    """Invert the x = 0 ratio model for chi^2; converges to -(pi/2 gamma)^2."""
    ratios = dict((k, m) for k, m, _ in ratio_test(table, x))
    if n not in ratios:
        raise InsufficientDataError(f"no usable ratio at n = {n}")
    return -(2 * n + 2) * (2 * n + 3) / ratios[n]


def fit_divergence_exponent(table: SeriesTable, betas=(0, 1, 2, 3, 4),
                            n_lo: int = 10) -> tuple[int, dict[int, float]]:
    """Select the power shift beta by constancy of a_{n,n+1}/Gamma(2n+beta).

    For each candidate, fits the slope of
    log|a_{n,n+1} g^-(2n+2)| - log Gamma(2n+beta) against log n over
    n in [n_lo, n_max]; the true exponent gives a near-zero slope while an
    offset of d leaks a slope of about -d. Returns (best beta, slopes).
    """
    if table.n_max < n_lo + 4:
        raise InsufficientDataError(f"need n_max >= {n_lo + 4}")
    ns = range(n_lo, table.n_max + 1)
    g = table.gamma
    slopes = {}
    for beta in betas:
        ys = []
        for n in ns:
            a = abs(table.top_coefficient(n) / g ** (2 * n + 2))
            ys.append(math.log(a.numerator) - math.log(a.denominator)
                      - math.lgamma(2 * n + beta))
        xs = [math.log(n) for n in ns]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        slopes[beta] = (sum((xv - mx) * (yv - my) for xv, yv in zip(xs, ys))
                        / sum((xv - mx) ** 2 for xv in xs))
    best = min(slopes, key=lambda b: abs(slopes[b]))
    return best, slopes


@dataclass(frozen=True)
class SingulantReport:
    sigma: complex
    chi_prime: int
    beta_exponent: int
    lambda_sequence: tuple[float, ...]
    lambda_aligned: tuple[float, ...]
    lambda_extrapolants: tuple[float, ...]
    lambda_final: float
    lambda_error: float
    beta_selected: int
    beta_slopes: dict[int, float]


def check_report_data(n_max: int, order: int) -> None:
    """singulant_report's data rule, checkable before a table is built:
    Richardson order >= 1 for an error bar, and n_max >= max(14, order + 1)
    for order + 1 aligned entries from n = 1 and for the default beta fit
    (n_lo + 4 = 14 orders)."""
    need = max(14, order + 1)
    if order < 1 or n_max < need:
        raise InsufficientDataError(
            f"insufficient data: the report needs order >= 1 and n_max >= "
            f"{need}, got order {order} and n_max {n_max}")


def singulant_report(table: SeriesTable, order: int = 3) -> SingulantReport:
    """Assemble the full late-term analysis at the table's gamma.

    Richardson acceleration runs on the sign-aligned sequence from n = 1
    (the n = 0 entry has no 1/n model to speak of); the raw alternating
    sequence is reported alongside.
    """
    check_report_data(table.n_max, order)
    raw = lambda_sequence(table)
    aligned = lambda_constant_sequence(table)
    extrap = richardson_table(aligned[1:], order)
    final, err = richardson_extrapolate(aligned[1:], order)
    beta_sel, slopes = fit_divergence_exponent(table)
    return SingulantReport(
        sigma=singularity(table.gamma),
        chi_prime=+1,
        beta_exponent=2,
        lambda_sequence=tuple(raw),
        lambda_aligned=tuple(aligned),
        lambda_extrapolants=tuple(extrap),
        lambda_final=final,
        lambda_error=err,
        beta_selected=beta_sel,
        beta_slopes=slopes,
    )


def report_to_json(report: SingulantReport, table: SeriesTable) -> dict:
    ratio_rows = ratio_test(table, 0.0)
    return {
        "sigma": [report.sigma.real, report.sigma.imag],
        "chi_prime": report.chi_prime,
        "beta_exponent": report.beta_exponent,
        "lambda_sequence": list(report.lambda_sequence),
        "lambda_aligned": list(report.lambda_aligned),
        "extrapolants": list(report.lambda_extrapolants),
        "lambda_final": report.lambda_final,
        "lambda_error": report.lambda_error,
        "beta_fit": {
            "selected": report.beta_selected,
            "slopes": {str(b): s for b, s in report.beta_slopes.items()},
        },
        "ratio_table": [[n, m, p] for n, m, p in ratio_rows],
    }


def lambda_csv_rows(report: SingulantReport) -> list[tuple[int, float]]:
    return list(enumerate(report.lambda_sequence))
