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

Both are exact rationals; Richardson acceleration runs on them exactly and
rounds once, as in doubles the close nodes 1/n lose every digit of deep tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .evaluation import _exact, singularity
from .series import SeriesTable


#: candidate power shifts and the first order of the beta fit's window
BETAS = (0, 1, 2, 3, 4)
N_LO = 10


class InsufficientDataError(ValueError):
    """Not enough sequence entries or measurements for the requested
    operation."""


def _lambda_exact(table: SeriesTable) -> list[Fraction]:
    """Raw per-order prefactor estimates, exactly: (-1)^{n+1} a_{n,n+1}
    g^-(2n+2) / (2n+1)! matches u_n ~ a_{n,n+1} S^{n+1} against
    Gamma(2n+2)/chi^{2n+2} without unwinding the (-1)^n late-term factor,
    so consecutive entries alternate in sign."""
    g = table.gamma
    return [(-1) ** (n + 1) * table.top_coefficient(n)
            / (g ** (2 * n + 2) * math.factorial(2 * n + 1))
            for n in range(table.n_max + 1)]


def inner_coefficients(m_max: int) -> list[Fraction]:
    """a_0..a_m_max of U = sum a_m z^{-(2m+2)} with U'''' + U'' + 3U^2 = 0,
    the inner problem at the singularity, exactly from a_0 = -2.

    The a_m are rationals, not integers (a_4 = -28918350/7). They are the
    top coefficients of the outer series, a_{n,n+1} = (-1)^{n+1} g^{2n+2} a_n,
    from a recurrence that shares no code with build_series.
    """
    a = [Fraction(-2)]
    for m in range(1, m_max + 1):
        k = 2 * m
        rhs = (-3 * sum(a[i] * a[m - i] for i in range(1, m))
               - k * (k + 1) * (k + 2) * (k + 3) * a[m - 1])
        a.append(rhs / ((k + 2) * (k + 3) - 12))
    return a


def _extrapolants(seq, max_order: int) -> list[Fraction]:
    """Extrapolants of orders 0..max_order from the tail of the sequence,
    exactly. seq[i] is read as the value at n = i + 1; order k eliminates
    the corrections 1/n, ..., 1/n^k through the last k+1 entries by Neville
    on the nodes h = 1/n, where entry i of level k is the polynomial in h
    through entries i..i+k at h = 0. Float inputs convert exactly."""
    if len(seq) <= max_order:
        raise InsufficientDataError(
            f"need more than {max_order} entries, got {len(seq)}")
    t = [Fraction(v) for v in seq[-(max_order + 1):]]
    ns = range(len(seq) - max_order, len(seq) + 1)
    out = [t[-1]]
    for k in range(1, max_order + 1):
        for i in range(max_order + 1 - k):
            # (h_i t_{i+1} - h_{i+k} t_i) / (h_i - h_{i+k}) with h = 1/n
            t[i] = (ns[i + k] * t[i + 1] - ns[i] * t[i]) / k
        out.append(t[max_order - k])
    return out


def richardson_extrapolate(seq: list[float], order: int) -> tuple[float, float]:
    """(estimate, error bound) after eliminating 1/n powers up to the order.

    The error bound is the exact difference of the last two extrapolants.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    tab = _extrapolants(seq, order)
    return float(tab[-1]), float(abs(tab[-1] - tab[-2]))


def ratio_test(table: SeriesTable, x: float) -> list[tuple[int, float, float]]:
    """(n, measured, predicted) consecutive-term ratios u_{n+1}(x)/u_n(x).

    The prediction uses the conjugate-pair late-term model
    u_n ~ (-1)^n Gamma(2n+2) * 2 Re[(x - sigma)^-(2n+2)]; at x = 0 it reduces
    to -(2n+2)(2n+3)/chi^2 with chi^2 = (x - sigma)^2 = -(pi/2 gamma)^2, i.e.
    a positive ratio. The model raises only the phase chi/|chi|, so it never
    overflows. Orders where u_n(x) = 0 or a model value nearly vanishes are
    skipped (recorded as gaps).
    """
    if table.n_max < 5:
        raise InsufficientDataError("need a table built to n_max >= 5")
    x = float(x)
    chi = complex(x) - singularity(table.gamma)
    z = chi / abs(chi)
    # the model over Gamma(2n+2) |chi|^-(2n+2): both cancel in the ratio
    model = [(-1) ** n * 2.0 * (z ** -(2 * n + 2)).real
             for n in range(table.n_max + 1)]

    # u_n(x) = re / den exactly at one S (im = 0 on the real axis); in
    # doubles the a_m cancel down n/2 digits and u_n(0) overflows near n = 93
    u = _exact(table.u, x, table.gamma)
    ratios = [(re1 * den) / (den1 * re) if re else None
              for (re, _, den), (re1, _, den1) in zip(u, u[1:])]
    out = []
    r2 = abs(chi) ** 2
    for n, measured in enumerate(ratios):
        if measured is None:
            continue
        mn, mn1 = model[n], model[n + 1]
        if abs(mn) < 1e-12 or abs(mn1) < 1e-12:
            continue
        predicted = (2 * n + 2) * (2 * n + 3) / r2 * (mn1 / mn)
        out.append((n, measured, predicted))
    return out


def chi_squared_estimate(table: SeriesTable, n: int) -> float:
    """Invert the x = 0 ratio model for chi^2; converges to -(pi/2 gamma)^2."""
    ratios = dict((k, m) for k, m, _ in ratio_test(table, 0.0))
    if n not in ratios:
        raise InsufficientDataError(f"no usable ratio at n = {n}")
    return -(2 * n + 2) * (2 * n + 3) / ratios[n]


def fit_divergence_exponent(table: SeriesTable) -> tuple[int, dict[int, float]]:
    """Select the power shift beta by constancy of a_{n,n+1}/Gamma(2n+beta).

    For each candidate in BETAS, fits the slope of
    log|a_{n,n+1} g^-(2n+2)| - log Gamma(2n+beta) against log n over
    n in [N_LO, n_max]; the true exponent gives a near-zero slope while an
    offset of d leaks a slope of about -d. Returns (best beta, slopes).
    """
    if table.n_max < N_LO + 4:
        raise InsufficientDataError(f"need n_max >= {N_LO + 4}")
    ns = range(N_LO, table.n_max + 1)
    g = table.gamma
    logs = []  # log|a_{n,n+1} g^-(2n+2)|
    for n in ns:
        a = abs(table.top_coefficient(n) / g ** (2 * n + 2))
        logs.append(math.log(a.numerator) - math.log(a.denominator))
    xs = [math.log(n) for n in ns]
    mx = sum(xs) / len(xs)
    sxx = sum((xv - mx) ** 2 for xv in xs)
    slopes = {}
    for beta in BETAS:
        ys = [la - math.lgamma(2 * n + beta) for n, la in zip(ns, logs)]
        my = sum(ys) / len(ys)
        slopes[beta] = sum((xv - mx) * (yv - my) for xv, yv in zip(xs, ys)) / sxx
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
    Richardson order >= 1 for an error bar, and n_max >= max(N_LO + 4,
    order + 1) for order + 1 aligned entries from n = 1 and for the beta
    fit."""
    need = max(N_LO + 4, order + 1)
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
    raw = _lambda_exact(table)
    aligned = [(-1) ** n * v for n, v in enumerate(raw)]
    extrap = _extrapolants(aligned[1:], order)
    beta_sel, slopes = fit_divergence_exponent(table)
    return SingulantReport(
        sigma=singularity(table.gamma),
        chi_prime=+1,
        beta_exponent=2,
        lambda_sequence=tuple(map(float, raw)),
        lambda_aligned=tuple(map(float, aligned)),
        lambda_extrapolants=tuple(map(float, extrap)),
        lambda_final=float(extrap[-1]),
        lambda_error=float(abs(extrap[-1] - extrap[-2])),
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
