"""Evaluation of the exact series at real and complex points: exact in
integers at the double S = sech^2(gamma x), each output rounded once, so the
one error is the rounding of S, the problem's own conditioning in x.

The leading-order solution analytically continued off the real axis has double
poles at x = +-i pi/(2 gamma), +-3 i pi/(2 gamma), ...; evaluation guards
against landing too close to one. Partial sums record per-term magnitudes so
the empirical optimal truncation point can be read off directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .series import SechPolynomial, SeriesTable

#: evaluation refuses points with |cosh(gamma x)| below this
POLE_THRESHOLD = 1e-8


class PoleProximityError(Exception):
    """Evaluation point is numerically indistinguishable from a pole."""


@dataclass(frozen=True)
class EvalPoint:
    """A complex evaluation point together with the small parameter."""

    x: complex
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "x", complex(self.x))


@dataclass(frozen=True)
class PartialSum:
    value: complex
    N: int
    term_magnitudes: tuple[float, ...]

    def __post_init__(self):
        if len(self.term_magnitudes) != self.N:
            raise ValueError("term_magnitudes must have length N")


def singularity(gamma) -> complex:
    """Upper dominant singularity sigma = i pi / (2 gamma)."""
    if not Fraction(gamma) > 0:
        raise ValueError("gamma must be positive")
    return 1j * math.pi / (2 * float(Fraction(gamma)))


def sech_squared(x: complex, gamma) -> complex:
    ch = cmath.cosh(float(Fraction(gamma)) * complex(x))
    if abs(ch) < POLE_THRESHOLD:
        raise PoleProximityError(f"|cosh(gamma x)| = {abs(ch):.3e} at x = {x}")
    return 1.0 / (ch * ch)


def _exact(p: SechPolynomial, x: complex) -> tuple[int, int, int]:
    """Integers (re, im, den) with sum a_m S^m = (re + i im) / den exactly at
    the double S = sech_squared(x, gamma)."""
    S = sech_squared(x, p.gamma)
    (sr, dr), (si, di) = S.real.as_integer_ratio(), S.imag.as_integer_ratio()
    t = max(dr, di)  # both powers of two: S = (sr + i si) / t
    sr, si = sr * (t // dr), si * (t // di)
    nums, den = p.int_form
    # homogeneous Horner: acc = sum_m a_m s^m t^(D - m), the value acc / t^D
    re, im, tp = nums[-1], 0, 1
    for a in reversed(nums[:-1]):
        tp *= t
        re, im = re * sr - im * si + a * tp, re * si + im * sr
    return re, im, den * tp


def eval_coefficient(p: SechPolynomial, x: complex) -> complex:
    """sum a_m S^m at S = sech^2(gamma x), exact at the double S and rounded
    once; raises OverflowError if the value itself leaves double range."""
    re, im, den = _exact(p, x)
    return complex(re / den, im / den)


def optimal_N(x: complex, epsilon: float, gamma) -> int:
    """Truncation index N = round(r / 2 eps), r = |x - sigma|, at least 1."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    r = abs(complex(x) - singularity(gamma))
    return max(1, round(r / (2.0 * epsilon)))


def partial_sum(table: SeriesTable, point: EvalPoint, N: int) -> PartialSum:
    """Sum of the first N terms eps^{2n} u_n(x), with per-term magnitudes."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > table.n_max + 1:
        raise ValueError(f"N = {N} exceeds available orders (n_max = {table.n_max})")
    value = 0.0 + 0.0j
    mags = []
    e, d = point.epsilon.as_integer_ratio()
    for n in range(N):
        re, im, den = _exact(table.u[n], point.x)
        w, wd = e ** (2 * n), d ** (2 * n) * den
        term = complex(re * w / wd, im * w / wd)
        value += term
        mags.append(abs(term))
    return PartialSum(value, N, tuple(mags))


def empirical_optimum(table: SeriesTable, point: EvalPoint) -> int:
    """Index n of the smallest term over all orders, compared exactly."""
    e, d = point.epsilon.as_integer_ratio()
    b, a_b, D_b = 0, None, None
    for n, p in enumerate(table.u):
        re, im, den = _exact(p, point.x)
        a, D = re * re + im * im, den * den  # |u_n(x)|^2 = a / D
        k = 4 * (n - b)  # |eps^{2n} u_n|^2 < |eps^{2b} u_b|^2, cross-multiplied
        if a_b is None or a * D_b * e ** k < a_b * D * d ** k:
            b, a_b, D_b = n, a, D
    return b
