"""Evaluation of the exact series at real and complex points: exact in
integers at the double S = sech^2(gamma x), each output rounded once, so the
one error is the rounding of S, the problem's own conditioning in x.

Every denominator met here other than a table's own is a power of two: a
double's `as_integer_ratio()` always gives one, for eps and for both parts of
S. So every scaling by one of them is done as a shift, never a multiply.

The leading-order solution analytically continued off the real axis has double
poles at x = +-i pi/(2 gamma), +-3 i pi/(2 gamma), ...; evaluation guards
against landing too close to one. Partial sums record per-term magnitudes so
the empirical optimal truncation point can be read off directly.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .series import SechPolynomial, SeriesTable

#: evaluation refuses points with |cosh(gamma x)| below this
POLE_THRESHOLD = 1e-8


class PoleProximityError(ArithmeticError):
    """Evaluation point is numerically indistinguishable from a pole."""


def check_epsilon(epsilon: float) -> None:
    """The one rule on eps at every layer's door: eps > 0 with eps^2.5 a
    normal double, about 9e-124 < eps < 2e123, so that every divisor the
    layers take from eps (2 eps, eps/20, eps^2, eps^2.5) is a normal double."""
    try:  # a numpy scalar's ** would give inf, a float's raises
        e = float(epsilon)
        if 0 < e < math.inf and e ** 2.5 >= sys.float_info.min:
            return
    except OverflowError:
        pass
    raise ValueError("epsilon must be positive and finite, with eps^2 and "
                     f"eps^2.5 normal doubles, not {epsilon}")


@dataclass(frozen=True)
class EvalPoint:
    """A complex evaluation point together with the small parameter."""

    x: complex
    epsilon: float

    def __post_init__(self):
        check_epsilon(self.epsilon)
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
    q = max(dr, di).bit_length() - 1  # S = (sr + i si) / 2^q
    sr, si = sr << (q + 1 - dr.bit_length()), si << (q + 1 - di.bit_length())
    nums, den = p.int_form
    # homogeneous Horner: acc = sum_m a_m s^m 2^(q (D - m)), the value acc / 2^(q D)
    re, im, sh = nums[-1], 0, 0
    for a in reversed(nums[:-1]):
        sh += q
        re, im = re * sr - im * si + (a << sh), re * si + im * sr
    return re, im, den << sh


def eval_coefficient(p: SechPolynomial, x: complex) -> complex:
    """sum a_m S^m at S = sech^2(gamma x), exact at the double S and rounded
    once; raises OverflowError if the value itself leaves double range."""
    re, im, den = _exact(p, x)
    return complex(re / den, im / den)


def optimal_N(x: complex, epsilon: float, gamma) -> int:
    """Truncation index N = round(r / 2 eps), r = |x - sigma|, at least 1."""
    check_epsilon(epsilon)
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
    p2, e2 = 2 * (d.bit_length() - 1), e * e  # eps^2 = e^2 / 2^p2
    w = 1  # e^(2n)
    for n in range(N):
        re, im, den = _exact(table.u[n], point.x)
        wd = den << (p2 * n)
        term = complex(re * w / wd, im * w / wd)
        value += term
        mags.append(abs(term))
        w *= e2
    return PartialSum(value, N, tuple(mags))


def empirical_optimum(table: SeriesTable, point: EvalPoint) -> int:
    """Index n of the smallest term over all orders, compared exactly; ties
    keep the first index."""
    e, d = point.epsilon.as_integer_ratio()
    p4, e4 = 4 * (d.bit_length() - 1), e ** 4  # eps^4 = e^4 / 2^p4
    b, a_b, D_b, ek = 0, None, None, 1  # ek = e^(4 (n - b))
    for n, p in enumerate(table.u):
        re, im, den = _exact(p, point.x)
        a, D = re * re + im * im, den * den  # |u_n(x)|^2 = a / D
        if a_b is None:
            b, a_b, D_b = n, a, D
            continue
        ek *= e4
        # |eps^{2n} u_n|^2 < |eps^{2b} u_b|^2, cross-multiplied: L < R with
        # L = a D_b ek and R = a_b D 2^(p4 (n - b)). A product of nonzero x, y
        # has bit length bl x + bl y - 1 or bl x + bl y, so L has nl - 2 to nl
        # bits and R has nr - 1 to nr; only nr - 1 <= nl <= nr + 2 needs them.
        # A zero term has no such lower bound and takes the exact comparison.
        sh = p4 * (n - b)
        nl = a.bit_length() + D_b.bit_length() + ek.bit_length()
        nr = a_b.bit_length() + D.bit_length() + sh
        if a and a_b and not nr - 1 <= nl <= nr + 2:
            smaller = nl < nr
        else:
            smaller = a * D_b * ek < (a_b * D) << sh
        if smaller:
            b, a_b, D_b, ek = n, a, D, 1
    return b
