"""Evaluation of the exact series at real and complex points: exact in
integers at the double S = sech^2(gamma x), each output rounded once, so the
one error is the rounding of S, the problem's own conditioning in x. One
reader, `_exact`, reads a table's orders at a point; it computes S once per
call, and none for zero orders, so an empty sum is 0 even at a pole.

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


def check_gamma(gamma) -> float:
    """The one rule on gamma at the float layers' doors: its double is
    positive and finite, so an exact gamma beyond the double range is refused
    too; returns that double."""
    try:
        g = float(gamma)
    except OverflowError:  # an exact gamma beyond the double range
        g = math.inf
    if 0 < g < math.inf:
        return g
    raise ValueError(f"gamma must be positive and finite, not {gamma}")


@dataclass(frozen=True)
class EvalPoint:
    """A complex evaluation point together with the small parameter."""

    x: complex
    epsilon: float

    def __post_init__(self):
        check_epsilon(self.epsilon)
        x = complex(self.x)
        if not cmath.isfinite(x):
            raise ValueError(f"x must be finite, not {self.x}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class PartialSum:
    value: complex
    term_magnitudes: tuple[float, ...]

    @property
    def N(self) -> int:
        return len(self.term_magnitudes)


def singularity(gamma) -> complex:
    """Upper dominant singularity sigma = i pi / (2 gamma)."""
    return 1j * math.pi / (2 * check_gamma(gamma))


def sech_squared(x: complex, gamma) -> complex:
    """sech^2(gamma x); 0j, the rounded S, where cosh overflows (|Re gamma x| > 710)."""
    try:
        ch = cmath.cosh(check_gamma(gamma) * complex(x))
    except OverflowError:
        return 0j
    if abs(ch) < POLE_THRESHOLD:
        raise PoleProximityError(f"|cosh(gamma x)| = {abs(ch):.3e} at x = {x}")
    sq = ch * ch  # past |Re gamma x| = 355 it overflows: square 1/ch instead
    return 1.0 / sq if cmath.isfinite(sq) else (1.0 / ch) ** 2


def _point(x: complex, gamma) -> tuple[int, int, int]:
    """(sr, si, q) with the double S = sech_squared(x, gamma) = (sr + i si) / 2^q."""
    S = sech_squared(x, gamma)
    (sr, dr), (si, di) = S.real.as_integer_ratio(), S.imag.as_integer_ratio()
    q = max(dr, di).bit_length() - 1
    return sr << (q + 1 - dr.bit_length()), si << (q + 1 - di.bit_length()), q


def _horner(nums, den: int, sr: int, si: int, q: int) -> tuple[int, int, int]:
    """Integers (re, im, den') with sum nums[m] S^m / den = (re + i im) / den'
    exactly at S = (sr + i si) / 2^q; on the real axis (si = 0) im stays 0."""
    # homogeneous Horner: acc = sum_m a_m s^m 2^(q (D - m)), the value acc / 2^(q D)
    re, im, sh = nums[-1], 0, 0
    for a in reversed(nums[:-1]):
        sh += q
        re, im = re * sr - im * si + (a << sh), re * si + im * sr
    return re, im, den << sh


def _exact(polys, x: complex, gamma) -> list[tuple[int, int, int]]:
    """Integers (re, im, den) of each polynomial in polys, sum a_m S^m =
    (re + i im) / den exactly at the one double S = sech_squared(x, gamma);
    an empty polys computes no S, so it reads nothing even at a pole."""
    s = _point(x, gamma) if polys else None
    return [_horner(*p.int_form, *s) for p in polys]


def eval_coefficient(p: SechPolynomial, x: complex) -> complex:
    """sum a_m S^m at S = sech^2(gamma x), exact at the double S and rounded
    once; raises OverflowError if the value itself leaves double range."""
    [(re, im, den)] = _exact((p,), x, p.gamma)
    return complex(re / den, im / den)


def optimal_N(x: complex, epsilon: float, gamma) -> int:
    """Truncation index N = round(r / 2 eps), r = |x - sigma|, at least 1."""
    check_epsilon(epsilon)
    r = abs(complex(x) - singularity(gamma))
    return max(1, round(r / (2.0 * epsilon)))


def partial_sum(table: SeriesTable, point: EvalPoint, N: int) -> PartialSum:
    """Sum of the first N terms eps^{2n} u_n(x), each exact at one S, with magnitudes."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > table.n_max + 1:
        raise ValueError(f"N = {N} exceeds available orders (n_max = {table.n_max})")
    value = 0.0 + 0.0j
    mags = []
    e, d = point.epsilon.as_integer_ratio()
    p2, e2 = 2 * (d.bit_length() - 1), e * e  # eps^2 = e^2 / 2^p2
    w = 1  # e^(2n)
    for n, (re, im, den) in enumerate(_exact(table.u[:N], point.x, table.gamma)):
        wd = den << (p2 * n)
        term = complex(re * w / wd, im * w / wd)
        value += term
        mags.append(abs(term))
        w *= e2
    return PartialSum(value, tuple(mags))


def empirical_optimum(table: SeriesTable, point: EvalPoint) -> int:
    """Index n of the smallest term over all orders, compared exactly at the
    one double S of x; ties keep the first index. Bit lengths decide first,
    and an order is squared only when it can be the new smallest."""
    e, d = point.epsilon.as_integer_ratio()
    p4, e4 = 4 * (d.bit_length() - 1), e ** 4  # eps^4 = e^4 / 2^p4
    b, a_b, D_b, ek = 0, None, None, 1  # ek = e^(4 (n - b))
    for n, (re, im, den) in enumerate(_exact(table.u, point.x, table.gamma)):
        if a_b is not None:
            ek *= e4
            # |eps^{2n} u_n|^2 < |eps^{2b} u_b|^2, cross-multiplied: L < R with
            # L = a D_b ek, a = re^2 + im^2, and R = a_b D 2^sh, D = den^2. A
            # product of nonzero x, y has bl x + bl y - 1 or bl x + bl y bits,
            # and a nonzero a has 2t - 1 to 2t + 1, t = max(bl re, bl im); so
            # L has nl - 3 to nl + 1 bits and R has nr - 2 to nr. Only
            # nr - 3 <= nl <= nr + 3 needs the products, and so does a zero
            # term, which has no such lower bound.
            sh = p4 * (n - b)
            nl = (2 * max(re.bit_length(), im.bit_length())
                  + D_b.bit_length() + ek.bit_length())
            nr = a_b.bit_length() + 2 * den.bit_length() + sh
            if (re or im) and a_b and not nr - 3 <= nl <= nr + 3:
                if nl > nr:
                    continue
            elif not ((re * re + im * im) * D_b * ek < (a_b * den * den) << sh):
                continue
        b, a_b, D_b, ek = n, re * re + im * im, den * den, 1
    return b
