"""Floating-point evaluation of the exact series at real and complex points.

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

#: beyond ~900 bits the numerator/denominator ratio leaves double range and
#: coefficients are converted through a mantissa * 2^exponent split instead
_PLAIN_CONVERT_BITS = 900


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
    return 1j * math.pi / (2 * float(Fraction(gamma)))


def _coeff_scaled(a: Fraction) -> tuple[float, int]:
    """Exact rational -> (mantissa, exp2) with value = mantissa * 2**exp2."""
    shift = a.numerator.bit_length() - a.denominator.bit_length()
    if abs(shift) < _PLAIN_CONVERT_BITS:
        return a.numerator / a.denominator, 0
    scaled = a / Fraction(2) ** shift
    return scaled.numerator / scaled.denominator, shift


def sech_squared(x: complex, gamma) -> complex:
    ch = cmath.cosh(float(Fraction(gamma)) * complex(x))
    if abs(ch) < POLE_THRESHOLD:
        raise PoleProximityError(f"|cosh(gamma x)| = {abs(ch):.3e} at x = {x}")
    return 1.0 / (ch * ch)


def eval_coefficient(p: SechPolynomial, x: complex) -> complex:
    """Evaluate sum a_m S^m at S = sech^2(gamma x) in complex arithmetic."""
    S = sech_squared(x, p.gamma)
    acc = 0.0 + 0.0j
    for m, a in p.terms():
        mant, exp2 = _coeff_scaled(a)
        term = mant * S**m
        if exp2:
            term = complex(math.ldexp(term.real, exp2), math.ldexp(term.imag, exp2))
        acc += term
    return acc


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
    eps2 = point.epsilon * point.epsilon
    w = 1.0
    for n in range(N):
        term = w * eval_coefficient(table.u[n], point.x)
        value += term
        mags.append(abs(term))
        w *= eps2
    return PartialSum(value, N, tuple(mags))


def empirical_optimum(table: SeriesTable, point: EvalPoint) -> int:
    """Index n of the smallest term magnitude over all available orders."""
    ps = partial_sum(table, point, table.n_max + 1)
    mags = ps.term_magnitudes
    return min(range(len(mags)), key=mags.__getitem__)
