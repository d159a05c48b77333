"""Correctness checks that rest on closed forms, exact identities and an
independent mpmath evaluation, never on fkdv's own checkers or on a stored
copy of earlier output."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np


class CheckFailure(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# series

def check_early_orders(table, gamma: Fraction) -> None:
    """c0 = 4 g^2, c1 = 16 g^4, c_n = 0 for n >= 2; u1 = -20 g^4 S + 30 g^4 S^2."""
    g2, g4 = gamma ** 2, gamma ** 4
    require(table.c[0] == 4 * g2, f"c0 = {table.c[0]}, expected {4 * g2}")
    require(table.c[1] == 16 * g4, f"c1 = {table.c[1]}, expected {16 * g4}")
    require(all(cn == 0 for cn in table.c[2:]), "some c_n with n >= 2 is nonzero")
    require(table.u[0].coeffs == {1: 2 * g2}, "u0 != 2 g^2 S")
    require(table.u[1].coeffs == {1: -20 * g4, 2: 30 * g4},
            f"u1 = {table.u[1].coeffs}, expected -20 g^4 S + 30 g^4 S^2")


def check_gamma_scaling(table, unit_table) -> None:
    """a_{n,m}(g) = g^(2n+2) a_{n,m}(1), exactly, at every order."""
    g = table.gamma
    require(table.n_max == unit_table.n_max, "tables differ in depth")
    for n, (p, q) in enumerate(zip(table.u, unit_table.u)):
        scale = g ** (2 * n + 2)
        require(p.coeffs.keys() == q.coeffs.keys(), f"order {n}: powers differ")
        for m, a in p.coeffs.items():
            require(a == scale * q.coeffs[m], f"a_({n},{m}) breaks gamma scaling")


def check_roundtrip(table, loaded) -> None:
    require(loaded.gamma == table.gamma, "gamma changed in the round trip")
    require(loaded.c == table.c, "c changed in the round trip")
    require(len(loaded.u) == len(table.u), "order count changed in the round trip")
    for n, (p, q) in enumerate(zip(table.u, loaded.u)):
        require(p.coeffs == q.coeffs, f"u_{n} changed in the round trip")


def _mp_sech2_poly(coeffs, gamma, x):
    S = mpmath.sech(gamma * x) ** 2
    return sum(mpmath.mpf(a.numerator) / a.denominator * S ** m
               for m, a in coeffs.items())


def ode_residual(table, N: int, eps, x) -> mpmath.mpf:
    """eps^2 u'''' + u'' + 3u^2 - c u of the sum over n = 0..N, derivatives
    by mpmath's numerical differentiation, c = c0 + eps^2 c1."""
    g = mpmath.mpf(table.gamma.numerator) / table.gamma.denominator
    eps = mpmath.mpf(eps)

    def u(t):
        return sum(eps ** (2 * n) * _mp_sech2_poly(table.u[n].coeffs, g, t)
                   for n in range(N + 1))

    c = sum(mpmath.mpf(cn.numerator) / cn.denominator * eps ** (2 * n)
            for n, cn in enumerate(table.c))
    x = mpmath.mpf(x)
    u0 = u(x)
    return (eps ** 2 * mpmath.diff(u, x, 4) + mpmath.diff(u, x, 2)
            + 3 * u0 ** 2 - c * u0)


def check_residual_scaling(table, xs, orders=(2, 4), eps=0.01,
                           rel_tol=0.02) -> dict[int, float]:
    """The residual of the sum through u_N is O(eps^(2N+2)): halving eps
    divides its largest value over `xs` by 2^(2N+2)."""
    ratios = {}
    with mpmath.workdps(60):
        for N in orders:
            big = max(abs(ode_residual(table, N, eps, x)) for x in xs)
            small = max(abs(ode_residual(table, N, eps / 2, x)) for x in xs)
            ratio = float(big / small)
            expected = 2.0 ** (2 * N + 2)
            ratios[N] = ratio
            require(abs(ratio / expected - 1.0) <= rel_tol,
                    f"residual ratio {ratio:.3f} at N = {N}, expected {expected:g}")
    return ratios


# ---------------------------------------------------------------------------
# evaluation

def mp_partial_sum(table, x: complex, eps: float, N: int):
    """(sum, condition) of sum_{n<N} eps^2n u_n(x) in 40-digit arithmetic;
    condition is the same sum with every term in absolute value, which
    bounds the rounding error of a double-precision evaluation."""
    with mpmath.workdps(40):
        g = mpmath.mpf(table.gamma.numerator) / table.gamma.denominator
        S = mpmath.sech(g * mpmath.mpc(x.real, x.imag)) ** 2
        e2 = mpmath.mpf(eps) ** 2
        total, cond = mpmath.mpc(0), mpmath.mpf(0)
        for n in range(N):
            for m, a in table.u[n].coeffs.items():
                term = e2 ** n * mpmath.mpf(a.numerator) / a.denominator * S ** m
                total += term
                cond += abs(term)
        return complex(total), float(cond)


def check_partial_sum(table, x: complex, eps: float, N: int, value: complex) -> None:
    exact, cond = mp_partial_sum(table, x, eps, N)
    tol = 1e-13 * cond + 1e-14 * abs(exact)
    require(abs(value - exact) <= tol,
            f"partial sum at x = {x}, eps = {eps}, N = {N} is {value}, "
            f"mpmath gives {exact} (tolerance {tol:.2e})")


def truncation_index(x: complex, eps: float, gamma: float) -> int:
    r = abs(x - 1j * math.pi / (2 * gamma))
    return max(1, round(r / (2 * eps)))


def check_empirical_optimum(x: complex, eps: float, gamma: float, n_max: int,
                            index: int) -> None:
    """The smallest term sits where consecutive late terms balance,
    (2n+2)(2n+3) eps^2 = r^2, i.e. n = r/(2 eps) - 5/4, capped at n_max."""
    r = abs(x - 1j * math.pi / (2 * gamma))
    model = min(float(n_max), r / (2 * eps) - 1.25)
    require(abs(index - model) <= 1.5,
            f"smallest term at n = {index}, late-term balance gives {model:.2f}")


# ---------------------------------------------------------------------------
# stokes

def closed_form_profile(eta: float, r: float, eps: float, lam: float) -> complex:
    """Error-function smoothing of the beta = 2 multiplier across the line."""
    pref = lam * math.sqrt(math.pi) / (math.sqrt(2.0) * eps ** 2) * (-1j)
    return pref * math.sqrt(math.pi / 2.0) * (1.0 + math.erf(math.sqrt(r) * eta
                                                             / math.sqrt(2.0)))


def check_smoothing(profile, r: float, eps: float, lam: float) -> None:
    """Jump within 0.15 eps of Lam pi / eps^2 on the -i axis, and the whole
    profile within 2% of the error function."""
    scale = lam * math.pi / eps ** 2
    J = profile.jump_numeric / scale
    require(abs(abs(J) - 1.0) <= 0.15 * eps,
            f"smoothing jump ratio {abs(J):.5f} at eps = {eps}, allowed 1 +- {0.15 * eps:.4f}")
    require(abs(cmath.phase(J) + math.pi / 2) <= 1e-3,
            f"smoothing jump phase {cmath.phase(J):.5f}, expected -pi/2")
    sq = math.sqrt(eps)
    dev = max(abs(s - closed_form_profile((th + math.pi / 2) / sq, r, eps, lam))
              for th, s in profile.samples)
    require(dev <= 0.02 * abs(scale),
            f"profile departs from the error function by {dev / abs(scale):.4f} of the jump")


def check_late_term(profile, eps: float, lam: float) -> None:
    """The verbatim finite-N forcing keeps the jump's phase and carries an
    O(eps) deficit in its size: 0.5 <= |jump| / |Lam pi/eps^2| <= 1."""
    J = profile.jump_numeric / (lam * math.pi / eps ** 2)
    require(0.5 <= abs(J) <= 1.0,
            f"late-term jump ratio {abs(J):.4f} at eps = {eps} outside [0.5, 1]")
    require(abs(cmath.phase(J) + math.pi / 2) <= 1e-2,
            f"late-term jump phase {cmath.phase(J):.4f}, expected -pi/2")


# ---------------------------------------------------------------------------
# bvp

#: core deviation allowed, in units of eps^4 (measured 113-218 for the
#: default sweep on both grids; the next series term is O(eps^4) with an
#: O(100) constant)
CORE_C = 300.0


def check_tail_sweep(results, fit, core_xs) -> None:
    for config, sol, meas in results:
        eps = config.epsilon
        wl = 2 * math.pi * eps
        require(abs(meas.wavelength_measured / wl - 1.0) <= 0.05,
                f"wavelength {meas.wavelength_measured:.5f} at eps = {eps} "
                f"is not within 5% of 2 pi eps")
        predicted = 19.97 * math.pi / eps ** 2 * math.exp(-math.pi / (2 * eps))
        ratio = meas.amplitude_measured / predicted
        require(0.5 <= ratio <= 2.0,
                f"tail amplitude / prediction = {ratio:.3f} at eps = {eps}")
        S = 1.0 / np.cosh(core_xs) ** 2
        core = 2 * S + eps ** 2 * (-20 * S + 30 * S ** 2)
        dev = float(np.abs(np.interp(core_xs, sol.nodes, sol.u) - core).max())
        require(dev <= CORE_C * eps ** 4,
                f"core departs from 2S + eps^2(-20S + 30S^2) by "
                f"{dev / eps ** 4:.1f} eps^4 at eps = {eps}")
    require(abs(fit.slope / (-math.pi / 2) - 1.0) <= 0.02,
            f"tail exponent slope {fit.slope:.4f}, expected -pi/2 within 2%")
    require(fit.r_squared >= 0.99, f"fit r^2 = {fit.r_squared:.4f} < 0.99")
