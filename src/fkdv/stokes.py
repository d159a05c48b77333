"""Stokes-multiplier dynamics across the Stokes line and the resulting
exponentially small tail.

Writing chi = x - sigma = r e^{i theta} and truncating the series at
N = r/(2 eps) + rho, the remainder prefactor S obeys a first-order equation
in theta whose forcing is

    dS/dtheta = [Lam sqrt(r pi) / (sqrt(2) eps^{beta+1/2})]
                * exp[-(r/eps) {1 - i e^{i theta} + i theta + i pi/2}]
                * exp[i {-2 rho (theta + pi/2) - theta (beta + 1)}].

The braced exponent has real part (r/eps)(1 + sin theta), so the forcing is
exponentially localized in a wedge of width sqrt(eps/r) around the Stokes
line theta = -pi/2. In the inner zone theta = -pi/2 + sqrt(eps) eta the slow
phase factors collapse to the constant e^{i pi (beta+1)/2} and the integral
becomes an error function; the resulting jump is

    [S] = Lam pi e^{3 i pi / 2} / eps^beta            (beta = 2 here).

Past the Stokes line the switched remainder [S] e^{-i (x - sigma)/eps} has
size |[S]| e^{-pi/(2 gamma eps)} on the real axis; with its conjugate it
gives the real tail, whose amplitude `tail_amplitude` is twice that.

`multiplier_rhs` keeps every factor of the finite-N forcing (the slow phases
included), which is what the per-point examples pin down. `integrate_multiplier`
defaults to the inner-zone normal form: exact damping, phases at their
Stokes-line values. Integrating the verbatim forcing instead (integrand
"late_term") reproduces the same jump only as eps -> 0, with an O(eps)
rho-dependent deficit; see the `integrand` argument.

Both forcings take a float or a numpy array of theta: one array evaluation per
quadrature level. Every exp and cos goes through numpy's complex exp, which
calls libm like `cmath` does; numpy's float exp has SIMD loops that differ in
the last bit and by CPU. The exponent's real part -(r/eps)(1 + sin theta)
is never positive, so no theta needs a guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import check_epsilon, check_gamma, optimal_N, singularity
from .late_terms import BETA


class QuadratureError(ArithmeticError):
    """Adaptive refinement failed to reach the requested tolerance."""


#: the late-term constant Lam of the inner problem; every formula below reads
#: this one Lam, the jump, forcing and tail at call time, the erf profile once
#: per frame (StokesFrame._erf_prefactor, set when the frame is built)
DEFAULT_LAMBDA = -19.97
STOKES_ANGLE = -math.pi / 2
#: steps of the start grid on the span STOKES_ANGLE +- 1, read at call time
STEPS = 2000
#: quadrature tolerance (relative change between doublings) and doubling
#: cap: both integrands take 1 doubling for eps <= 0.1, 2 at 0.15, 3-4 at 0.3
#: and 1-6 from 0.5 to 1e6, so 8 leaves two spare; the last level holds
#: 2000 2^8 + 1 samples, 8 MB per complex array, and an unresolvable forcing
#: (frame_for(1e-14)) fails there in 0.1 s, 60 MB
RTOL = 1e-8
MAX_REFINEMENTS = 8
_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class StokesFrame:
    """Polar frame chi = r e^{i theta} around the upper singularity.

    rho is the bounded truncation offset N - r/(2 eps); optimal truncation
    keeps |rho| <= 1.
    """

    r: float
    epsilon: float
    rho: float = 0.0

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError("r must be positive and finite")
        check_epsilon(self.epsilon)
        if not abs(self.rho) <= 1.0 + 1e-12:  # a NaN rho fails too
            raise ValueError("|rho| must not exceed 1")
        # erf_profile's two frame constants, plain attributes for a fast read;
        # the prefactor is Lam sqrt(pi) e^{i pi (beta+1)/2} / (sqrt(2) eps^beta)
        object.__setattr__(self, "_sqrt_r", math.sqrt(self.r))
        object.__setattr__(self, "_erf_prefactor", (DEFAULT_LAMBDA * _SQRT_PI
                           / (_SQRT2 * self.epsilon ** BETA)) * 1j ** (BETA + 1))


def frame_for(epsilon: float, gamma=1) -> StokesFrame:
    """Frame at the optimal truncation for the point x = 0."""
    r = abs(singularity(gamma))
    N = optimal_N(0.0, epsilon, gamma)
    return StokesFrame(r=r, epsilon=epsilon, rho=N - r / (2 * epsilon))


def _prefactor(frame: StokesFrame) -> float:
    return (DEFAULT_LAMBDA * math.sqrt(frame.r * math.pi)
            / (math.sqrt(2.0) * frame.epsilon ** (BETA + 0.5)))


def multiplier_rhs(frame: StokesFrame, theta: float | np.ndarray):
    """Finite-N remainder forcing dS/dtheta with all phase factors live."""
    braced = 1.0 - 1j * np.exp(1j * theta) + 1j * theta + 1j * math.pi / 2
    slow = -2.0 * frame.rho * (theta + math.pi / 2) - theta * (BETA + 1)
    return _prefactor(frame) * np.exp(-(frame.r / frame.epsilon) * braced
                                      + 1j * slow)


def smoothing_rhs(frame: StokesFrame, theta: float | np.ndarray):
    """Inner-zone normal form of the forcing: exact damping, phases frozen
    at the Stokes line (where the rho factor is exactly 1)."""
    cos = np.exp(1j * (theta - STOKES_ANGLE)).real
    damp = np.exp(-(frame.r / frame.epsilon) * (1.0 - cos) + 0j).real
    return _prefactor(frame) * damp * 1j ** (BETA + 1)


_INTEGRANDS = {"smoothing": smoothing_rhs, "late_term": multiplier_rhs}


@dataclass
class StokesProfile:
    """Sampled multiplier S(theta) plus the closed-form jump for comparison."""

    samples: list[tuple[float, complex]]
    jump_numeric: complex
    jump_closed_form: complex
    refinements: int


def stokes_jump(epsilon: float) -> complex:
    """Closed-form multiplier jump Lam pi e^{i pi (beta+1)/2} / eps^beta.

    For beta = 2 the phase is e^{3 i pi/2} = -i, so a negative Lam gives a
    positive multiple of +i.
    """
    check_epsilon(epsilon)
    return DEFAULT_LAMBDA * math.pi * 1j ** (BETA + 1) / epsilon ** BETA


def integrate_multiplier(frame: StokesFrame,
                         integrand: str = "smoothing") -> StokesProfile:
    """Integrate the multiplier forcing over STOKES_ANGLE +- 1.

    Trapezoid sums on a doubling grid, from STEPS steps, until the total
    changes by at most RTOL (relative) between successive levels, for at
    most MAX_REFINEMENTS doublings; the forcing is evaluated once per level,
    on the start grid and then on the new midpoints. The returned profile is
    sampled on the start grid (taken from the converged fine grid), starting
    from the pre-Stokes constant 0 (no oscillation before the crossing).
    """
    try:
        rhs = _INTEGRANDS[integrand]
    except KeyError:
        raise ValueError(f"unknown integrand {integrand!r}") from None

    lo, hi = STOKES_ANGLE - 1.0, STOKES_ANGLE + 1.0
    n = STEPS
    theta = np.linspace(lo, hi, n + 1)  # the profile's abscissae
    f = rhs(frame, theta)
    h = (hi - lo) / n
    total = h * (f.sum() - 0.5 * (f[0] + f[-1]))
    for level in range(1, MAX_REFINEMENTS + 1):
        n2 = 2 * n
        f2 = np.empty(n2 + 1, dtype=complex)
        f2[0::2] = f
        h2 = (hi - lo) / n2
        # the odd points of np.linspace(lo, hi, n2 + 1), by its own formula
        f2[1::2] = rhs(frame, np.arange(1, n2, 2) * h2 + lo)
        total2 = h2 * (f2.sum() - 0.5 * (f2[0] + f2[-1]))
        converged = abs(total2 - total) <= RTOL * max(abs(total2), 1e-300)
        n, f, h, total = n2, f2, h2, total2
        if converged:
            break
    else:
        coarse = f[0::2]
        panel_err = np.abs(
            0.5 * h * (f[1:-1:2] * 2 + f[0:-2:2] + f[2::2])
            - h * (coarse[:-1] + coarse[1:]))
        j = int(np.argmax(panel_err))
        raise QuadratureError(
            f"no convergence to rtol={RTOL} after {MAX_REFINEMENTS} doublings; "
            f"worst panel theta in [{lo + j * 2 * h:.6f}, {lo + (j + 1) * 2 * h:.6f}]")

    cum = np.zeros(n + 1, dtype=complex)
    np.cumsum(0.5 * h * (f[1:] + f[:-1]), out=cum[1:])
    return StokesProfile(
        # the fine grid repeats theta bit for bit every 2^level points
        samples=list(zip(theta.tolist(), cum[::2 ** level].tolist())),
        jump_numeric=complex(cum[-1]),
        jump_closed_form=stokes_jump(frame.epsilon),
        refinements=level,
    )


def erf_profile(eta: float, frame: StokesFrame) -> complex:
    """Closed-form smoothed multiplier at inner coordinate eta.

    S(eta) = const + (Lam sqrt(pi) / (sqrt(2) eps^beta)) e^{i pi (beta+1)/2}
             * int_{-inf}^{sqrt(r) eta} e^{-s^2/2} ds,  const = 0.

    Tends to 0 as eta -> -inf and to the full closed-form jump as
    eta -> +inf; eta = 0 sits exactly halfway.
    """
    integral = _SQRT_HALF_PI * (1.0 + math.erf(frame._sqrt_r * eta / _SQRT2))
    return frame._erf_prefactor * integral


def tail_amplitude(epsilon: float, gamma=1) -> float:
    """One-sided tail amplitude 2 |[S]| e^{-pi/(2 gamma eps)} = 2 |Lam| pi
    eps^-2 e^{-pi/(2 gamma eps)}, [S] = stokes_jump(eps)."""
    return (2.0 * abs(stokes_jump(epsilon))
            * math.exp(-math.pi / (2.0 * check_gamma(gamma) * epsilon)))


def profile_csv_rows(profile: StokesProfile, frame: StokesFrame):
    """(eta, Re S, Im S, Re S_closed, Im S_closed) rows for plotting."""
    rows = []
    sqeps = math.sqrt(frame.epsilon)
    for theta, s in profile.samples:
        eta = (theta - STOKES_ANGLE) / sqeps
        ref = erf_profile(eta, frame)
        rows.append((eta, s.real, s.imag, ref.real, ref.imag))
    return rows
