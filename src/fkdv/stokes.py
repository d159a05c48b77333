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

`multiplier_rhs` keeps every factor of the finite-N forcing (the slow phases
included), which is what the per-point examples pin down. `integrate_multiplier`
defaults to the inner-zone normal form: exact damping, phases at their
Stokes-line values. Integrating the verbatim forcing instead (integrand
"late_term") reproduces the same jump only as eps -> 0, with an O(eps)
rho-dependent deficit; see the `integrand` argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .evaluation import optimal_N, singularity


class ValidityWedgeError(Exception):
    """Forcing evaluated where its exponent would have a large positive
    real part (outside the wedge where the truncated-remainder balance
    holds)."""


class QuadratureError(Exception):
    """Adaptive refinement failed to reach the requested tolerance."""

    def __init__(self, msg, worst_interval=None):
        super().__init__(msg)
        self.worst_interval = worst_interval


DEFAULT_LAMBDA = -19.97
STOKES_ANGLE = -math.pi / 2
#: late-term power shift, forced by the double pole of u_0
BETA = 2


@dataclass(frozen=True)
class StokesFrame:
    """Polar frame chi = r e^{i theta} around the upper singularity.

    rho is the bounded truncation offset N - r/(2 eps); optimal truncation
    keeps |rho| <= 1.
    """

    r: float
    epsilon: float
    rho: float = 0.0
    lambda_const: float = DEFAULT_LAMBDA

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if abs(self.rho) > 1.0 + 1e-12:
            raise ValueError("|rho| must not exceed 1")


def frame_for(epsilon: float, gamma=1,
              lambda_const: float = DEFAULT_LAMBDA) -> StokesFrame:
    """Frame at the optimal truncation for the point x = 0."""
    r = abs(singularity(gamma))
    N = optimal_N(0.0, epsilon, gamma)
    return StokesFrame(r=r, epsilon=epsilon, rho=N - r / (2 * epsilon),
                       lambda_const=lambda_const)


def _prefactor(frame: StokesFrame) -> float:
    return (frame.lambda_const * math.sqrt(frame.r * math.pi)
            / (math.sqrt(2.0) * frame.epsilon ** (BETA + 0.5)))


def multiplier_rhs(frame: StokesFrame, theta: float) -> complex:
    """Finite-N remainder forcing dS/dtheta with all phase factors live."""
    re_braced = 1.0 + math.sin(theta)
    exponent_re = -(frame.r / frame.epsilon) * re_braced
    # 1 + sin(theta) >= 0 for real theta; guard against misuse all the same
    if exponent_re > 1e-9:
        raise ValidityWedgeError(
            f"exponent real part {exponent_re:.3e} > 0 at theta = {theta}")
    braced = 1.0 - 1j * cmath.exp(1j * theta) + 1j * theta + 1j * math.pi / 2
    slow = (-2.0 * frame.rho * (theta + math.pi / 2)
            - theta * (BETA + 1))
    return _prefactor(frame) * cmath.exp(-(frame.r / frame.epsilon) * braced
                                         + 1j * slow)


def smoothing_rhs(frame: StokesFrame, theta: float) -> complex:
    """Inner-zone normal form of the forcing: exact damping, phases frozen
    at the Stokes line (where the rho factor is exactly 1)."""
    damp = math.exp(-(frame.r / frame.epsilon)
                    * (1.0 - math.cos(theta - STOKES_ANGLE)))
    return _prefactor(frame) * damp * 1j ** (BETA + 1)


_INTEGRANDS = {"smoothing": smoothing_rhs, "late_term": multiplier_rhs}


@dataclass
class StokesProfile:
    """Sampled multiplier S(theta) plus the closed-form jump for comparison."""

    samples: list[tuple[float, complex]]
    jump_numeric: complex
    jump_closed_form: complex
    pre_stokes_constant: complex = 0.0 + 0.0j
    integrand: str = "smoothing"
    refinements: int = 0


def stokes_jump(epsilon: float, lambda_const: float) -> complex:
    """Closed-form multiplier jump Lam pi e^{i pi (beta+1)/2} / eps^beta.

    For beta = 2 the phase is e^{3 i pi/2} = -i, so a negative Lam gives a
    positive multiple of +i.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return lambda_const * math.pi * 1j ** (BETA + 1) / epsilon ** BETA


def integrate_multiplier(frame: StokesFrame,
                         theta_span: tuple[float, float] = (STOKES_ANGLE - 1.0,
                                                            STOKES_ANGLE + 1.0),
                         steps: int = 2000,
                         integrand: str = "smoothing",
                         rtol: float = 1e-8,
                         max_refinements: int = 14) -> StokesProfile:
    """Integrate the multiplier forcing across the Stokes line.

    Trapezoid sums on a doubling grid until the total change agrees to rtol
    between successive levels; the returned profile is sampled on the
    requested `steps` grid (taken from the converged fine grid), starting
    from the pre-Stokes constant 0 (no oscillation before the crossing).
    """
    lo, hi = float(theta_span[0]), float(theta_span[1])
    if not (lo < STOKES_ANGLE < hi):
        raise ValueError("theta_span must contain -pi/2 strictly inside")
    if steps < 1000:
        raise ValueError("steps must be >= 1000")
    try:
        rhs = _INTEGRANDS[integrand]
    except KeyError:
        raise ValueError(f"unknown integrand {integrand!r}") from None

    def sample(n_panels: int) -> np.ndarray:
        th = np.linspace(lo, hi, n_panels + 1)
        return np.array([rhs(frame, t) for t in th])

    n = steps
    f = sample(n)
    h = (hi - lo) / n
    total = h * (f.sum() - 0.5 * (f[0] + f[-1]))
    refinements = 0
    for level in range(1, max_refinements + 1):
        n2 = 2 * n
        f2 = np.empty(n2 + 1, dtype=complex)
        f2[0::2] = f
        th_mid = np.linspace(lo, hi, n2 + 1)[1::2]
        f2[1::2] = [rhs(frame, t) for t in th_mid]
        h2 = (hi - lo) / n2
        total2 = h2 * (f2.sum() - 0.5 * (f2[0] + f2[-1]))
        refinements = level
        converged = abs(total2 - total) <= rtol * max(abs(total2), 1e-300)
        n, f, h, total = n2, f2, h2, total2
        if converged:
            break
    else:
        coarse = f[0::2]
        panel_err = np.abs(
            0.5 * h * (f[1:-1:2] * 2 + f[0:-2:2] + f[2::2])
            - h * (coarse[:-1] + coarse[1:]))
        j = int(np.argmax(panel_err))
        worst = (lo + j * 2 * h, lo + (j + 1) * 2 * h)
        raise QuadratureError(
            f"no convergence to rtol={rtol} after {max_refinements} doublings",
            worst_interval=worst)

    cum = np.concatenate([[0.0 + 0.0j], np.cumsum(0.5 * h * (f[1:] + f[:-1]))])
    stride = n // steps
    th_out = np.linspace(lo, hi, n + 1)[::stride]
    S_out = cum[::stride]
    samples = [(float(t), complex(s)) for t, s in zip(th_out, S_out)]
    return StokesProfile(
        samples=samples,
        jump_numeric=complex(cum[-1]),
        jump_closed_form=stokes_jump(frame.epsilon, frame.lambda_const),
        integrand=integrand,
        refinements=refinements,
    )


def erf_profile(eta: float, frame: StokesFrame) -> complex:
    """Closed-form smoothed multiplier at inner coordinate eta.

    S(eta) = const + (Lam sqrt(pi) / (sqrt(2) eps^beta)) e^{i pi (beta+1)/2}
             * int_{-inf}^{sqrt(r) eta} e^{-s^2/2} ds,  const = 0.

    Tends to 0 as eta -> -inf and to the full closed-form jump as
    eta -> +inf; eta = 0 sits exactly halfway.
    """
    pref = (frame.lambda_const * math.sqrt(math.pi)
            / (math.sqrt(2.0) * frame.epsilon ** BETA)) * 1j ** (BETA + 1)
    integral = math.sqrt(math.pi / 2.0) * (1.0 + math.erf(
        math.sqrt(frame.r) * eta / math.sqrt(2.0)))
    return pref * integral


def one_sided_remainder(x: float, epsilon: float, gamma=1,
                        lambda_const: float = DEFAULT_LAMBDA) -> complex:
    """Remainder switched on past the upper Stokes line: [S] e^{-i(x-sigma)/eps}."""
    sigma = singularity(gamma)
    return (stokes_jump(epsilon, lambda_const)
            * cmath.exp(-1j * (complex(x) - sigma) / epsilon))


def exp_tail(x: float, epsilon: float, gamma=1,
             lambda_const: float = DEFAULT_LAMBDA) -> float:
    """Real tail from the conjugate pair of crossings:
    -(2 Lam pi / eps^2) e^{-pi/(2 gamma eps)} sin(x/eps)."""
    amp = math.copysign(tail_amplitude(epsilon, gamma, lambda_const),
                        -lambda_const)
    return amp * math.sin(x / epsilon)


def tail_amplitude(epsilon: float, gamma=1,
                   lambda_const: float = DEFAULT_LAMBDA) -> float:
    """One-sided tail amplitude 2 |Lam| pi eps^-2 e^{-pi/(2 gamma eps)}."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    g = float(gamma)
    return (2.0 * abs(lambda_const) * math.pi / epsilon ** 2
            * math.exp(-math.pi / (2.0 * g * epsilon)))


def profile_csv_rows(profile: StokesProfile, frame: StokesFrame):
    """(eta, Re S, Im S, Re S_closed, Im S_closed) rows for plotting."""
    rows = []
    sqeps = math.sqrt(frame.epsilon)
    for theta, s in profile.samples:
        eta = (theta - STOKES_ANGLE) / sqeps
        ref = erf_profile(eta, frame)
        rows.append((eta, s.real, s.imag, ref.real, ref.imag))
    return rows
