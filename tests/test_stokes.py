import cmath
import hashlib
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdv import bvp, stokes
from fkdv import (
    EvalPoint,
    QuadratureError,
    SolverConfig,
    StokesFrame,
    erf_profile,
    frame_for,
    integrate_multiplier,
    multiplier_rhs,
    optimal_N,
    sech_squared,
    singularity,
    smoothing_rhs,
    stokes_jump,
    tail_amplitude,
)

R = math.pi / 2
LINE = -math.pi / 2


def frame(eps, rho=0.0):
    return StokesFrame(r=R, epsilon=eps, rho=rho)


# --- the forcing term

def test_rhs_peak_magnitude():
    f = frame(0.05)
    v = multiplier_rhs(f, LINE)
    expected = abs(stokes.DEFAULT_LAMBDA) * math.sqrt(R * math.pi) / (
        math.sqrt(2.0) * f.epsilon ** 2.5)
    assert abs(v) == pytest.approx(expected, rel=1e-12)
    # phase e^{3 i pi/2} at the line with lambda < 0: positive imaginary
    assert v.real == pytest.approx(0.0, abs=1e-9 * abs(v))
    assert v.imag > 0


def test_rhs_offline_damping():
    f = frame(0.05)
    peak = abs(multiplier_rhs(f, LINE))
    for s in (+0.5, -0.5):
        expected = peak * math.exp(-(R / f.epsilon) * (1.0 + math.sin(LINE + s)))
        assert abs(multiplier_rhs(f, LINE + s)) == pytest.approx(expected, rel=1e-10)


def test_rhs_linear_in_lambda(monkeypatch):
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", 0.0)
    assert multiplier_rhs(frame(0.05), LINE - 0.2) == 0
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", -10.0)
    v1 = multiplier_rhs(frame(0.05), LINE + 0.1)
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", -20.0)
    v2 = multiplier_rhs(frame(0.05), LINE + 0.1)
    assert v2 == pytest.approx(2.0 * v1)


def test_exponential_localization():
    # |dS/dtheta| half a radian off the line is at least e^{-(r/eps) 0.05}
    # below the peak; assert the weaker e^{-1} factor at eps = 0.05
    f = frame(0.05)
    peak = abs(multiplier_rhs(f, LINE))
    off = abs(multiplier_rhs(f, LINE + 0.5))
    assert off <= peak * math.exp(-(R / f.epsilon) * 0.05)
    assert off <= peak * math.exp(-1.0)


def test_frame_validation():
    with pytest.raises(ValueError):
        StokesFrame(r=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        StokesFrame(r=1.0, epsilon=0.1, rho=1.5)
    # a NaN rho compared false against the bound and built a frame; the
    # late-term forcing then ran all doublings and raised QuadratureError
    with pytest.raises(ValueError, match="rho"):
        StokesFrame(r=1.0, epsilon=0.1, rho=math.nan)


_EPSILON_CHECKS = {
    "EvalPoint": lambda e: EvalPoint(0, e),
    "optimal_N": lambda e: optimal_N(0, e, 1),
    "StokesFrame.epsilon": lambda e: StokesFrame(1.0, e),
    "StokesFrame.r": lambda e: StokesFrame(r=e, epsilon=0.1),
    "stokes_jump": stokes_jump,
    "tail_amplitude": tail_amplitude,
    "SolverConfig": lambda e: SolverConfig(epsilon=e),
    "default_c": lambda e: bvp.default_c(1.0, e),  # default_c(1, nan) was nan
}


@pytest.mark.parametrize("check", _EPSILON_CHECKS)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_epsilon_must_be_positive_and_finite(check, value):
    # eps = inf used to give N = 1, a zero jump and an all-zero tail
    with pytest.raises(ValueError, match="must be positive and finite"):
        _EPSILON_CHECKS[check](value)


@pytest.mark.parametrize("check", ["StokesFrame.epsilon", "stokes_jump"])
def test_epsilon_powers_must_be_normal_doubles(check):
    # eps^2 and eps^2.5 divide the jump and the forcing: 1e-300 once divided
    # by zero and 1e300 overflowed
    for value in (8e-124, 3e123, 1e-300, 1e300):
        with pytest.raises(ValueError, match="must be positive and finite"):
            _EPSILON_CHECKS[check](value)
    for value in (1e-123, 2e123):
        _EPSILON_CHECKS[check](value)
    assert math.isfinite(abs(stokes_jump(1e-123))) and stokes_jump(2e123) != 0


#: every door of the one eps rule, evaluation.check_epsilon
_EPSILON_DOORS = {name: check for name, check in _EPSILON_CHECKS.items()
                  if name != "StokesFrame.r"} | {"frame_for": frame_for}


@pytest.mark.parametrize("door", _EPSILON_DOORS)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e-310,
                                   8e-124, 3e123])
def test_one_epsilon_rule_at_every_door(door, value):
    # 1e-310 once reached round(r / 2 eps) or ceil(L / (eps/20)) as inf and
    # exited as a math failure; every layer now refuses it with one message
    with pytest.raises(ValueError, match=re.escape(
            "epsilon must be positive and finite, with eps^2 and eps^2.5 "
            f"normal doubles, not {value}") + "$"):
        _EPSILON_DOORS[door](value)


@pytest.mark.parametrize("door", [d for d in _EPSILON_DOORS if d != "SolverConfig"])
@pytest.mark.parametrize("value", [1e-123, 1e123])
def test_epsilon_rule_edges_are_accepted(door, value):
    # the BVP refuses both later, for its mode and sample caps
    _EPSILON_DOORS[door](value)


#: every door of the one gamma rule, evaluation.check_gamma
_GAMMA_DOORS = {
    "singularity": singularity,
    "sech_squared": lambda g: sech_squared(0.3, g),
    "optimal_N": lambda g: optimal_N(0.0, 0.1, g),
    "frame_for": lambda g: frame_for(0.1, g),
    "tail_amplitude": lambda g: tail_amplitude(0.1, g),
    "predicted_amplitude": lambda g: bvp.predicted_amplitude(
        SimpleNamespace(epsilon=0.1, gamma=g)),
    "default_c": lambda g: bvp.default_c(g, 0.1),
    "SolverConfig": lambda g: SolverConfig(0.1, gamma=g),
}


@pytest.mark.parametrize("door", _GAMMA_DOORS)
@pytest.mark.parametrize("value", [
    0, -1, -math.inf, math.nan, math.inf,
    pytest.param(Fraction(1, 10 ** 400), id="1e-400"),
    pytest.param(10 ** 400, id="1e400")])
def test_one_gamma_rule_at_every_door(door, value):
    # tail_amplitude(0.1, -1) once returned 8.3e10 and (0.1, inf) 12547.5,
    # default_c(inf, 0.1) inf, gamma = 0 divided by zero, and singularity
    # and sech_squared raised OverflowError for inf; the double of gamma must
    # itself be positive and finite
    with pytest.raises(ValueError, match=re.escape(
            f"gamma must be positive and finite, not {value}") + "$"):
        _GAMMA_DOORS[door](value)


def test_frame_for_rho_bounded():
    f = frame_for(0.05)
    assert f.r == pytest.approx(R)
    assert abs(f.rho) <= 0.5 + 1e-12


# --- closed-form jump

def test_jump_value():
    j = stokes_jump(0.1)
    assert j == pytest.approx(6273.654j, rel=1e-4)
    assert j.real == 0.0 and j.imag > 0


def test_jump_zero_lambda(monkeypatch):
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", 0.0)
    assert stokes_jump(0.1) == 0


@given(st.floats(0.01, 0.5), st.floats(-40.0, -0.1))
@settings(max_examples=40)
def test_jump_scaling_law(eps, lam):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stokes, "DEFAULT_LAMBDA", lam)
        assert abs(stokes_jump(eps / 2)) == pytest.approx(
            4.0 * abs(stokes_jump(eps)), rel=1e-12)


# --- erf profile

def test_erf_profile_limits():
    f = frame(0.05)
    jump = stokes_jump(f.epsilon)
    assert erf_profile(-40.0, f) == pytest.approx(0.0, abs=1e-12 * abs(jump))
    assert erf_profile(+40.0, f) == pytest.approx(jump, rel=1e-12)
    assert erf_profile(0.0, f) == pytest.approx(jump / 2, rel=1e-12)


# --- integration across the line

def test_profile_matches_closed_jump():
    p = integrate_multiplier(frame(0.05, rho=0.292))
    assert abs(p.jump_numeric / p.jump_closed_form - 1.0) < 1e-2
    assert p.samples[0][1] == 0


def test_profile_flat_for_zero_lambda(monkeypatch):
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", 0.0)
    p = integrate_multiplier(frame(0.05))
    assert p.jump_numeric == 0
    assert all(s == 0 for _, s in p.samples)


def test_profile_midpoint_half_jump():
    p = integrate_multiplier(frame(0.05))
    mid = min(p.samples, key=lambda ts: abs(ts[0] - LINE))[1]
    assert mid == pytest.approx(p.jump_numeric / 2,
                                abs=math.sqrt(0.05) * abs(p.jump_numeric))


def test_jump_deviation_shrinks_with_epsilon():
    devs = []
    for eps in (0.1, 0.05, 0.025):
        p = integrate_multiplier(frame(eps))
        devs.append(abs(p.jump_numeric / p.jump_closed_form - 1.0))
    assert devs[0] <= 0.05
    assert devs[0] > devs[1] > devs[2]


def test_jump_independent_of_rho():
    jumps = [integrate_multiplier(frame(0.05, rho=r)).jump_numeric
             for r in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    ref = jumps[2]
    assert all(abs(j - ref) <= 1e-12 * abs(ref) for j in jumps)


def test_quadrature_against_half_step_oracle(monkeypatch):
    f = frame(0.05)
    b = integrate_multiplier(f).jump_numeric
    monkeypatch.setattr(stokes, "STEPS", 1000)  # read at call time
    half = integrate_multiplier(f)
    assert len(half.samples) == 1001
    assert half.jump_numeric == pytest.approx(b, rel=1e-7)


def test_late_term_integrand_regression():
    # Integrating the verbatim finite-N forcing (slow phases live) recovers
    # the closed-form jump only as eps -> 0; the deficit is O(eps) and
    # rho-dependent. Frozen from the initial run at the default span.
    expected = {0.1: 0.696396, 0.05: 0.829519, 0.025: 0.909288}
    for eps, ratio in expected.items():
        p = integrate_multiplier(frame(eps), integrand="late_term")
        assert abs(p.jump_numeric / p.jump_closed_form) == pytest.approx(
            ratio, abs=2e-3)


def test_profile_pointwise_against_erf():
    f = frame(0.05, rho=0.292)
    p = integrate_multiplier(f)
    jump_mag = abs(p.jump_closed_form)
    sq = math.sqrt(f.epsilon)
    worst = max(abs(s - erf_profile((t - LINE) / sq, f))
                for t, s in p.samples)
    assert worst <= 0.02 * jump_mag


def test_span_must_contain_line():
    with pytest.raises(ValueError):
        integrate_multiplier(frame(0.05), integrand="bogus")


def test_quadrature_nonconvergence_reports_interval(monkeypatch):
    # the message names the panel of the largest local error, two fine steps
    # of 2/4000 wide inside -pi/2 +- 1
    monkeypatch.setattr(stokes, "RTOL", 1e-16)
    monkeypatch.setattr(stokes, "MAX_REFINEMENTS", 1)
    with pytest.raises(QuadratureError,
                       match="after 1 doublings; worst panel theta in ") as err:
        integrate_multiplier(frame(0.05))
    lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]$", str(err.value)).groups())
    assert hi - lo == pytest.approx(2.0 / 2000, abs=2e-6)
    assert -math.pi / 2 - 1 <= lo < hi <= -math.pi / 2 + 1


@pytest.mark.parametrize("integrand", ["smoothing", "late_term"])
def test_resolvable_forcing_converges_with_headroom(integrand):
    # the hardest eps take up to 6 of the 8 doublings on -pi/2 +- 1
    for eps in (0.05, 0.15, 0.3, 1.0, 10.0, 100.0):
        p = integrate_multiplier(frame_for(eps), integrand=integrand)
        assert p.refinements <= stokes.MAX_REFINEMENTS - 2


@pytest.mark.parametrize("epsilon", [1e-14, 1e-10])
def test_unresolvable_forcing_fails_within_the_sample_cap(epsilon):
    # a forcing sqrt(eps / r) wide is lost between the start grid's nodes;
    # the doubling stops at 2000 2^8 + 1 samples, where 14 doublings held
    # about 0.5 GB per array
    with pytest.raises(QuadratureError, match=(
            f"after {stokes.MAX_REFINEMENTS} doublings")):
        integrate_multiplier(frame_for(epsilon))


@pytest.mark.parametrize("rhs", [multiplier_rhs, smoothing_rhs])
def test_rhs_on_array_matches_scalar_calls(rhs):
    f = frame(0.05, rho=0.3)
    th = np.linspace(LINE - 1.5, LINE + 1.5, 3001)
    vec = rhs(f, th)
    assert vec.shape == th.shape
    assert all(v == rhs(f, float(t)) for v, t in zip(vec.tolist(), th))


@pytest.mark.parametrize("integrand, eps, digest", [
    ("smoothing", 0.1, "6f75ad2fb39c890c248a80e2a77aa701e52c89c8d6f0f4191c2d70fc4cef652d"),
    ("smoothing", 0.025, "ffcf4a2aecd421938de9e181602c98ebcb25339d831b19ea38bb778fac3404c8"),
    ("late_term", 0.1, "93f9a7200763a96aecd9a97e52aa5cc6406efc73a68f25747b90d9a58070e0c1"),
    ("late_term", 0.025, "6dbbe17bdc442a711ea406e59acb0dc5c3b04df47071be8a297885ded040317d"),
])
def test_profile_samples_pinned(integrand, eps, digest):
    # taken when the forcing was summed one math/cmath call per node; the
    # array forcing must reproduce those samples bit for bit
    p = integrate_multiplier(frame_for(eps), integrand=integrand)
    assert hashlib.sha256(repr(p.samples).encode()).hexdigest() == digest
    assert all(type(t) is float and type(s) is complex for t, s in p.samples)


@pytest.mark.parametrize("eps, digest", [
    (0.1, "8242b64b0ba419297fcd51dd694092d4ed3b25cf0932f66e928febd1acba5585"),
    (0.025, "85f8e20a05f7a1de92adb58a4244e5e122f27b142c5c84050bdf848c446ef1ec"),
])
def test_profile_csv_rows_pinned(eps, digest):
    # taken when erf_profile rebuilt its constants on every call; computing
    # them once per frame must keep every row bit for bit
    f = frame_for(eps)
    rows = stokes.profile_csv_rows(integrate_multiplier(f), f)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_every_formula_reads_the_one_lambda(monkeypatch):
    # doubling Lam is exact in floating point, so every prediction doubles
    # bit for bit; a copy of the constant held anywhere else would not
    eps, x, theta = 0.1, 0.37, LINE + 0.1
    config = SolverConfig(epsilon=eps)

    def predictions():
        f = frame(eps, rho=0.3)  # fresh: the frame fixes its erf prefactor when built
        return [stokes_jump(eps), tail_amplitude(eps),
                bvp.predicted_amplitude(config), multiplier_rhs(f, theta),
                erf_profile(0.2, f)]

    before = predictions()
    monkeypatch.setattr(stokes, "DEFAULT_LAMBDA", 2 * stokes.DEFAULT_LAMBDA)
    assert predictions() == [2 * v for v in before]


# --- the assembled tail

def test_tail_example_eps_01():
    assert tail_amplitude(0.1) == pytest.approx(1.8896e-3, rel=1e-3)


def test_tail_example_eps_005():
    # 2 * 19.97 * pi / 0.0025 * e^{-10 pi} = 1.1399e-9, super-exponentially
    # below the eps = 0.1 amplitude
    assert tail_amplitude(0.05) == pytest.approx(1.1399e-9, rel=1e-3)


def test_tail_is_sum_of_conjugate_halves():
    # the switched remainder [S] e^{-i (x - sigma)/eps} has size |[S]|
    # e^{-pi/(2 gamma eps)} on the real axis, and with its conjugate it gives
    # the tail's amplitude: the jump and the tail agree within a few ulp
    for eps in (0.05, 0.1, 0.15):
        for gamma in (1, Fraction(3, 2), Fraction(2, 3)):
            half = abs(stokes_jump(eps)) * math.exp(-math.pi / (2 * float(gamma) * eps))
            assert tail_amplitude(eps, gamma) == pytest.approx(2 * half, rel=4e-16)


def test_tail_amplitude_quadruples_then_some():
    # eps -> eps/2 multiplies by 4 e^{-pi/(2 eps)}-fold extra decay
    assert tail_amplitude(0.05) / tail_amplitude(0.1) < (0.5) ** 4


def test_smoothing_rhs_is_peak_of_late_term_rhs():
    f = frame(0.07, rho=0.4)
    assert smoothing_rhs(f, LINE) == pytest.approx(multiplier_rhs(f, LINE),
                                                   rel=1e-12)


#: tolerances of the gamma map, fixed before it was measured: the amplitude
#: and the jump to a few ulps, r/eps and rho (of size 10 to 30 and 1) to 1e-13
MAP_RTOL, MAP_ATOL = 2e-15, 1e-13


@pytest.mark.parametrize("gamma", [1.5, 2 / 3, 2.0])
@pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.12])
def test_stokes_layer_is_the_gamma_one_layer_mapped(epsilon, gamma):
    # u = gamma^2 U(gamma x; gamma eps) needs no map in this layer: each
    # formula at (eps, gamma) is already U's at gamma eps, in closed form
    assert tail_amplitude(epsilon, gamma) == pytest.approx(
        gamma ** 2 * tail_amplitude(gamma * epsilon, 1), rel=MAP_RTOL, abs=0)
    # the jump, eps^-2 Lam pi (-i), carries no gamma: U's times gamma^2
    assert stokes_jump(epsilon) == pytest.approx(
        gamma ** 2 * stokes_jump(gamma * epsilon), rel=MAP_RTOL, abs=0)
    # the frame's r/eps and rho, all the forcing's damping and phase read
    u_frame, unit_frame = frame_for(epsilon, gamma), frame_for(gamma * epsilon)
    assert u_frame.r / u_frame.epsilon == pytest.approx(
        unit_frame.r / unit_frame.epsilon, rel=0, abs=MAP_ATOL)
    assert u_frame.rho == pytest.approx(unit_frame.rho, rel=0, abs=MAP_ATOL)
