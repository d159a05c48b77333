import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fkdv import (
    FitQualityError,
    GridSolution,
    IllConditionedError,
    NonConvergenceError,
    ResolutionError,
    SolverConfig,
    TailMeasurement,
    WindowContaminatedError,
    build_series,
    check_window,
    default_c,
    eval_coefficient,
    fit_exponent,
    initial_guess,
    measure_tail,
    predicted_amplitude,
    solve,
    sweep,
    tail_amplitude,
)
from fkdv import bvp, late_terms
from fkdv.bvp import InsufficientDataError, collocation_points, cosine_coefficients


def test_default_c_includes_exact_correction():
    assert default_c(1.0, 0.05) == pytest.approx(4.0 + 16.0 * 0.05**2)
    assert default_c(2.0, 0.1) == pytest.approx(16.0 + 256.0 * 0.01)


def test_config_defaults():
    cfg = SolverConfig(epsilon=0.1)
    assert cfg.grid_spacing == pytest.approx(0.005)
    assert cfg.half_length >= 10.0 + 20.0 * math.pi * 0.1


def test_config_is_frozen():
    cfg = SolverConfig(epsilon=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid_spacing = 1.0


def test_too_coarse_grid_rejected_before_solve():
    with pytest.raises(ResolutionError):
        SolverConfig(epsilon=0.1, grid_spacing=0.1)


def test_too_short_domain_rejected():
    with pytest.raises(ResolutionError):
        SolverConfig(epsilon=0.1, half_length=5.0)


@pytest.mark.parametrize("field", ["grid_spacing", "half_length"])
@pytest.mark.parametrize("value", [0.0, -0.005, math.inf])
def test_nonpositive_grid_or_domain_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(epsilon=0.1, **{field: value})


@pytest.mark.parametrize("gamma, need", [(0.5, 20.0), (0.1, 100.0)])
def test_domain_must_hold_ten_core_widths(gamma, need):
    # the sech^2(gamma x) core is 1/gamma wide: L >= 10 max(1, 1/gamma) + 20 pi eps
    L = need + 20.0 * math.pi * 0.1
    with pytest.raises(ResolutionError, match=rf"gamma = {gamma}: need L >= "):
        SolverConfig(epsilon=0.1, gamma=gamma)  # the default L is 10 + 20 pi eps
    with pytest.raises(ResolutionError, match="too short"):
        SolverConfig(epsilon=0.1, gamma=gamma, half_length=0.99 * L)
    assert SolverConfig(epsilon=0.1, gamma=gamma, half_length=L).half_length >= L


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 10.0])
def test_wide_gamma_keeps_the_default_domain(gamma):
    cfg = SolverConfig(epsilon=0.1, gamma=gamma)
    assert cfg.half_length == SolverConfig(epsilon=0.1).half_length
    with pytest.raises(ResolutionError, match="too short"):
        SolverConfig(epsilon=0.1, gamma=gamma, half_length=0.99 * cfg.half_length)


@pytest.mark.parametrize("epsilon, gamma", [(0.1, 1e300), (0.1, 1e100), (1e80, 1e60)])
def test_eigenvalue_beyond_double_range_rejected(epsilon, gamma):
    # g ** 4 overflows (raising) or 16 g^4 eps^2 rounds to inf
    with pytest.raises(ResolutionError, match=re.escape(
            f"gamma = {gamma}, eps = {epsilon}: ") + ".* not a finite double"):
        SolverConfig(epsilon=epsilon, gamma=gamma)


@pytest.mark.parametrize("epsilon, grid_spacing", [(1e80, None), (0.1, 1e-90)])
def test_stencil_beyond_double_range_rejected(epsilon, grid_spacing):
    # L = 6.3e81 asks for 4.8e82 modes, h = 1e-90 for 1.6e91 samples: the
    # config itself refuses, before any array is built
    with pytest.raises(ResolutionError, match=r"(modes|samples) exceed the cap"):
        SolverConfig(epsilon=epsilon, grid_spacing=grid_spacing)


@pytest.mark.parametrize("kwargs, what", [
    (dict(epsilon=0.1, gamma=1000.0), "1.244e+05 cosine modes"),
    (dict(epsilon=0.1, half_length=1e6), "7.639e+06 cosine modes"),
    (dict(epsilon=0.1, half_length=500.0), "3820 cosine modes"),  # gamma L > 402.1
    (dict(epsilon=1e-6), "2e+08 samples"),  # M = 77, but N = L/h = 2e8
])
def test_modes_and_samples_are_capped_before_allocating(kwargs, what):
    with pytest.raises(ResolutionError, match=re.escape(what) + " exceed the cap"):
        SolverConfig(**kwargs)


def test_recorded_half_length_is_the_solved_one():
    # 22.003 is not a whole number of steps h = 0.005: it is solved, sampled
    # to and recorded as given; h sets only the sample count round(L/h)
    [(cfg, sol, _)] = sweep([0.15], grid_spacing=0.005, half_length=22.003)
    assert cfg.half_length == collocation_points(cfg)[-1] == sol.nodes[-1] == 22.003
    assert cfg.n_cells == 4401 and len(sol.nodes) - 1 >= cfg.n_cells
    assert check_window(cfg) == cfg.half_length - 4.0 * math.pi * 0.15


@pytest.mark.parametrize("epsilon", [0.08, 0.10, 0.12, 0.15])
def test_sampling_step_leaves_the_solve_unchanged(epsilon):
    # the default L is 10 + 20 pi eps rounded up to a whole number of eps/20
    # whatever h is, so every h solves the same problem bit for bit
    sols = [solve(SolverConfig(epsilon, grid_spacing=epsilon / f))
            for f in (20, 40, 160)]
    for sol in sols:
        assert sol.nodes[-1] == bvp.default_half_length(epsilon)
        assert np.array_equal(sol.coefficients, sols[0].coefficients)


def test_check_window_accepts_long_domain():
    # cosh(g x)^2 overflows a double past g x ~ 355; the core there is ~0
    cfg = SolverConfig(epsilon=0.15, half_length=400.0)
    assert check_window(cfg) == cfg.half_length - 4.0 * math.pi * 0.15


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(3, 2)])
def test_initial_guess_is_the_outer_series_through_u1(gamma):
    # u_0 + eps^2 u_1 of the exact table, as c_value is c_0 + eps^2 c_1
    table = build_series(1, gamma)
    cfg = SolverConfig(epsilon=0.1, gamma=float(gamma))
    u = initial_guess(cfg)
    for x, uj in zip(collocation_points(cfg), u):
        exact = (eval_coefficient(table.u[0], x)
                 + cfg.epsilon ** 2 * eval_coefficient(table.u[1], x)).real
        assert abs(uj - exact) <= 8 * math.ulp(exact), x


@pytest.mark.parametrize("sweep_fixture", ["tail_sweep", "tail_sweep_half"])
def test_sweep_row_depends_only_on_its_own_epsilon(request, sweep_fixture):
    results = request.getfixturevalue(sweep_fixture)
    for cfg, sol, meas in results:
        [(cfg1, sol1, meas1)] = sweep([cfg.epsilon],
                                      grid_spacing=cfg.grid_spacing)
        assert cfg1 == cfg
        assert np.array_equal(sol1.u, sol.u)
        assert meas1 == meas


def test_sweep_checks_every_config_before_solving(monkeypatch):
    calls = []
    real_solve = bvp.solve
    monkeypatch.setattr(bvp, "solve",
                        lambda *a: calls.append(a) or real_solve(*a))
    with pytest.raises(WindowContaminatedError):
        sweep([0.15, 0.03])
    assert calls == []


def test_predicted_amplitude_is_half_the_one_sided_tail():
    for eps, g in ((0.08, 1.0), (0.1, 1.5), (0.15, 1.0)):
        cfg = SolverConfig(epsilon=eps, gamma=g)
        # bit-identical to the closed form |Lam| pi eps^-2 e^{-pi/(2 g eps)}
        assert predicted_amplitude(cfg) == (
            19.97 * math.pi / eps ** 2 * math.exp(-math.pi / (2.0 * g * eps)))
        assert predicted_amplitude(cfg) == 0.5 * tail_amplitude(eps, g)


def test_zero_solution_satisfies_closed_system():
    cfg = SolverConfig(epsilon=0.1)
    _, F = bvp._Collocation(cfg).residual(np.zeros(cfg.n_modes + 1))
    assert np.all(F == 0.0)


def test_cosine_coefficients_interpolate_the_guess():
    # one rfft of the even extension is the DCT-I: both the cosine sum and
    # C a return the collocated values
    cfg = SolverConfig(epsilon=0.1)
    u = initial_guess(cfg)
    a = cosine_coefficients(u)
    x = collocation_points(cfg)
    sol = GridSolution(x, u, 0.0, 0, coefficients=a)
    assert np.abs(sol.evaluate(x) - u).max() <= 1e-14 * np.abs(u).max()
    assert np.abs(bvp._Collocation(cfg).C @ a - u).max() <= 1e-14 * np.abs(u).max()


def test_symmetric_guess_has_zero_odd_derivatives_at_origin():
    # every cosine mode is even about 0 and about L: u' = u''' = 0 at both ends
    cfg = SolverConfig(epsilon=0.1)
    a = cosine_coefficients(initial_guess(cfg))
    L = cfg.half_length
    sol = GridSolution(np.array([0.0, L]), np.zeros(2), 0.0, 0, coefficients=a)
    t = np.linspace(0.0, 0.5, 11)
    assert np.array_equal(sol.evaluate(-t), sol.evaluate(t))
    assert np.abs(sol.evaluate(L - t) - sol.evaluate(L + t)).max() <= 1e-14


def test_sine_tail_even_about_L_iff_stationary():
    # reflection closure at L is exact for A sin((x-x0)/eps) precisely when
    # cos((L-x0)/eps) = 0
    eps, L = 0.1, 16.0
    x0 = L - (math.pi / 2) * eps
    xs = np.linspace(L - 0.5, L, 51)
    tail = np.sin((xs - x0) / eps)
    mirrored = np.sin((2 * L - xs - x0) / eps)
    assert np.allclose(tail, mirrored, atol=1e-12)
    x0_bad = L - 0.3 * eps
    assert not np.allclose(np.sin((xs - x0_bad) / eps),
                           np.sin((2 * L - xs - x0_bad) / eps), atol=1e-3)


def test_solve_matches_series_at_origin():
    cfg = SolverConfig(epsilon=0.05, half_length=15.0, grid_spacing=0.004)
    sol = solve(cfg)
    # series through n = 2: u(0) = 2 + 10 eps^2 + 60 eps^4
    assert sol.u[0] == pytest.approx(2.0 + 10 * 0.05**2 + 60 * 0.05**4, abs=2e-3)
    assert sol.u[0] > 1.0  # did not fall onto the trivial branch


def test_newton_converges_fast_from_cold_start():
    cfg = SolverConfig(epsilon=0.1)
    sol = solve(cfg)
    assert sol.iterations <= 10
    assert sol.residual_norm <= sol.residual_target


@pytest.mark.parametrize("epsilon, gamma", [(0.3, 1.0), (1.0, 2.0), (2.0, 1.5)])
def test_newton_exhausted_states_its_iterations(epsilon, gamma):
    # the smallest residual comes at step 1 or 2 and is never beaten: Newton
    # stops STALL_ITERS steps later, not after MAX_ITERS
    with pytest.raises(NonConvergenceError) as info:
        solve(SolverConfig(epsilon=epsilon, gamma=gamma))
    history = info.value.history
    best = int(np.argmin(history))
    assert best <= 2
    assert len(history) == best + 1 + bvp.STALL_ITERS < bvp.MAX_ITERS
    assert f"after {len(history)} iterations (smallest {history[best]:.3e}" \
        in str(info.value)


def test_newton_stops_at_max_iters(monkeypatch):
    # eps = 0.1 converges in more than two steps, each a new smallest residual
    monkeypatch.setattr(bvp, "MAX_ITERS", 2)
    with pytest.raises(NonConvergenceError, match="after 2 iterations") as info:
        solve(SolverConfig(epsilon=0.1))
    assert len(info.value.history) == 2


def test_newton_converges_after_a_run_without_a_new_best():
    # eps = 0.16, gamma = 3/2 goes 7 steps without beating its starting
    # residual, then converges: the stall stop must leave it room
    sol = solve(SolverConfig(epsilon=0.16, gamma=1.5))
    history = sol.residual_history
    runs = [k - int(np.argmin(history[:k + 1])) for k in range(len(history))]
    assert 7 <= max(runs) < bvp.STALL_ITERS
    assert sol.residual_norm <= sol.residual_target
    assert sol.u[0] >= 1.5 ** 2


@pytest.mark.parametrize("gamma, epsilon, half_length", [
    (0.1, 1.0, 170.0), (0.01, 10.0, 1700.0), (0.001, 100.0, 17000.0)])
def test_narrow_wave_meets_the_gamma_one_tolerances(gamma, epsilon, half_length):
    # u(x; eps, gamma) = gamma^2 U(gamma x; gamma eps) on L' = gamma L, with the
    # same M = 130 modes; a scale floor of 1 in place of gamma^2 met absolute
    # targets and left u(0)/gamma^2 2e-9, 5e-5 and 2e-3 off
    narrow = solve(SolverConfig(epsilon, gamma, half_length=half_length))
    wide = solve(SolverConfig(gamma * epsilon, half_length=gamma * half_length))
    assert len(narrow.coefficients) == len(wide.coefficients) == 131
    assert abs(narrow.u[0] / gamma ** 2 - wide.u[0]) <= 1e-12


@pytest.mark.parametrize("epsilon, gamma", [(0.4, 2.0), (1.0, 1.0)])
def test_newton_refuses_the_trivial_branch(epsilon, gamma):
    # Newton meets the residual target here on u = 0, not on the wave
    with pytest.raises(NonConvergenceError,
                       match=r"u\(0\) = .* below the wave's branch") as info:
        solve(SolverConfig(epsilon=epsilon, gamma=gamma))
    history = info.value.history
    assert len(history) < bvp.MAX_ITERS
    assert f"after {len(history)} iterations" in str(info.value)


def test_collocation_jacobian_applies_the_residual_derivative():
    # the residual is quadratic in a, so J(u) v = (F(a + v) - F(a - v))/2
    # exactly in real arithmetic; the bound is rounding on the largest row
    cfg = SolverConfig(epsilon=0.5, gamma=1.0)
    col = bvp._Collocation(cfg)
    rng = np.random.default_rng(3)
    a = cosine_coefficients(initial_guess(cfg))
    a += 0.01 * rng.standard_normal(len(a))
    v = rng.standard_normal(len(a))
    u, _ = col.residual(a)
    expected = (col.residual(a + v)[1] - col.residual(a - v)[1]) / 2.0
    scale = np.abs(col.C * col.s).sum(axis=1).max() * np.abs(v).max()
    assert np.abs(col.jacobian(u) @ v - expected).max() <= 1e-13 * scale


def test_singular_newton_matrix_is_ill_conditioned(monkeypatch):
    # numpy's LinAlgError is a ValueError: it must not leave solve as one
    monkeypatch.setattr(bvp._Collocation, "jacobian",
                        lambda self, u: np.zeros((len(u), len(u))))
    with pytest.raises(IllConditionedError, match="Newton matrix: Singular matrix"):
        solve(SolverConfig(epsilon=0.1))


def test_non_finite_start_is_refused_before_lapack(monkeypatch):
    def no_jacobian(self, u):
        raise AssertionError("Newton matrix built on a non-finite residual")

    monkeypatch.setattr(bvp._Collocation, "jacobian", no_jacobian)
    start = initial_guess

    def nan_start(config):
        u = start(config)
        u[7] = math.nan
        return u

    monkeypatch.setattr(bvp, "initial_guess", nan_start)
    with pytest.raises(IllConditionedError, match="non-finite residual"):
        solve(SolverConfig(epsilon=0.1))


def test_too_few_modes_fail_the_resolution_check(monkeypatch):
    # half the modes leave the top fiftieth of the spectrum near 1e-6 max|u|
    monkeypatch.setattr(bvp, "MODES_PER_GAMMA", bvp.MODES_PER_GAMMA / 2)
    with pytest.raises(ResolutionError, match="top fiftieth of the spectrum"):
        solve(SolverConfig(epsilon=0.1))


@pytest.mark.parametrize("epsilon", np.round(np.arange(0.05, 0.151, 0.01), 2))
def test_resolution_check_passes_across_the_paper_range(epsilon):
    # the tail's harmonics n k lie inside k_max for some eps of the range
    # (3k = 22.3 at eps = 0.14); the checked band sits at least ten times
    # below the bound on the default domain
    sol = solve(SolverConfig(epsilon=epsilon))
    a = sol.coefficients
    M = len(a) - 1
    top = np.abs(a[M - M // 50:]).max()
    assert top <= 0.1 * bvp.SPECTRUM_TOL * np.abs(sol.u).max()


def test_samples_are_the_cosine_interpolant(tail_sweep):
    # the zero-padded irfft and the direct cosine sum agree at every sample
    for cfg, sol, _ in tail_sweep:
        assert len(sol.nodes) - 1 >= cfg.n_cells
        assert sol.nodes[-1] == cfg.half_length
        assert np.abs(sol.evaluate(sol.nodes) - sol.u).max() <= 1e-13


def test_newton_quadratic_phase():
    sol = solve(SolverConfig(epsilon=0.1))
    h = sol.residual_history
    # successive residuals in the pre-floor phase follow r' <= C r^2
    ratios = [h[k + 1] / h[k] ** 2 for k in range(len(h) - 2)]
    assert all(r < 10.0 for r in ratios)


def test_more_modes_leave_u0_and_the_tail_unchanged(tail_sweep,
                                                   tail_sweep_more_modes):
    # no grid error: 1.25 times the modes move u(0) and A by rounding only
    for (cfg, sol, m), (_, sol5, m5) in zip(tail_sweep, tail_sweep_more_modes):
        assert len(sol5.coefficients) > len(sol.coefficients)
        assert sol5.u[0] == pytest.approx(sol.u[0], rel=1e-10), cfg.epsilon
        assert m5.amplitude_measured == pytest.approx(m.amplitude_measured,
                                                      rel=1e-10), cfg.epsilon


def test_interior_residual_small(tail_sweep):
    cfg, sol, _ = tail_sweep[0]
    _, F = bvp._Collocation(cfg).residual(sol.coefficients)
    assert np.abs(F).max() <= sol.residual_target


def test_measured_wavelength_tracks_2_pi_eps(tail_sweep):
    for cfg, _, meas in tail_sweep:
        expected = 2 * math.pi * cfg.epsilon
        assert abs(meas.wavelength_measured - expected) <= 0.2 * expected
    cfg, _, meas = tail_sweep[0]  # eps = 0.08
    assert meas.wavelength_measured == pytest.approx(2 * math.pi * 0.08, rel=0.05)


def test_tail_amplitude_scale(tail_sweep):
    _, _, meas = tail_sweep[1]  # eps = 0.10
    assert 0.5 * meas.amplitude_predicted <= meas.amplitude_measured \
        <= 2.0 * meas.amplitude_predicted


def test_tail_decays_superpolynomially(tail_sweep):
    by_eps = {round(c.epsilon, 3): m for c, _, m in tail_sweep}
    # far stronger than any power: quartic comparison at a 3/4 ratio in eps
    assert (by_eps[0.08].amplitude_measured / by_eps[0.15].amplitude_measured
            < (0.08 / 0.15) ** 4)


def test_measurement_calibration_synthetic_sine():
    cfg = SolverConfig(epsilon=0.1)
    x = np.arange(cfg.n_cells + 1) * cfg.grid_spacing
    sol = GridSolution(x, 1e-3 * np.sin(x / cfg.epsilon), 0.0, 0)
    meas = measure_tail(sol, cfg)
    assert meas.amplitude_measured == pytest.approx(1e-3, rel=1e-6)
    assert meas.wavelength_measured == pytest.approx(2 * math.pi * 0.1, rel=1e-4)


def test_window_contamination_detected():
    # at eps = 0.03 the predicted tail is ~1e-18, far below the sech^2 core
    # at the window start: the measurement window cannot be trusted
    cfg = SolverConfig(epsilon=0.03)
    sol = GridSolution(collocation_points(cfg), initial_guess(cfg), 0.0, 0)
    with pytest.raises(WindowContaminatedError):
        measure_tail(sol, cfg)


def test_fit_exact_on_synthetic_amplitudes():
    lam = 19.97
    meas = [TailMeasurement(e, 2 * lam * math.pi / e**2 * math.exp(-math.pi / (2 * e)),
                            0.0, 2 * math.pi * e)
            for e in (0.08, 0.10, 0.12, 0.15)]
    fit = fit_exponent(meas)
    assert fit.slope == pytest.approx(-math.pi / 2, abs=1e-10)
    assert fit.log_prefactor == pytest.approx(math.log(2 * lam * math.pi), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_requires_four_measurements():
    assert InsufficientDataError is late_terms.InsufficientDataError
    with pytest.raises(InsufficientDataError):
        fit_exponent([TailMeasurement(0.1, 1e-3, 1e-3, 0.6)])


def test_fit_flags_bad_data():
    meas = [TailMeasurement(e, a, 0.0, 2 * math.pi * e)
            for e, a in ((0.08, 1e-3), (0.10, 9e-3), (0.12, 1.1e-3), (0.15, 2e-3))]
    with pytest.raises(FitQualityError):
        fit_exponent(meas)
