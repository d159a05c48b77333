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
from fkdv.evaluation import _exact


def test_default_c_includes_exact_correction():
    assert default_c(1.0, 0.05) == pytest.approx(4.0 + 16.0 * 0.05**2)
    assert default_c(2.0, 0.1) == pytest.approx(16.0 + 256.0 * 0.01)


def test_config_defaults():
    # the config is the problem alone; sweep samples at h = eps/20 by default
    assert [f.name for f in dataclasses.fields(SolverConfig) if f.init] == [
        "epsilon", "gamma", "half_length"]
    cfg = SolverConfig(epsilon=0.1)
    assert cfg.half_length >= 10.0 + 20.0 * math.pi * 0.1
    [(_, sol, _)] = sweep([0.1])
    assert len(sol.nodes) - 1 == bvp._five_smooth(round(cfg.half_length / 0.005))


def test_config_is_frozen():
    cfg = SolverConfig(epsilon=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.half_length = 1.0


def _count_solves(monkeypatch) -> list:
    calls = []
    real_solve = bvp.solve
    monkeypatch.setattr(bvp, "solve", lambda *a: calls.append(a) or real_solve(*a))
    return calls


def test_too_coarse_grid_rejected_before_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ResolutionError, match=re.escape(
            "h_factor = 1.0 outside [10, inf): the step h = eps/h_factor "
            "samples 2 pi eps only at h <= eps/10")):
        sweep([0.1], h_factor=1.0)
    assert calls == []


def test_too_short_domain_rejected():
    with pytest.raises(ResolutionError):
        SolverConfig(epsilon=0.1, half_length=5.0)


@pytest.mark.parametrize("field", ["grid_spacing", "half_length"])
@pytest.mark.parametrize("value", [0.0, -0.005, math.inf])
def test_nonpositive_grid_or_domain_rejected(field, value):
    # the grid spacing is sweep's step h = eps/h_factor; h = inf is h_factor 0
    if field == "half_length":
        with pytest.raises(ValueError, match="half_length must be positive"):
            SolverConfig(epsilon=0.1, half_length=value)
    else:
        with pytest.raises(ResolutionError, match=r"h_factor = \S+ outside "
                           r"\[10, inf\)"):
            sweep([0.1], h_factor=0.1 / value if value else math.inf)


@pytest.mark.parametrize("gamma, need", [(0.5, 20.0), (0.1, 100.0)])
def test_domain_must_hold_ten_core_widths(gamma, need):
    # the sech^2(gamma x) core is 1/gamma wide: L >= 10/gamma + 20 pi eps,
    # which the default L meets, rounded up to a whole number of eps/20
    L = need + 20.0 * math.pi * 0.1
    default = SolverConfig(epsilon=0.1, gamma=gamma).half_length
    assert default == math.ceil(L / 0.005) * 0.005 >= L
    with pytest.raises(ResolutionError, match="too short"):
        SolverConfig(epsilon=0.1, gamma=gamma, half_length=0.99 * L)
    assert SolverConfig(epsilon=0.1, gamma=gamma, half_length=L).half_length >= L


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 10.0])
def test_wide_gamma_keeps_the_default_domain(gamma):
    # the default L comes from eps alone; the rule is U's, gamma L >= 10 +
    # 20 pi gamma eps, so a narrow core may sit on a shorter domain
    cfg = SolverConfig(epsilon=0.1, gamma=gamma)
    assert cfg.half_length == SolverConfig(epsilon=0.1).half_length
    need = 10.0 / gamma + 20.0 * math.pi * 0.1
    assert SolverConfig(epsilon=0.1, gamma=gamma, half_length=need).half_length == need
    with pytest.raises(ResolutionError, match=rf"too short at gamma = {gamma}: "
                       r"need L >= \S+ = 10/gamma \+ 20 pi eps") as info:
        SolverConfig(epsilon=0.1, gamma=gamma, half_length=0.99 * need)
    stated = float(re.search(r"need L >= (\S+)", str(info.value))[1])
    assert stated == pytest.approx(need, rel=1e-15)


@pytest.mark.parametrize("epsilon, gamma", [(0.1, 1e300), (0.1, 1e100), (1e80, 1e60)])
def test_eigenvalue_beyond_double_range_rejected(epsilon, gamma):
    # g ** 4 would overflow (raising) or 16 g^4 eps^2 round to inf; the
    # range rule refuses such a gamma first, before L or c is computed
    with pytest.raises(ResolutionError, match=re.escape(
            f"gamma = {gamma} lies outside [2^-64, 2^64]")):
        SolverConfig(epsilon=epsilon, gamma=gamma)


def test_gamma_range_is_checked_before_the_default_domain():
    # with no L given, 2^65 was refused for 4.59e+21 cosine modes and 2^-65
    # for a default L = 1.8e20 it never gave; inside the range the other
    # rules decide: 2^-64's default L holds its core, 2^64's needs 2.3e21 modes
    for gamma in (2.0 ** 65, 2.0 ** -65):
        with pytest.raises(ResolutionError, match=re.escape(
                f"gamma = {gamma} lies outside [2^-64, 2^64]")):
            SolverConfig(0.1, gamma)
    assert SolverConfig(0.1, 2.0 ** -64).n_modes == 77
    with pytest.raises(ResolutionError, match=re.escape(
            f"gamma = {2.0 ** 64}, L = 16.285: 2.295e+21 cosine modes exceed")):
        SolverConfig(0.1, 2.0 ** 64)


@pytest.mark.parametrize("epsilon, gamma, modes, c", [
    (6.2, 1.0, 3053, 619.04), (5e-4, 40.0, 3066, 6410.24)])
def test_eigenvalue_at_the_edge_of_the_mode_cap(epsilon, gamma, modes, c):
    # gamma L <= 3072 pi / 24 with gamma L >= 10 + 20 pi gamma eps bounds
    # gamma eps <= 6.24, so U's c is at most 628 and c <= 628 gamma^2
    cfg = SolverConfig(epsilon=epsilon, gamma=gamma)
    assert cfg.n_modes == modes
    assert math.isfinite(cfg.c_value)
    assert cfg.c_value == default_c(gamma, epsilon) == pytest.approx(c)


@pytest.mark.parametrize("epsilon, step", [(1e80, None), (0.1, 1e-90)])
def test_stencil_beyond_double_range_rejected(monkeypatch, epsilon, step):
    # L = 6.3e81 asks for 4.8e82 modes, h = 1e-90 for 1.6e91 samples: the
    # config or sweep refuses, before any array is built
    calls = _count_solves(monkeypatch)
    with pytest.raises(ResolutionError, match=r"(modes|samples) exceed the cap"):
        sweep([epsilon], h_factor=epsilon / step if step else 20.0)
    assert calls == []


@pytest.mark.parametrize("kwargs, what", [
    (dict(epsilons=[0.1], gamma=1000.0), "1.244e+05 cosine modes"),
    (dict(epsilons=[0.1], half_length=1e6), "7.639e+06 cosine modes"),
    (dict(epsilons=[0.1], half_length=500.0), "3820 cosine modes"),  # gamma L > 402.1
    (dict(epsilons=[1e-6]), "2e+08 samples"),  # M = 77, but N = L/h = 2e8
    # h = eps/h_factor underflows to 0, where L/h raised ZeroDivisionError
    (dict(epsilons=[1e-120], h_factor=1e300), "L = 10.0, h = 0.0: inf samples"),
])
def test_modes_and_samples_are_capped_before_allocating(monkeypatch, kwargs, what):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ResolutionError, match=re.escape(what) + " exceed the cap"):
        sweep(**kwargs)
    assert calls == []


def test_recorded_half_length_is_the_solved_one():
    # 22.003 is not a whole number of steps h = 0.005: it is solved, sampled
    # to and recorded as given; h sets only the sample count, at least round(L/h)
    [(cfg, sol, _)] = sweep([0.15], h_factor=30.0, half_length=22.003)
    assert cfg.half_length == collocation_points(cfg)[-1] == sol.nodes[-1] == 22.003
    assert len(sol.nodes) - 1 >= round(22.003 / 0.005) == 4401
    assert check_window(cfg) == cfg.half_length - 4.0 * math.pi * 0.15


@pytest.mark.parametrize("epsilon", [0.08, 0.10, 0.12, 0.15])
def test_sampling_step_leaves_the_solve_unchanged(epsilon):
    # the default L is 10 + 20 pi eps rounded up to a whole number of eps/20
    # whatever h is, so every h solves the same problem bit for bit
    rows = [sweep([epsilon], h_factor=f)[0] for f in (20, 40, 160)]
    for cfg, sol, meas in rows:
        assert sol.nodes[-1] == bvp.default_half_length(epsilon, 1.0)
        assert np.array_equal(sol.coefficients, rows[0][1].coefficients)
        assert (cfg, meas) == rows[0][::2]


def test_check_window_accepts_long_domain():
    # cosh(g x)^2 overflows a double past g x ~ 355; the core there is ~0
    cfg = SolverConfig(epsilon=0.15, half_length=400.0)
    assert check_window(cfg) == cfg.half_length - 4.0 * math.pi * 0.15


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(3, 2)])
def test_initial_guess_is_the_outer_series_through_u1(gamma):
    # U_0 + (gamma eps)^2 U_1 of the exact gamma = 1 table at U's collocation
    # points, as U's c_value is c_0 + (gamma eps)^2 c_1, at every gamma
    table = build_series(1)
    cfg = SolverConfig(epsilon=0.1, gamma=float(gamma))
    unit = bvp.unit_config(cfg)
    u = initial_guess(cfg)
    assert np.array_equal(u, initial_guess(unit))
    for x, uj in zip(collocation_points(unit), u):
        (r0, _, d0), (r1, _, d1) = _exact(table.u[:2], x, table.gamma)
        exact = r0 / d0 + unit.epsilon ** 2 * (r1 / d1)
        assert abs(uj - exact) <= 8 * math.ulp(exact), x


@pytest.mark.parametrize("sweep_fixture", ["tail_sweep", "tail_sweep_half"])
def test_sweep_row_depends_only_on_its_own_epsilon(request, sweep_fixture):
    results = request.getfixturevalue(sweep_fixture)
    h_factor = {"tail_sweep": 20.0, "tail_sweep_half": 40.0}[sweep_fixture]
    for cfg, sol, meas in results:
        [(cfg1, sol1, meas1)] = sweep([cfg.epsilon], h_factor=h_factor)
        assert cfg1 == cfg
        assert np.array_equal(sol1.u, sol.u)
        assert meas1 == meas


def test_sweep_checks_every_config_before_solving(monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(WindowContaminatedError):
        sweep([0.15, 0.03])
    assert calls == []


@pytest.mark.parametrize("h_factor, error, message", [
    (0.0, ResolutionError, "h_factor = 0.0 outside [10, inf)"),
    (5.0, ResolutionError, "h_factor = 5.0 outside [10, inf)"),
    (1e89, ResolutionError, "samples exceed the cap of 1048576"),
])
def test_sweep_checks_every_step_before_solving(monkeypatch, h_factor, error, message):
    # sweep alone samples, so it alone checks h = eps/h_factor: h_factor once,
    # the sample cap for every eps, all before the first solve (h_factor = 0
    # once raised ZeroDivisionError)
    calls = _count_solves(monkeypatch)
    with pytest.raises(error, match=re.escape(message)):
        sweep([0.15, 0.08], h_factor=h_factor)
    assert calls == []


@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_solve_holds_u_at_its_collocation_points(gamma):
    # no sampling in solve: nodes are x_j = j L/M and u the last Newton
    # iterate's values there, gamma^2 times U's bit for bit
    cfg = SolverConfig(epsilon=0.1, gamma=gamma)
    sol, sol1 = solve(cfg), solve(bvp.unit_config(cfg))
    assert np.array_equal(sol.nodes, collocation_points(cfg))
    assert np.array_equal(sol.u, gamma ** 2 * sol1.u)
    assert np.abs(sol.evaluate(sol.nodes) - sol.u).max() <= 1e-13 * sol.u[0]


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
    sol = GridSolution(x, u, residual_history=(0.0,), coefficients=a,
                       residual_target=0.0)
    assert np.abs(sol.evaluate(x) - u).max() <= 1e-14 * np.abs(u).max()
    assert np.abs(bvp._Collocation(cfg).C @ a - u).max() <= 1e-14 * np.abs(u).max()


def test_symmetric_guess_has_zero_odd_derivatives_at_origin():
    # every cosine mode is even about 0 and about L: u' = u''' = 0 at both ends
    cfg = SolverConfig(epsilon=0.1)
    a = cosine_coefficients(initial_guess(cfg))
    L = cfg.half_length
    sol = GridSolution(np.array([0.0, L]), np.zeros(2), residual_history=(0.0,),
                       coefficients=a, residual_target=0.0)
    t = np.linspace(0.0, 0.5, 11)
    assert np.array_equal(sol.evaluate(-t), sol.evaluate(t))
    k = np.arange(len(a)) * (math.pi / L)
    beyond = np.cos(np.multiply.outer(L + t, k)) @ a  # evaluate refuses x > L
    assert np.abs(sol.evaluate(L - t) - beyond).max() <= 1e-14


def test_evaluate_refuses_x_beyond_the_domain():
    # beyond L the cosine sum is u's periodic even extension, not u: at x =
    # 100 it read 0.0727 on L = 16.285
    cfg = SolverConfig(epsilon=0.1)
    sol, L = solve(cfg), cfg.half_length
    assert sol.evaluate(-L) == sol.evaluate(L)  # measure_tail's last point
    for x in (100.0, -L - 1e-9, np.array([0.0, 2 * L]), L + 1 + 0.5j, math.nan):
        with pytest.raises(ValueError, match=rf"x = \S+ lies beyond the domain "
                                             rf"\|x\| <= L = {L}"):
            sol.evaluate(x)


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
    cfg = SolverConfig(epsilon=0.05, half_length=15.0)
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
    assert f"after {len(history) - 1} Newton steps (smallest {history[best]:.3e}" \
        in str(info.value)


def test_newton_stops_at_max_iters(monkeypatch):
    # eps = 0.1 converges in more than two steps, each a new smallest
    # residual: two steps are taken and the iterate each reaches is evaluated
    monkeypatch.setattr(bvp, "MAX_ITERS", 2)
    with pytest.raises(NonConvergenceError, match="after 2 Newton steps") as info:
        solve(SolverConfig(epsilon=0.1))
    assert len(info.value.history) == 3


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
    # u(x; eps, gamma) = gamma^2 U(gamma x; gamma eps) on L' = gamma L: the
    # narrow wave is solved as U, so it takes the same M = 130 modes and
    # Newton steps, and its coefficients are gamma^2 U's exactly (a scale
    # floor of 1 in place of gamma^2 once left u(0)/gamma^2 2e-9, 5e-5 and
    # 2e-3 off)
    narrow = solve(SolverConfig(epsilon, gamma, half_length=half_length))
    wide = solve(SolverConfig(gamma * epsilon, half_length=gamma * half_length))
    g2 = gamma ** 2
    assert len(narrow.coefficients) == len(wide.coefficients) == 131
    assert np.array_equal(narrow.coefficients, g2 * wide.coefficients)
    assert narrow.residual_history == tuple(gamma ** 4 * r
                                            for r in wide.residual_history)
    assert abs(narrow.u[0] / g2 - wide.u[0]) <= 1e-14


#: (eps, gamma, L, M, samples at h = eps/20, u(0), tail amplitude) as the
#: solver gave them when it carried gamma through its guess, tolerances and
#: rules (git acb67ee)
GAMMA_POINTS = [
    (0.1, 1.5, None, 187, 3376, 4.911933322766097, 0.15857401162605442),
    (0.08, 1.5, None, 173, 3841, 4.8978757734032685, 0.01779412259658388),
    (0.12, 2 / 3, 24.0, 123, 4001, 0.9187800274885497, 1.1584616597216066e-05),
    (0.1, 2.0, None, 249, 3376, 9.448635086415916, 0.66967443970191),
    (0.16, 1.5, None, 230, 2561, 4.801089845498392, 0.6998843153742568),
]


@pytest.mark.parametrize("epsilon, gamma, half_length, modes, samples, u0, "
                         "amplitude", GAMMA_POINTS)
def test_solve_at_gamma_is_the_mapped_unit_solve(epsilon, gamma, half_length,
                                                 modes, samples, u0, amplitude):
    cfg = SolverConfig(epsilon, gamma, half_length=half_length)
    unit = bvp.unit_config(cfg)
    sol, sol1 = solve(cfg), solve(unit)
    g2 = gamma ** 2
    assert cfg.n_modes == unit.n_modes == len(sol.coefficients) - 1 == modes
    nodes, _ = bvp._sample(sol.coefficients, cfg.half_length, epsilon / 20)
    assert len(nodes) == samples and nodes[-1] == cfg.half_length
    assert np.array_equal(sol.coefficients, g2 * sol1.coefficients)
    assert sol.iterations == sol1.iterations
    assert sol.residual_history == tuple(gamma ** 4 * r
                                         for r in sol1.residual_history)
    assert sol.residual_target == gamma ** 4 * sol1.residual_target
    assert sol.u[0] == pytest.approx(u0, rel=1e-13, abs=0)
    assert check_window(cfg) == check_window(unit) / gamma
    meas, meas1 = measure_tail(sol, cfg), measure_tail(sol1, unit)
    assert meas.amplitude_measured == pytest.approx(amplitude, rel=1e-10, abs=0)
    assert meas.amplitude_measured == pytest.approx(
        g2 * meas1.amplitude_measured, rel=1e-10, abs=0)
    assert meas.wavelength_measured == pytest.approx(
        meas1.wavelength_measured / gamma, rel=1e-15, abs=0)


@pytest.mark.parametrize("gamma", [bvp.GAMMA_RANGE, 1 / bvp.GAMMA_RANGE])
def test_the_map_is_exact_at_the_edges_of_the_gamma_range(gamma):
    # a power of two scales every double exactly: at gamma = 2^+-64 the
    # solve, its u, its samples and its tail are U's times gamma^2 bit for bit
    L = bvp.default_half_length(0.1, 1.0)
    cfg = SolverConfig(0.1 / gamma, gamma, half_length=L / gamma)
    unit = bvp.unit_config(cfg)
    assert (unit.epsilon, unit.half_length, unit.n_modes) == (0.1, L, cfg.n_modes)
    sol, sol1 = solve(cfg), solve(unit)
    g2 = gamma ** 2
    assert np.array_equal(sol.coefficients, g2 * sol1.coefficients)
    assert np.array_equal(sol.u, g2 * sol1.u)
    x, u = bvp._sample(sol.coefficients, cfg.half_length, 0.005 / gamma)
    x1, u1 = bvp._sample(sol1.coefficients, L, 0.005)
    assert np.array_equal(x, x1 / gamma) and np.array_equal(u, g2 * u1)
    assert sol.residual_norm == gamma ** 4 * sol1.residual_norm
    meas, meas1 = measure_tail(sol, cfg), measure_tail(sol1, unit)
    assert meas.amplitude_measured == g2 * meas1.amplitude_measured
    assert meas.wavelength_measured == meas1.wavelength_measured / gamma


@pytest.mark.parametrize("gamma", [1e100, 2.0 ** 64 * (1 + 2 ** -52), 1e-100,
                                   2.0 ** -64 * (1 - 2 ** -53)])
def test_gamma_the_map_cannot_carry_is_refused_before_allocating(gamma):
    # gamma eps = 1 and gamma L = 100 meet U's rules (764 modes), but
    # beyond 2^+-64 the map's gamma^4 leaves the double range (1e400 at
    # gamma = 1e100)
    with pytest.raises(ResolutionError, match=re.escape(
            f"gamma = {gamma} lies outside [2^-64, 2^64]")):
        SolverConfig(1.0 / gamma, gamma, half_length=100.0 / gamma)
    assert SolverConfig(1.0, half_length=100.0).n_modes == 764


@pytest.mark.parametrize("epsilon, gamma", [(0.4, 2.0), (1.0, 1.0)])
def test_newton_refuses_the_trivial_branch(epsilon, gamma):
    # Newton meets the residual target here on u = 0, not on the wave
    with pytest.raises(NonConvergenceError,
                       match=r"u\(0\) = .* below the wave's branch") as info:
        solve(SolverConfig(epsilon=epsilon, gamma=gamma))
    history = info.value.history
    assert len(history) < bvp.MAX_ITERS
    assert f"after {len(history) - 1} Newton steps" in str(info.value)


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


def test_non_finite_newton_correction_is_ill_conditioned(monkeypatch):
    # pivots of 5e-324 send the step to inf: it must not reach the iterate
    monkeypatch.setattr(bvp._Collocation, "jacobian",
                        lambda self, u: np.diag(np.full(len(u), 5e-324)))
    with pytest.raises(IllConditionedError, match="^non-finite Newton correction$"):
        solve(SolverConfig(epsilon=0.1))


def test_too_few_modes_fail_the_resolution_check(monkeypatch):
    # half the modes leave the top fiftieth of the spectrum near 1e-6 max|u|
    monkeypatch.setattr(bvp, "MODES_PER_GAMMA", bvp.MODES_PER_GAMMA / 2)
    with pytest.raises(ResolutionError, match="top fiftieth of the spectrum"):
        solve(SolverConfig(epsilon=0.1))


def _refusal_numbers(check, config):
    with pytest.raises((WindowContaminatedError, ResolutionError)) as info:
        check(config)
    return [float(v) for v in re.findall(r"\d+(?:\.\d+)?(?:e[-+]\d+)?", str(info.value))]


#: (gamma, eps, L) at which the window check refuses: gamma = 3/2 on the
#: domain 8.6 once stated x = 12.33, U's window start, for u's 8.22
WINDOW_REFUSALS = [(1.0, 0.03, None), (1.5, 0.03, 8.6), (2 / 3, 0.045, 18.0)]


@pytest.mark.parametrize("gamma, epsilon, half_length", WINDOW_REFUSALS)
def test_window_refusal_states_u_values(gamma, epsilon, half_length):
    # u = gamma^2 U(gamma x): the core and the tail scale by gamma^2, x by
    # 1/gamma; 4 digits are printed, so they agree to 1e-3
    cfg = SolverConfig(epsilon, gamma=gamma, half_length=half_length)
    core, x, _, tail = _refusal_numbers(check_window, cfg)  # _ is the 10%
    u_core, u_x, _, u_tail = _refusal_numbers(check_window, bvp.unit_config(cfg))
    assert core == pytest.approx(gamma ** 2 * u_core, rel=1e-3)
    assert x == pytest.approx(u_x / gamma, abs=0.01)
    assert tail == pytest.approx(gamma ** 2 * u_tail, rel=1e-3)
    if gamma == 1.5:
        assert (core, x, tail) == (3.481e-10, 8.22, 4.826e-11)


@pytest.mark.parametrize("gamma, epsilon, half_length",
                         [(1.5, 0.1, None), (2 / 3, 0.15, 25.0)])
def test_spectrum_refusal_states_u_values(monkeypatch, gamma, epsilon, half_length):
    monkeypatch.setattr(bvp, "MODES_PER_GAMMA", bvp.MODES_PER_GAMMA / 2)
    cfg = SolverConfig(epsilon, gamma=gamma, half_length=half_length)
    M, unit_eps, top, tol, bound = _refusal_numbers(solve, cfg)
    u_numbers = _refusal_numbers(solve, bvp.unit_config(cfg))
    assert [M, unit_eps, tol] == [u_numbers[0], u_numbers[1], u_numbers[3]]
    assert top == pytest.approx(gamma ** 2 * u_numbers[2], rel=1e-3)
    assert bound == pytest.approx(gamma ** 2 * u_numbers[4], rel=1e-3)


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
        assert len(sol.nodes) - 1 >= round(cfg.half_length / (cfg.epsilon / 20))
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
        assert sol5.u[0] == pytest.approx(sol.u[0], rel=1e-10, abs=0), cfg.epsilon
        # the amplitude moved 3.3e-14 (1.4e-9 relative) at eps = 0.08 and at
        # most 7e-12 relative at 0.10-0.15: an absolute bound decides
        assert m5.amplitude_measured == pytest.approx(m.amplitude_measured,
                                                      abs=1e-12), cfg.epsilon


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
    # a cosine tail at k = sqrt(104), the root of eps^2 k^4 - k^2 - c at
    # eps = 0.1, on L = 53 pi/k: mode 53, with u' = 0 at both ends, over a
    # mean and a second harmonic (mode 106) that the projection separates
    k = math.sqrt(104.0)
    cfg = SolverConfig(epsilon=0.1, half_length=53 * math.pi / k)
    a = np.zeros(cfg.n_modes + 1)
    a[[0, 53, 106]] = 3.6e-7, -1e-3, 2e-5
    sol = GridSolution(np.array([0.0, cfg.half_length]), np.zeros(2),
                       residual_history=(0.0,), coefficients=a, residual_target=0.0)
    meas = measure_tail(sol, cfg)
    assert meas.amplitude_measured == pytest.approx(1e-3, rel=1e-6)
    assert meas.value_at_L == pytest.approx(1e-3, rel=1e-6)
    assert meas.mean == pytest.approx(3.6e-7, rel=1e-6)
    assert meas.fit_residual <= 1e-6 * meas.amplitude_measured
    assert meas.wavelength_measured == pytest.approx(2 * math.pi / k, rel=1e-4)


def test_measurement_reads_only_the_coefficients(tail_sweep, tail_sweep_half):
    # the h = eps/20 and eps/40 sweeps sample differently and measure alike,
    # and so does the bare series, with L as its only node besides 0
    for (cfg, sol, m20), (_, sol40, m40) in zip(tail_sweep, tail_sweep_half):
        assert len(sol40.nodes) > len(sol.nodes)
        assert m40 == m20, cfg.epsilon
        bare = GridSolution(np.array([0.0, cfg.half_length]), np.full(2, np.nan),
                            residual_history=(0.0,), coefficients=sol.coefficients,
                            residual_target=0.0)
        assert measure_tail(bare, cfg) == m20, cfg.epsilon


@pytest.mark.parametrize("epsilon", np.round(np.arange(0.08, 0.151, 0.01), 2))
def test_measured_mean_is_the_nonlinear_offset(epsilon):
    # 3u^2 - cu averages A cos^2 to a mean offset 3A^2/(2c) in the tail; at
    # eps = 0.08 the core's outer series, 1.0% of that offset in the window,
    # is taken off first
    cfg = SolverConfig(epsilon)
    meas = measure_tail(solve(cfg), cfg)
    k = bvp.tail_wavenumber(cfg)
    x = cfg.half_length - 4 * math.pi / k * (1 - np.arange(1, 17) / 16)
    S = 1.0 / np.cosh(x) ** 2
    core = np.mean(2 * S + epsilon ** 2 * (30 * S * S - 20 * S))
    offset = 1.5 * meas.amplitude_measured ** 2 / cfg.c_value
    assert meas.mean - core == pytest.approx(offset, rel=1e-2)
    assert abs(meas.value_at_L) == pytest.approx(meas.amplitude_measured, rel=1e-6)


def test_wrong_wavenumber_fails_the_projection(tail_sweep, monkeypatch):
    # a k 1% off leaves a residual of a few percent of the amplitude,
    # above FIT_TOL; the true k leaves at most 2e-4 of it
    for cfg, sol, meas in tail_sweep:
        assert meas.fit_residual <= 2e-4 * meas.amplitude_measured
    true_k = bvp.tail_wavenumber
    monkeypatch.setattr(bvp, "tail_wavenumber", lambda cfg: 1.01 * true_k(cfg))
    for cfg, sol, _ in tail_sweep:
        with pytest.raises(WindowContaminatedError, match="leaves a residual"):
            measure_tail(sol, cfg)


def test_window_contamination_detected():
    # at eps = 0.03 the predicted tail is ~1e-18, far below the sech^2 core
    # at the window start: the measurement window cannot be trusted
    cfg = SolverConfig(epsilon=0.03)
    sol = GridSolution(collocation_points(cfg), initial_guess(cfg),
                       residual_history=(0.0,),
                       coefficients=cosine_coefficients(initial_guess(cfg)),
                       residual_target=0.0)
    with pytest.raises(WindowContaminatedError):
        measure_tail(sol, cfg)


def test_measurement_refuses_a_solution_from_another_domain():
    # the default-L solution read against L + 1.3 once passed its fit and
    # reported the shorter member's amplitude, not the longer one's
    cfg = SolverConfig(epsilon=0.1)
    longer = SolverConfig(epsilon=0.1, half_length=cfg.half_length + 1.3)
    sol = solve(cfg)
    with pytest.raises(ValueError, match=f"L = {cfg.half_length}, the config "
                                         f"at L = {longer.half_length}"):
        measure_tail(sol, longer)
    assert measure_tail(sol, cfg) != measure_tail(solve(longer), longer)


def _measurement(epsilon, amplitude):
    return TailMeasurement(epsilon, amplitude, 0.0, 2 * math.pi * epsilon,
                           0.0, amplitude, 0.0)


def test_fit_exact_on_synthetic_amplitudes():
    lam = 19.97
    meas = [_measurement(e, 2 * lam * math.pi / e**2 * math.exp(-math.pi / (2 * e)))
            for e in (0.08, 0.10, 0.12, 0.15)]
    fit = fit_exponent(meas)
    assert fit.slope == pytest.approx(-math.pi / 2, abs=1e-10)
    assert fit.log_prefactor == pytest.approx(math.log(2 * lam * math.pi), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_requires_four_measurements():
    # rows, not epsilons, once counted: four copies of one eps's row, or two
    # eps twice each, fitted a line exactly (r^2 = 1) and returned its slope
    assert InsufficientDataError is late_terms.InsufficientDataError
    for epsilons in [(0.1,), (0.1,) * 4, (0.1, 0.12) * 2, (0.08, 0.1, 0.12, 0.1)]:
        with pytest.raises(InsufficientDataError, match="4 distinct epsilons"):
            fit_exponent([_measurement(e, 2e3 * math.exp(-math.pi / (2 * e)))
                          for e in epsilons])


def test_fit_flags_bad_data():
    meas = [_measurement(e, a) for e, a in
            ((0.08, 1e-3), (0.10, 9e-3), (0.12, 1.1e-3), (0.15, 2e-3))]
    with pytest.raises(FitQualityError):
        fit_exponent(meas)
