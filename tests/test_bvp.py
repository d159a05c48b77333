import dataclasses
import math

import numpy as np
import pytest

from fkdv import (
    FitQualityError,
    GridSolution,
    ResolutionError,
    SolverConfig,
    TailMeasurement,
    WindowContaminatedError,
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
from fkdv.bvp import InsufficientDataError, residual


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
@pytest.mark.parametrize("value", [0.0, -0.005])
def test_nonpositive_grid_or_domain_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(epsilon=0.1, **{field: value})


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
    F = residual(np.zeros(cfg.n_cells + 1), cfg)
    assert np.all(F == 0.0)


def test_symmetric_guess_has_zero_odd_derivatives_at_origin():
    cfg = SolverConfig(epsilon=0.1)
    u = initial_guess(cfg)
    h = cfg.grid_spacing
    # ghosts by reflection make the odd-derivative stencils vanish exactly
    du = (u[1] - u[1]) / (2 * h)
    d3u = (u[2] - 2 * u[1] + 2 * u[1] - u[2]) / (2 * h**3)
    assert du == 0.0 and d3u == 0.0


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


def test_newton_quadratic_phase():
    sol = solve(SolverConfig(epsilon=0.1))
    h = sol.residual_history
    # successive residuals in the pre-floor phase follow r' <= C r^2
    ratios = [h[k + 1] / h[k] ** 2 for k in range(len(h) - 2)]
    assert all(r < 10.0 for r in ratios)


def test_discretization_second_order(tail_sweep, tail_sweep_half):
    cfg, sol, _ = tail_sweep[1]  # eps = 0.10
    cfg2, sol2, _ = tail_sweep_half[1]
    cfg4 = SolverConfig(epsilon=cfg.epsilon, grid_spacing=cfg.grid_spacing / 4,
                        half_length=cfg.half_length)
    sol4 = solve(cfg4)
    d1 = abs(sol.u[0] - sol2.u[0])
    d2 = abs(sol2.u[0] - sol4.u[0])
    assert d1 / d2 == pytest.approx(4.0, abs=1.5)


def test_interior_residual_small(tail_sweep):
    cfg, sol, _ = tail_sweep[0]
    F = residual(sol.u, cfg)
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
    x = np.arange(cfg.n_cells + 1) * cfg.grid_spacing
    sol = GridSolution(x, initial_guess(cfg), 0.0, 0)
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
