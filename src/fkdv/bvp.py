"""Direct nonlinear solve of eps^2 u'''' + u'' + 3 u^2 - c u = 0 on [0, L]
and measurement of the exponentially small oscillatory tail.

Space is discretized with centered differences (5-point fourth derivative,
3-point second), closed at both ends by even reflection: u'(0) = u'''(0) = 0
selects the symmetric wave and u'(L) = u'''(L) = 0 truncates the domain at a
stationary point of the tail oscillation (so the tail depends on L mod pi
eps). Newton's method handles the nonlinearity, each step one LAPACK gbsv
call (banded LU with partial pivoting) on the Jacobian built in gbsv's band
storage; c is held fixed at the exact series eigenvalue
c = 4 g^2 + 16 g^4 eps^2 (higher corrections vanish identically) so the core
matches the asymptotic solution at the chosen gamma. Every solve starts from
the outer series to the same order, u_0 + eps^2 u_1: a result depends only
on its own eps, gamma, L and h.

The symmetric wave carries half the one-sided switching amplitude on each
side, so measured tails are compared against |Lam| pi eps^-2 e^{-pi/(2 g eps)}.

Note on tolerances: with double precision the residual sup-norm cannot drop
below roughly macheps * (eps/h^2)^2 * |u| (cancellation in the stiff stencil),
which exceeds the nominal 1e-12 target at practical resolutions. Convergence
is therefore declared at max(NEWTON_TOL, estimated roundoff floor), and only
on the wave's branch u(0) >= gamma^2 (half the peak 2 gamma^2; u = 0 fails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .late_terms import InsufficientDataError
from .stokes import tail_amplitude


class ResolutionError(ValueError):
    """Grid/domain configuration cannot resolve the solution."""


class NonConvergenceError(ArithmeticError):
    """Newton iteration exhausted, or converged off the wave's branch."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = tuple(history or ())


class IllConditionedError(ArithmeticError):
    """Non-finite residual, singular Newton matrix or non-finite correction."""


class WindowContaminatedError(ValueError):
    """Measurement window is not clean tail (core influence or bad content)."""


class FitQualityError(ArithmeticError):
    """Regression quality below the reliability threshold."""

    def __init__(self, msg, slope=None, r_squared=None):
        super().__init__(msg)
        self.slope = slope
        self.r_squared = r_squared


def default_c(gamma: float, epsilon: float) -> float:
    """Exact series eigenvalue 4 g^2 + 16 g^4 eps^2 (all higher orders are 0)."""
    g = float(gamma)
    return 4.0 * g * g + 16.0 * g ** 4 * epsilon * epsilon


def default_half_length(epsilon: float) -> float:
    """Core decay plus at least ten tail oscillations."""
    return 10.0 + 10.0 * (2.0 * math.pi * epsilon)


#: nominal Newton residual target; the roundoff floor usually exceeds it
NEWTON_TOL = 1e-12
MAX_ITERS = 50


@dataclass(frozen=True)
class SolverConfig:
    """Grid and domain for one solve, checked at construction; h defaults
    to eps/20, L to default_half_length and c is always default_c, which
    must be a finite double. L must reach 10 max(1, 1/gamma) + 20 pi eps
    (ten core widths and ten tail wavelengths), default_half_length for
    gamma >= 1; the default L is not widened for gamma < 1."""

    epsilon: float
    gamma: float = 1.0
    half_length: float | None = None
    grid_spacing: float | None = None
    c_value: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        try:
            c = default_c(self.gamma, self.epsilon)
        except OverflowError:  # g ** 4 raises past the double range
            c = math.inf
        if not math.isfinite(c):
            raise ResolutionError(
                f"gamma = {self.gamma}, eps = {self.epsilon}: the eigenvalue "
                "c = 4 g^2 + 16 g^4 eps^2 is not a finite double")
        object.__setattr__(self, "c_value", c)
        if self.grid_spacing is None:
            object.__setattr__(self, "grid_spacing", self.epsilon / 20.0)
        if not 0 < self.grid_spacing < math.inf:
            raise ValueError("grid_spacing must be positive and finite")
        try:  # the stencil coefficient as `residual` computes it
            finite = math.isfinite(self.epsilon ** 2 / self.grid_spacing ** 4)
        except ArithmeticError:
            finite = False
        if not finite:
            raise ResolutionError(
                f"eps = {self.epsilon}, h = {self.grid_spacing}: the stencil "
                "coefficient eps^2/h^4 is not a finite double")
        if self.half_length is None:
            # round up to a whole number of cells
            n = math.ceil(default_half_length(self.epsilon) / self.grid_spacing)
        elif 0 < self.half_length < math.inf:
            n = round(self.half_length / self.grid_spacing)  # the solved L
        else:
            raise ValueError("half_length must be positive and finite")
        object.__setattr__(self, "half_length", n * self.grid_spacing)
        slack = 1.0 + 1e-9
        if self.grid_spacing > self.epsilon / 10.0 * slack:
            raise ResolutionError(
                f"h = {self.grid_spacing} too coarse: need h <= eps/10 = "
                f"{self.epsilon / 10.0} to resolve the 2 pi eps wavelength")
        need = (default_half_length(self.epsilon)  # bit for bit at gamma >= 1
                + 10.0 * (max(1.0, 1.0 / self.gamma) - 1.0))
        if self.half_length * slack < need:
            raise ResolutionError(
                f"L = {self.half_length} too short at gamma = {self.gamma}: "
                f"need L >= {need} = 10 max(1, 1/gamma) + 20 pi eps")

    @property
    def n_cells(self) -> int:
        return int(round(self.half_length / self.grid_spacing))


@dataclass
class GridSolution:
    nodes: np.ndarray
    u: np.ndarray
    residual_norm: float
    iterations: int
    residual_history: tuple[float, ...] = ()
    residual_target: float = 0.0


@dataclass
class TailMeasurement:
    epsilon: float
    amplitude_measured: float
    amplitude_predicted: float
    wavelength_measured: float


def _padded(u: np.ndarray) -> np.ndarray:
    # ghosts by even reflection at both ends: P[k] = u[k-2] extended.
    # u[-k] = u[k] imposes u'(0) = u'''(0) = 0 (symmetric core) and
    # u[M+k] = u[M-k] imposes u'(L) = u'''(L) = 0. A pure sine tail
    # A sin((x - x0)/eps) meets the right-hand closure exactly when
    # cos((L - x0)/eps) = 0, so the measured tail depends on L mod pi eps.
    return np.concatenate([u[2:0:-1], u, u[-2:-4:-1]])


def residual(u: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Discrete residual of the equation at every node, ghosts folded in."""
    h = config.grid_spacing
    P = _padded(u)
    d4 = P[:-4] - 4 * P[1:-3] + 6 * P[2:-2] - 4 * P[3:-1] + P[4:]
    d2 = P[1:-3] - 2 * P[2:-2] + P[3:-1]
    return (config.epsilon ** 2 / h ** 4 * d4 + d2 / h ** 2
            + 3.0 * u * u - config.c_value * u)


def _jacobian_bands(u: np.ndarray, config: SolverConfig) -> np.ndarray:
    """The Newton matrix in LAPACK gbsv band storage with kl = ku = 2:
    ab[4 + i - j, j] = J[i, j], so rows 2-6 hold the five bands (main
    diagonal in row 4) and rows 0-1 are zero room for the LU's pivot fill-in.
    Fortran order, so gbsv factors it in place without a copy."""
    h = config.grid_spacing
    M = len(u) - 1
    a4 = config.epsilon ** 2 / h ** 4
    a2 = 1.0 / h ** 2
    off2 = a4
    off1 = -4.0 * a4 + a2
    diag = 6.0 * a4 - 2.0 * a2 + 6.0 * u - config.c_value
    ab = np.zeros((7, M + 1), order="F")
    ab[2, 2:] = off2
    ab[3, 1:] = off1
    ab[4, :] = diag
    ab[5, :-1] = off1
    ab[6, :-2] = off2
    # fold ghost columns back inside (even reflection)
    ab[3, 1] += off1      # row 0: ghost -1 -> node 1
    ab[2, 2] += off2      # row 0: ghost -2 -> node 2
    ab[4, 1] += off2      # row 1: ghost -1 -> node 1
    ab[5, M - 1] += off1  # row M: ghost M+1 -> node M-1
    ab[6, M - 2] += off2  # row M: ghost M+2 -> node M-2
    ab[4, M - 1] += off2  # row M-1: ghost M+1 -> node M-1
    return ab


def _residual_floor(u: np.ndarray, config: SolverConfig) -> float:
    h = config.grid_spacing
    umax = float(np.abs(u).max())
    stencil = (16.0 * config.epsilon ** 2 / h ** 4 + 4.0 / h ** 2
               + abs(config.c_value) + 6.0 * umax)
    return 4.0 * np.finfo(float).eps * stencil * max(umax, 1.0)


def initial_guess(config: SolverConfig) -> np.ndarray:
    """The outer series through u_1, as c_value is through c_1:
    2 g^2 S + eps^2 g^4 (30 S^2 - 20 S) with S = sech^2(g x)."""
    g, eps = config.gamma, config.epsilon
    x = np.arange(config.n_cells + 1) * config.grid_spacing
    with np.errstate(over="ignore"):  # far out cosh -> inf, so the core is 0
        S = 1.0 / np.cosh(g * x) ** 2
    return 2.0 * g * g * S + eps * eps * g ** 4 * (30.0 * S * S - 20.0 * S)


def _newton_step(u: np.ndarray, F: np.ndarray, config: SolverConfig) -> np.ndarray:
    """The Newton correction du = -J(u)^{-1} F by one LAPACK gbsv call, which
    factors the fresh bands and overwrites -F with du, both in place."""
    # lazy: only tails and compare pay scipy.linalg's ~140 ms import
    from scipy.linalg.lapack import dgbsv
    _, _, du, info = dgbsv(2, 2, _jacobian_bands(u, config), -F,
                           overwrite_ab=1, overwrite_b=1)
    if info != 0:  # > 0: exactly zero pivot U[info-1, info-1]; < 0: bad argument
        raise IllConditionedError(f"banded LU failed: gbsv info = {info}")
    if not np.all(np.isfinite(du)):
        raise IllConditionedError("non-finite Newton correction")
    return du


def solve(config: SolverConfig) -> GridSolution:
    """Newton iteration from initial_guess down to the residual target, so
    the result depends only on the configuration.

    The target is max(NEWTON_TOL, roundoff floor); quadratic convergence makes
    the approach take a handful of steps. Converging off the wave's branch
    u(0) >= gamma^2, or MAX_ITERS steps short of the target, raises
    NonConvergenceError. IllConditionedError is raised for a non-finite
    residual (before any LAPACK call), a nonzero gbsv info (an exactly
    singular Newton matrix) or a non-finite Newton correction.
    """
    x = np.arange(config.n_cells + 1) * config.grid_spacing
    u = initial_guess(config)

    history = []
    for it in range(MAX_ITERS):
        F = residual(u, config)
        rn = float(np.abs(F).max())
        history.append(rn)
        if not math.isfinite(rn):
            raise IllConditionedError(
                f"non-finite residual after {it} Newton steps")
        target = max(NEWTON_TOL, _residual_floor(u, config))
        if rn <= target:
            if not u[0] >= config.gamma ** 2:  # e.g. the trivial u = 0
                raise NonConvergenceError(
                    f"converged to u(0) = {u[0]:.3e} below the wave's branch "
                    f"u(0) >= gamma^2 = {config.gamma ** 2:g} after "
                    f"{len(history)} iterations", history)
            return GridSolution(x, u, rn, it, tuple(history), target)
        u = u + _newton_step(u, F, config)
    raise NonConvergenceError(
        f"residual {rn:.3e} after {len(history)} iterations "
        f"(target {target:.3e})", history)


def _refine_extremum(xs: np.ndarray, us: np.ndarray, k: int) -> float:
    # parabola through the extremal sample and neighbours; |vertex value|
    if k == 0 or k == len(us) - 1:
        return abs(us[k])
    y0, y1, y2 = us[k - 1], us[k], us[k + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return abs(y1)
    return abs(y1 - 0.125 * (y2 - y0) ** 2 / denom)


def predicted_amplitude(config: SolverConfig) -> float:
    """Symmetric-member tail amplitude |Lam| pi eps^-2 e^{-pi/(2 gamma eps)}:
    half the one-sided switching amplitude."""
    return 0.5 * tail_amplitude(config.epsilon, config.gamma)


def check_window(config: SolverConfig) -> float:
    """Core-influence precheck for the measurement window; returns its start.

    The sech^2 core evaluated at the window start must sit below 10% of the
    predicted tail amplitude, otherwise the window is contaminated.
    """
    eps, g = config.epsilon, config.gamma
    predicted = predicted_amplitude(config)
    window_start = config.half_length - 2.0 * (2.0 * math.pi * eps)
    decay = math.exp(-2.0 * g * window_start)  # cosh(g x)^2 overflows past 355
    core_at_window = 8.0 * g * g * decay / (1.0 + decay) ** 2  # 2 g^2 sech^2
    if core_at_window >= 0.1 * predicted:
        raise WindowContaminatedError(
            f"core {core_at_window:.3e} at x = {window_start:.2f} exceeds 10% "
            f"of predicted tail {predicted:.3e}; increase half_length")
    return window_start


def measure_tail(sol: GridSolution, config: SolverConfig) -> TailMeasurement:
    """Amplitude and wavelength over the last two oscillations before L.

    Requires the window to be free of core influence: the sech^2 core at the
    window start must sit below 10% of the predicted tail amplitude.
    Amplitude uses parabolic refinement at the extremal sample so a pure
    sinusoid is measured exactly; wavelength comes from zero crossings.
    """
    eps = config.epsilon
    predicted = predicted_amplitude(config)
    window_start = check_window(config)

    mask = sol.nodes >= window_start - 1e-12
    xs, us = sol.nodes[mask], sol.u[mask]
    if len(xs) < 8:
        raise WindowContaminatedError("window contains too few nodes")
    k = int(np.argmax(np.abs(us)))
    amplitude = _refine_extremum(xs, us, k)
    if amplitude <= 0.0:
        raise WindowContaminatedError("no oscillation found in the window")

    sign_change = np.nonzero(us[:-1] * us[1:] < 0.0)[0]
    if len(sign_change) < 3:
        raise WindowContaminatedError("fewer than three zero crossings in window")
    zeros = [xs[i] - us[i] * (xs[i + 1] - xs[i]) / (us[i + 1] - us[i])
             for i in sign_change]
    wavelength = 2.0 * float(np.mean(np.diff(zeros)))
    expected = 2.0 * math.pi * eps
    if abs(wavelength - expected) > 0.2 * expected:
        raise WindowContaminatedError(
            f"wavelength {wavelength:.4f} departs from 2 pi eps = {expected:.4f} "
            "by more than 20%")
    return TailMeasurement(eps, amplitude, predicted, wavelength)


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    log_prefactor: float
    r_squared: float


def fit_exponent(measurements: list[TailMeasurement]) -> ExponentFit:
    """Regress log(amplitude eps^2) on 1/eps; the model slope is -pi/(2 gamma).

    Requires at least four measurements; raises FitQualityError when the fit
    explains less than 99% of the variance.
    """
    if len(measurements) < 4:
        raise InsufficientDataError("need at least 4 measurements for the fit")
    X = np.array([1.0 / m.epsilon for m in measurements])
    Y = np.array([math.log(m.amplitude_measured * m.epsilon ** 2)
                  for m in measurements])
    A = np.vstack([X, np.ones_like(X)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    fitted = A @ [slope, intercept]
    ss_res = float(((Y - fitted) ** 2).sum())
    ss_tot = float(((Y - Y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.99:
        raise FitQualityError(
            f"r^2 = {r2:.4f} below 0.99; measurements unreliable",
            slope=float(slope), r_squared=r2)
    return ExponentFit(float(slope), float(intercept), r2)


def sweep(epsilons, gamma: float = 1.0, h_factor: float = 20.0,
          half_length: float | None = None, grid_spacing: float | None = None):
    """Solve and measure for each epsilon, in ascending order.

    The grid spacing is eps / h_factor unless grid_spacing is given; a
    half_length of None takes the default domain. Every configuration is
    built and checked (resolution and measurement window) before the first
    solve. Each solve starts from its own initial_guess, so a row does not
    depend on the other epsilons in the list.
    Returns a list of (config, solution, measurement), ascending in epsilon.
    """
    configs = []
    for eps in sorted(epsilons):
        config = SolverConfig(
            epsilon=eps, gamma=gamma, half_length=half_length,
            grid_spacing=eps / h_factor if grid_spacing is None else grid_spacing)
        check_window(config)
        configs.append(config)
    results = []
    for config in configs:
        sol = solve(config)
        results.append((config, sol, measure_tail(sol, config)))
    return results
