"""Direct nonlinear solve of eps^2 u'''' + u'' + 3 u^2 - c u = 0 on [0, L]
and measurement of the exponentially small oscillatory tail.

Space is discretized with centered differences (5-point fourth derivative,
3-point second), closed at both ends by even reflection: u'(0) = u'''(0) = 0
selects the symmetric wave and u'(L) = u'''(L) = 0 truncates the domain at a
stationary point of the tail oscillation, picking the symmetric generalized
solitary wave with the minimal tail. Newton's method with a banded direct
linear solve handles the nonlinearity; c is held fixed at the exact series
eigenvalue c = 4 g^2 + 16 g^4 eps^2 (higher corrections vanish identically)
so the core matches the asymptotic solution at the chosen gamma.

The symmetric wave carries half the one-sided switching amplitude on each
side, so measured tails are compared against |Lam| pi eps^-2 e^{-pi/(2 g eps)}.

Note on tolerances: with double precision the residual sup-norm cannot drop
below roughly macheps * (eps/h^2)^2 * |u| (cancellation in the stiff stencil),
which exceeds the nominal 1e-12 target at practical resolutions. Convergence
is therefore declared at max(NEWTON_TOL, estimated roundoff floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .late_terms import InsufficientDataError
from .stokes import tail_amplitude


class ResolutionError(ValueError):
    """Grid/domain configuration cannot resolve the solution."""


class NonConvergenceError(RuntimeError):
    """Newton iteration exhausted without meeting the residual target."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = tuple(history or ())


class IllConditionedError(RuntimeError):
    """Banded linear solve failed or produced non-finite corrections."""


class WindowContaminatedError(RuntimeError):
    """Measurement window is not clean tail (core influence or bad content)."""


class FitQualityError(RuntimeError):
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
    to eps/20, L to default_half_length and c is always default_c."""

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
        object.__setattr__(self, "c_value", default_c(self.gamma, self.epsilon))
        if self.grid_spacing is None:
            object.__setattr__(self, "grid_spacing", self.epsilon / 20.0)
        if not self.grid_spacing > 0:
            raise ValueError("grid_spacing must be positive")
        if self.half_length is None:
            # round up to a whole number of cells
            n = math.ceil(default_half_length(self.epsilon) / self.grid_spacing)
            object.__setattr__(self, "half_length", n * self.grid_spacing)
        if not self.half_length > 0:
            raise ValueError("half_length must be positive")
        slack = 1.0 + 1e-9
        if self.grid_spacing > self.epsilon / 10.0 * slack:
            raise ResolutionError(
                f"h = {self.grid_spacing} too coarse: need h <= eps/10 = "
                f"{self.epsilon / 10.0} to resolve the 2 pi eps wavelength")
        if self.half_length * slack < default_half_length(self.epsilon):
            raise ResolutionError(
                f"L = {self.half_length} too short: need L >= "
                f"{default_half_length(self.epsilon)}")

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
    h = config.grid_spacing
    M = len(u) - 1
    a4 = config.epsilon ** 2 / h ** 4
    a2 = 1.0 / h ** 2
    off2 = a4
    off1 = -4.0 * a4 + a2
    diag = 6.0 * a4 - 2.0 * a2 + 6.0 * u - config.c_value
    ab = np.zeros((5, M + 1))
    ab[0, 2:] = off2
    ab[1, 1:] = off1
    ab[2, :] = diag
    ab[3, :-1] = off1
    ab[4, :-2] = off2
    # fold ghost columns back inside (even reflection)
    ab[1, 1] += off1      # row 0: ghost -1 -> node 1
    ab[0, 2] += off2      # row 0: ghost -2 -> node 2
    ab[2, 1] += off2      # row 1: ghost -1 -> node 1
    ab[3, M - 1] += off1  # row M: ghost M+1 -> node M-1
    ab[4, M - 2] += off2  # row M: ghost M+2 -> node M-2
    ab[2, M - 1] += off2  # row M-1: ghost M+1 -> node M-1
    return ab


def _residual_floor(u: np.ndarray, config: SolverConfig) -> float:
    h = config.grid_spacing
    umax = float(np.abs(u).max())
    stencil = (16.0 * config.epsilon ** 2 / h ** 4 + 4.0 / h ** 2
               + abs(config.c_value) + 6.0 * umax)
    return 4.0 * np.finfo(float).eps * stencil * max(umax, 1.0)


def initial_guess(config: SolverConfig) -> np.ndarray:
    """Leading-order core 2 g^2 sech^2(g x) with g read off c = 4 g^2."""
    g = math.sqrt(config.c_value) / 2.0
    x = np.arange(config.n_cells + 1) * config.grid_spacing
    with np.errstate(over="ignore"):  # far out cosh -> inf, so the core is 0
        return 2.0 * g * g / np.cosh(g * x) ** 2


def solve(config: SolverConfig, initial: np.ndarray | None = None) -> GridSolution:
    """Newton iteration on the discrete system down to the residual target.

    The target is max(NEWTON_TOL, roundoff floor); quadratic convergence makes
    the approach take a handful of steps from the sech^2 guess. Stalling above
    the target raises NonConvergenceError; a failed or non-finite banded solve
    raises IllConditionedError.
    """
    from scipy.linalg import solve_banded  # lazy: most of import fkdv's time
    M = config.n_cells
    x = np.arange(M + 1) * config.grid_spacing
    u = initial_guess(config) if initial is None else np.asarray(initial, float).copy()
    if len(u) != M + 1:
        raise ValueError("initial guess does not match the grid")

    history = []
    best_u, best_rn = u, math.inf
    stalls = 0
    for it in range(MAX_ITERS):
        F = residual(u, config)
        rn = float(np.abs(F).max())
        history.append(rn)
        target = max(NEWTON_TOL, _residual_floor(u, config))
        if rn <= target:
            return GridSolution(x, u, rn, it, tuple(history), target)
        if rn < 0.7 * best_rn:
            best_u, best_rn, stalls = u.copy(), rn, 0
        else:
            stalls += 1
            # roundoff plateau: residual hovers just above the 1-ulp floor
            if stalls >= 3 and best_rn <= 8.0 * target:
                return GridSolution(x, best_u, best_rn, it, tuple(history), target)
            if stalls >= 6:
                break
        ab = _jacobian_bands(u, config)
        try:
            du = solve_banded((2, 2), ab, -F)
        except Exception as exc:
            raise IllConditionedError(f"banded solve failed: {exc}") from exc
        if not np.all(np.isfinite(du)):
            raise IllConditionedError("non-finite Newton correction")
        u = u + du
    raise NonConvergenceError(
        f"residual {best_rn:.3e} after {MAX_ITERS} iterations "
        f"(target {max(NEWTON_TOL, _residual_floor(u, config)):.3e})",
        history)


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
    core_at_window = 2.0 * g * g / math.cosh(g * window_start) ** 2
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
    """Solve and measure for each epsilon, largest first.

    The grid spacing is eps / h_factor unless grid_spacing is given; a
    half_length of None takes the default domain. Every configuration is
    built and checked (resolution and measurement window) before the first
    solve. The previous solution (interpolated onto the new grid) seeds every
    solve after the first, so the solves are strictly sequential.
    Returns a list of (config, solution, measurement), ascending in epsilon.
    """
    configs = []
    for eps in sorted(epsilons, reverse=True):
        config = SolverConfig(
            epsilon=eps, gamma=gamma, half_length=half_length,
            grid_spacing=eps / h_factor if grid_spacing is None else grid_spacing)
        check_window(config)
        configs.append(config)
    results = []
    prev: GridSolution | None = None
    for config in configs:
        guess = None
        if prev is not None:
            x_new = np.arange(config.n_cells + 1) * config.grid_spacing
            guess = np.interp(x_new, prev.nodes, prev.u, right=0.0)
        sol = solve(config, guess)
        meas = measure_tail(sol, config)
        results.append((config, sol, meas))
        prev = sol
    results.sort(key=lambda t: t[0].epsilon)
    return results
