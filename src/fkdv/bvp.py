"""Direct nonlinear solve of eps^2 u'''' + u'' + 3 u^2 - c u = 0 on [0, L]
and measurement of the exponentially small oscillatory tail.

u is a cosine series u(x) = sum_{m=0}^{M} a_m cos(k_m x), k_m = m pi/L,
collocated at x_j = j L/M (DCT-I). Every mode has u' = u''' = 0 at both
ends: at 0 this selects the symmetric wave, at L it truncates the domain at
a stationary point of the tail oscillation (so the tail depends on L mod pi
eps). eps^2 d^4 + d^2 acts on a_m as the symbol s_m = eps^2 k_m^4 - k_m^2,
so the discretization carries no grid error beyond the truncated spectrum.
Newton's method on the coefficients handles the nonlinearity, each step one
dense `numpy.linalg.solve`; c is held fixed at the exact series eigenvalue
c = 4 g^2 + 16 g^4 eps^2 (higher corrections vanish identically) so the core
matches the asymptotic solution at the chosen gamma. Every solve starts from
the outer series to the same order, u_0 + eps^2 u_1: a result depends only
on its own eps, gamma, L and mode count.

The mode count is a rule, not an option: M = ceil(MODES_PER_GAMMA gamma L /
pi), so k_max ~ MODES_PER_GAMMA gamma follows the core's poles at +-i pi/(2
gamma), which set the spectrum's decay e^{-pi k/(2 gamma)}. Each solution
vouches for it: the top fiftieth of its spectrum, where the series is cut,
must sit below SPECTRUM_TOL max|u|, else ResolutionError. It guards against
too few modes (half of them put it near 1e-6); it does not estimate a change
of 1e-10 that more modes make to u. The grid spacing h sets only where the
solution is sampled, for output and for measure_tail: the solve, L included,
does not read it.

Note on tolerances: an iterate is accepted when the Newton step that reached
it moved u by at most STEP_TOL s and its collocation residual is at most
NEWTON_TOL s^2, s = max(gamma^2, |u|) (under u = gamma^2 U the gamma = 1
floor of 1); quadratic convergence then leaves it about STEP_TOL^2 from the
discrete solution. The residual's roundoff floor, read off Newton steps past
convergence, is 1e-15 to 1e-14 at gamma = 1 (eps = 0.05 to 0.15) and 2e-11
to 7e-11 at gamma = 10 (eps = 0.01, |u| = 200): it grows with |u|^2, as the
target does, and stays far below it. Only the wave's branch u(0) >= gamma^2
(half the peak 2 gamma^2; u = 0 fails) is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import check_epsilon, check_gamma
from .late_terms import InsufficientDataError
from .stokes import tail_amplitude


class ResolutionError(ValueError):
    """Modes, samples or domain cannot resolve the solution."""


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
    g = check_gamma(gamma)
    return 4.0 * g * g + 16.0 * g ** 4 * epsilon * epsilon


def default_half_length(epsilon: float) -> float:
    """Core decay plus ten tail oscillations, 10 + 20 pi eps, rounded up to a
    whole number of eps/20."""
    step = epsilon / 20.0
    return math.ceil((10.0 + 10.0 * (2.0 * math.pi * epsilon)) / step) * step


#: residual target relative to max(gamma^2, |u|)^2
NEWTON_TOL = 1e-12
#: Newton step target relative to max(gamma^2, |u|)
STEP_TOL = 1e-6
MAX_ITERS = 50
#: steps without a new smallest residual before Newton gives up (7 seen in a
#: solve that converged: eps = 0.16, gamma = 3/2)
STALL_ITERS = 10
#: k_max / gamma: M = ceil(MODES_PER_GAMMA gamma L / pi), read at call time
MODES_PER_GAMMA = 24.0
#: bound on max |a_m| over the top fiftieth of the modes, relative to max |u|
SPECTRUM_TOL = 1e-10
#: largest mode count, gamma L <= 3072 pi / 24 = 402.1: a solve holds C, the
#: Newton matrix and LAPACK's copy of it, 3 x 8 (M + 1)^2 bytes (227 MB at the
#: cap), and a Newton step there takes about 0.7 s on one core
MAX_MODES = 3072
#: largest number of output samples N (each array 8 MB)
MAX_SAMPLES = 2 ** 20


@dataclass(frozen=True)
class SolverConfig:
    """Domain, sampling step and eigenvalue for one solve, checked at
    construction. L is half_length as given, else default_half_length, and
    must reach 10 max(1, 1/gamma) + 20 pi eps (ten core widths and ten tail
    wavelengths; the default is not widened for gamma < 1). The sampling
    step h <= eps/10 (default eps/20) is the largest: the sample count is the
    smallest 5-smooth number >= max(round(L/h), M), and h never moves L. c is
    default_c. Modes and samples are capped by MAX_MODES and MAX_SAMPLES
    before anything is allocated."""

    epsilon: float
    gamma: float = 1.0
    half_length: float | None = None
    grid_spacing: float | None = None
    c_value: float = field(init=False)

    def __post_init__(self):
        check_epsilon(self.epsilon)
        check_gamma(self.gamma)
        if self.grid_spacing is None:
            object.__setattr__(self, "grid_spacing", self.epsilon / 20.0)
        if not 0 < self.grid_spacing < math.inf:
            raise ValueError("grid_spacing must be positive and finite")
        if self.half_length is None:
            object.__setattr__(self, "half_length",
                               default_half_length(self.epsilon))
        elif not 0 < self.half_length < math.inf:
            raise ValueError("half_length must be positive and finite")
        slack = 1.0 + 1e-9
        if self.grid_spacing > self.epsilon / 10.0 * slack:
            raise ResolutionError(
                f"h = {self.grid_spacing} too coarse: need h <= eps/10 = "
                f"{self.epsilon / 10.0} to sample the 2 pi eps wavelength")
        need = 10.0 * max(1.0, 1.0 / self.gamma) + 20.0 * math.pi * self.epsilon
        if self.half_length * slack < need:
            raise ResolutionError(
                f"L = {self.half_length} too short at gamma = {self.gamma}: "
                f"need L >= {need} = 10 max(1, 1/gamma) + 20 pi eps")
        modes = MODES_PER_GAMMA * self.gamma * self.half_length / math.pi
        if not modes <= MAX_MODES:
            raise ResolutionError(
                f"gamma = {self.gamma}, L = {self.half_length}: {modes:.4g} "
                f"cosine modes exceed the cap of {MAX_MODES}")
        if not self.half_length / self.grid_spacing <= MAX_SAMPLES:
            raise ResolutionError(
                f"L = {self.half_length}, h = {self.grid_spacing}: "
                f"{self.half_length / self.grid_spacing:.4g} samples exceed "
                f"the cap of {MAX_SAMPLES}")
        # gamma L <= 3072 pi / 24 with L >= 10 max(1, 1/gamma) + 20 pi eps
        # bounds gamma <= 40.2 and gamma eps <= 6.4, so c <= about 1.1e6
        object.__setattr__(self, "c_value", default_c(self.gamma, self.epsilon))

    @property
    def n_cells(self) -> int:
        return int(round(self.half_length / self.grid_spacing))

    @property
    def n_modes(self) -> int:
        """M = ceil(MODES_PER_GAMMA gamma L / pi); L >= 10/gamma keeps it
        at 77 or more."""
        return math.ceil(MODES_PER_GAMMA * self.gamma * self.half_length
                         / math.pi)


@dataclass
class GridSolution:
    """The solution sampled at `nodes` (x_i = i L/N), with its cosine
    coefficients a_m of u = sum a_m cos(m pi x / L) when it came from solve."""

    nodes: np.ndarray
    u: np.ndarray
    residual_norm: float
    iterations: int
    residual_history: tuple[float, ...] = ()
    residual_target: float = 0.0
    coefficients: np.ndarray | None = None

    def evaluate(self, x):
        """The cosine interpolant at x (a float or an array) in [0, L]."""
        k = np.arange(len(self.coefficients)) * (math.pi / self.nodes[-1])
        return np.cos(np.multiply.outer(x, k)) @ self.coefficients


@dataclass
class TailMeasurement:
    epsilon: float
    amplitude_measured: float
    amplitude_predicted: float
    wavelength_measured: float


class _Collocation:
    """The DCT-I collocation of one config: C[j, m] = cos(m pi j / M),
    gathered from the 2M cosines cos(pi q / M), and the symbol s."""

    def __init__(self, config: SolverConfig):
        M = config.n_modes
        j = np.arange(M + 1)
        q = np.outer(j, j)
        q %= 2 * M
        self.C = np.cos(np.arange(2 * M) * (math.pi / M))[q]
        k = j * (math.pi / config.half_length)
        self.s = config.epsilon ** 2 * k ** 4 - k ** 2
        self.c = config.c_value

    def residual(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, F) at the collocation points: u = C a, F = C s a + (3u - c) u."""
        u = self.C @ a
        return u, self.C @ (self.s * a) + (3.0 * u - self.c) * u

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """dF/da = C diag(s) + diag(6u - c) C, entry by entry
        C[j, m] (s_m + 6 u_j - c): one new (M + 1)^2 array."""
        J = np.add.outer(6.0 * u - self.c, self.s)
        J *= self.C
        return J


def collocation_points(config: SolverConfig) -> np.ndarray:
    """x_j = j L / M, j = 0..M."""
    return np.linspace(0.0, config.half_length, config.n_modes + 1)


def cosine_coefficients(values: np.ndarray) -> np.ndarray:
    """a_m with sum_m a_m cos(m pi j / M) = values[j], j = 0..M: one rfft of
    the even extension (a DCT-I)."""
    M = len(values) - 1
    a = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / M
    a[0] /= 2.0
    a[M] /= 2.0
    return a


def initial_guess(config: SolverConfig) -> np.ndarray:
    """The outer series through u_1 at the collocation points, as c_value is
    through c_1: 2 g^2 S + eps^2 g^4 (30 S^2 - 20 S) with S = sech^2(g x)."""
    g, eps = config.gamma, config.epsilon
    x = collocation_points(config)
    with np.errstate(over="ignore"):  # far out cosh -> inf, so the core is 0
        S = 1.0 / np.cosh(g * x) ** 2
    return 2.0 * g * g * S + eps * eps * g ** 4 * (30.0 * S * S - 20.0 * S)


def _sample(a: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(x_i, u(x_i)) at x_i = i L/N, N the smallest 5-smooth integer at or
    above max(n_cells, M), by one zero-padded irfft."""
    N = _five_smooth(max(config.n_cells, len(a) - 1))
    spectrum = np.zeros(N + 1)
    spectrum[:len(a)] = N * a
    spectrum[[0, N]] *= 2.0  # the ends of the DCT-I carry half weight
    u = np.fft.irfft(spectrum, 2 * N)[:N + 1]
    return np.linspace(0.0, config.half_length, N + 1), u


def _five_smooth(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def solve(config: SolverConfig) -> GridSolution:
    """Newton iteration on the cosine coefficients from initial_guess until
    the step and the residual both meet their targets (module docstring), so
    the result depends only on the configuration.

    Converging off the wave's branch u(0) >= gamma^2, STALL_ITERS steps
    without a new smallest residual, or MAX_ITERS steps short of the
    targets, raises NonConvergenceError. IllConditionedError is
    raised for a non-finite residual, a singular Newton matrix or a
    non-finite Newton correction; ResolutionError when the top fiftieth of
    the spectrum exceeds SPECTRUM_TOL max|u|.
    """
    col = _Collocation(config)
    a = cosine_coefficients(initial_guess(config))
    step = math.inf
    history = []
    for it in range(MAX_ITERS):
        u, F = col.residual(a)
        rn = float(np.abs(F).max())
        history.append(rn)
        if not math.isfinite(rn):
            raise IllConditionedError(
                f"non-finite residual after {it} Newton steps")
        scale = max(config.gamma ** 2, float(np.abs(u).max()))
        target = NEWTON_TOL * scale * scale
        if rn <= target and step <= STEP_TOL * scale:
            if not u[0] >= config.gamma ** 2:  # e.g. the trivial u = 0
                raise NonConvergenceError(
                    f"converged to u(0) = {u[0]:.3e} below the wave's branch "
                    f"u(0) >= gamma^2 = {config.gamma ** 2:g} after "
                    f"{len(history)} iterations", history)
            _check_spectrum(a, u, config)
            nodes, samples = _sample(a, config)
            return GridSolution(nodes, samples, rn, it, tuple(history),
                                target, a)
        if len(history) - 1 - int(np.argmin(history)) >= STALL_ITERS:
            break
        try:
            da = np.linalg.solve(col.jacobian(u), -F)
        except np.linalg.LinAlgError as exc:  # a ValueError: not exit 2
            raise IllConditionedError(f"Newton matrix: {exc}") from None
        if not np.all(np.isfinite(da)):
            raise IllConditionedError("non-finite Newton correction")
        step = float(np.abs(col.C @ da).max())
        a = a + da
    raise NonConvergenceError(
        f"residual {rn:.3e} after {len(history)} iterations "
        f"(smallest {min(history):.3e}, target {target:.3e})", history)


def _check_spectrum(a: np.ndarray, u: np.ndarray, config: SolverConfig) -> None:
    # The band is where the series is cut, k > 0.98 k_max. A wider band also
    # holds resolved harmonics n k of the tail and refuses accurate solves:
    # at eps = 0.14, 3k = 22.3 reaches 2e-10 max|u| in the top tenth and
    # 6e-13 in the top fiftieth.
    M = len(a) - 1
    top = float(np.abs(a[M - M // 50:]).max())
    bound = SPECTRUM_TOL * float(np.abs(u).max())
    if not top <= bound:
        raise ResolutionError(
            f"M = {M} modes at eps = {config.epsilon}, gamma = {config.gamma}: "
            f"the top fiftieth of the spectrum reaches {top:.3e}, above "
            f"{SPECTRUM_TOL:g} max|u| = {bound:.3e}")


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
    """Amplitude and wavelength over the last two oscillations before L, a
    window check_window must pass. Amplitude uses parabolic refinement at the
    extremal sample so a pure sinusoid is measured exactly; wavelength comes
    from zero crossings."""
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

    The sampling step is eps / h_factor unless grid_spacing is given; it
    does not move L or the solve. A half_length of None takes the default
    domain. Every configuration and its measurement window are checked
    before the first solve. Each solve starts from its own initial_guess, so
    a row does not depend on the other epsilons in the list.
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
