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
c = 4 g^2 + 16 g^4 eps^2 (higher corrections vanish identically), and every
solve starts from the outer series to that order, u_0 + eps^2 u_1, so a
result depends only on its own eps, gamma, L and mode count.

The solver works at gamma = 1 only: u(x; eps, gamma) = gamma^2 U(gamma x;
gamma eps) and c = gamma^2 c(gamma eps, 1), so `unit_config` maps a config
(eps, gamma, L) to U's (gamma eps, 1, gamma L). `solve` and `check_window`
work on U and map back: coefficients, u and the values their checks state by
gamma^2, residuals by gamma^4, x by 1/gamma. At gamma = 1 the map is the
identity, bit for bit.

The mode count is a rule, not an option: M = ceil(MODES_PER_GAMMA gamma L /
pi), so k_max ~ MODES_PER_GAMMA gamma follows the core's poles at +-i pi/(2
gamma), which set the spectrum's decay e^{-pi k/(2 gamma)}. Each solution
vouches for it: the top fiftieth of its spectrum, where the series is cut,
must sit below SPECTRUM_TOL max|u|, else ResolutionError. It guards against
too few modes (half of them put it near 1e-6); it does not estimate a change
of 1e-10 that more modes make to u. A solution is its coefficients and L;
`sweep` alone samples it, on an output grid, and neither the solve
nor measure_tail, which reads the coefficients, depends on that grid.

Note on tolerances: an iterate of U is accepted when the Newton step that
reached it moved U by at most STEP_TOL s and its residual is at most
NEWTON_TOL s^2, s = max(1, |U|), which leaves it about STEP_TOL^2 from the
discrete solution; the residual's roundoff floor is 1e-15 to 1e-14 (eps =
0.05 to 0.15). Only the branch U(0) >= 1 (half the peak 2) is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import check_epsilon, check_gamma
from .late_terms import InsufficientDataError
from .stokes import tail_amplitude


class ResolutionError(ValueError):
    """Modes, samples or domain cannot resolve the solution."""


class NonConvergenceError(ArithmeticError):
    """Newton iteration exhausted, or converged off the wave's branch."""

    def __init__(self, msg, history):
        super().__init__(msg)
        self.history = tuple(history)


class IllConditionedError(ArithmeticError):
    """Non-finite residual, singular Newton matrix or non-finite correction."""


class WindowContaminatedError(ValueError):
    """Measurement window is not clean tail (core influence or bad content)."""


class FitQualityError(ArithmeticError):
    """Regression quality below the reliability threshold."""


def default_c(gamma: float, epsilon: float) -> float:
    """Exact series eigenvalue 4 g^2 + 16 g^4 eps^2 (all higher orders are 0)."""
    g = check_gamma(gamma)
    check_epsilon(epsilon)
    return 4.0 * g * g + 16.0 * g ** 4 * epsilon * epsilon


def default_half_length(epsilon: float, gamma: float) -> float:
    """Ten core widths and ten tail oscillations, 10/min(1, gamma) + 20 pi eps,
    rounded up to a whole number of eps/20."""
    step, core = epsilon / 20.0, 10.0 / min(1.0, gamma)
    return math.ceil((core + 10.0 * (2.0 * math.pi * epsilon)) / step) * step


#: residual target relative to max(1, |U|)^2
NEWTON_TOL = 1e-12
#: Newton step target relative to max(1, |U|)
STEP_TOL = 1e-6
#: most Newton steps a solve takes, each one's iterate evaluated
MAX_ITERS = 50
#: steps without a new smallest residual before Newton gives up (7 seen in a
#: solve that converged: eps = 0.16, gamma = 3/2)
STALL_ITERS = 10
#: U's k_max: M = ceil(MODES_PER_GAMMA gamma L / pi), read at construction
MODES_PER_GAMMA = 24.0
#: bound on max |a_m| over the top fiftieth of the modes, relative to max |u|
SPECTRUM_TOL = 1e-10
#: largest mode count (gamma L <= 402.1): C, the Newton matrix and LAPACK's
#: copy hold 3 x 8 (M + 1)^2 bytes, 227 MB, and a Newton step takes 0.7 s
MAX_MODES = 3072
#: largest number of samples N that sweep takes of a solution (each array 8 MB)
MAX_SAMPLES = 2 ** 20
#: gamma lies in [1/GAMMA_RANGE, GAMMA_RANGE]: the map's gamma^4 <= 2^256 keeps
#: each of U's values between 2^-766 and 2^767 in size a normal double
GAMMA_RANGE = 2.0 ** 64
#: points of the tail projection over the last two periods before L
TAIL_POINTS = 16
#: projection residual bound relative to the amplitude: measured 7e-8 at eps =
#: 0.08, 1.7e-4 at 0.15, 7.1e-3 at 0.22; a k 1% off leaves 3.3e-2, 1/eps 4e-2+
FIT_TOL = 1e-2


@dataclass(frozen=True)
class SolverConfig:
    """Domain and eigenvalue for one solve, checked at construction. L is
    half_length as given, else default_half_length, and must reach 10/gamma +
    20 pi eps, U's rule on gamma L (ten core widths and ten tail wavelengths;
    the default is widened for gamma < 1 only). gamma is kept as its double,
    n_modes is M, c is default_c. GAMMA_RANGE applies first, MAX_MODES before
    any allocation."""

    epsilon: float
    gamma: float = 1.0
    half_length: float | None = None
    n_modes: int = field(init=False)
    c_value: float = field(init=False)

    def __post_init__(self):
        check_epsilon(self.epsilon)
        g = check_gamma(self.gamma)
        if not 1.0 / GAMMA_RANGE <= g <= GAMMA_RANGE:  # then c <= 628 gamma^2
            raise ResolutionError(f"gamma = {g} lies outside "
                                  "[2^-64, 2^64], where the map stays in range")
        object.__setattr__(self, "gamma", g)
        if self.half_length is None:
            object.__setattr__(self, "half_length",
                               default_half_length(self.epsilon, g))
        elif not 0 < self.half_length < math.inf:
            raise ValueError("half_length must be positive and finite")
        L, need = g * self.half_length, 10.0 + 20.0 * math.pi * (g * self.epsilon)
        if L * (1.0 + 1e-9) < need:  # U's L and eps, as unit_config computes them
            raise ResolutionError(
                f"L = {self.half_length} too short at gamma = {self.gamma}: "
                f"need L >= {need / g} = 10/gamma + 20 pi eps")
        modes = MODES_PER_GAMMA * L / math.pi
        if not modes <= MAX_MODES:
            raise ResolutionError(
                f"gamma = {self.gamma}, L = {self.half_length}: {modes:.4g} "
                f"cosine modes exceed the cap of {MAX_MODES}")
        object.__setattr__(self, "n_modes", math.ceil(modes))
        object.__setattr__(self, "c_value", default_c(g, self.epsilon))


def unit_config(config: SolverConfig) -> SolverConfig:
    """U's config (gamma eps, 1, gamma L): the one map to gamma = 1."""
    g = config.gamma
    return SolverConfig(g * config.epsilon, 1.0, g * config.half_length)


@dataclass
class GridSolution:
    """The solution's values u at `nodes`, which end at L: solve's
    collocation points x_j = j L/M, or sweep's samples x_i = i L/N. Its
    residual_history is initial_guess's residual and then each Newton step's:
    iterations counts the steps. `coefficients` are the cosine coefficients
    a_m of u = sum a_m cos(m pi x / L), which every solution holds."""

    nodes: np.ndarray
    u: np.ndarray
    residual_history: tuple[float, ...]
    coefficients: np.ndarray
    residual_target: float

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1

    def evaluate(self, x):
        """The cosine interpolant at x (a float or an array) with |Re x| <= L."""
        L = self.nodes[-1]
        beyond = np.asarray(x)[~(np.abs(np.real(x)) <= L)]
        if beyond.size:
            raise ValueError(f"x = {beyond.flat[0]} lies beyond the domain |x| <= L = {L}")
        k = np.arange(len(self.coefficients)) * (math.pi / L)
        return np.cos(np.multiply.outer(x, k)) @ self.coefficients


@dataclass
class TailMeasurement:
    """measure_tail's fundamental: amplitude, wavelength 2 pi/k, the window
    mean, the signed value at L and the projection's largest residual."""

    epsilon: float
    amplitude_measured: float
    amplitude_predicted: float
    wavelength_measured: float
    mean: float
    value_at_L: float
    fit_residual: float


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
    a[[0, M]] /= 2.0
    return a


def initial_guess(config: SolverConfig) -> np.ndarray:
    """U's outer series through U_1 at its collocation points, as c_value is
    through c_1: 2 S + eps^2 (30 S^2 - 20 S), S = sech^2(x), on unit_config."""
    unit = unit_config(config)
    eps, x = unit.epsilon, collocation_points(unit)
    with np.errstate(over="ignore"):  # far out cosh -> inf, so the core is 0
        S = 1.0 / np.cosh(x) ** 2
    return 2.0 * S + eps * eps * (30.0 * S * S - 20.0 * S)


def _sample(a: np.ndarray, L: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(x_i, u(x_i)) at x_i = i L/N, N the smallest 5-smooth integer at or
    above max(round(L/h), M), by one zero-padded irfft."""
    N = _five_smooth(max(round(L / h), len(a) - 1))
    spectrum = np.zeros(N + 1)
    spectrum[:len(a)] = N * a
    spectrum[[0, N]] *= 2.0  # the ends of the DCT-I carry half weight
    u = np.fft.irfft(spectrum, 2 * N)[:N + 1]
    return np.linspace(0.0, L, N + 1), u


def _five_smooth(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (below 2^40, a divisor of 30^40)."""
    while 30 ** 40 % n:
        n += 1
    return n


def solve(config: SolverConfig) -> GridSolution:
    """Newton iteration on U's cosine coefficients from initial_guess until
    the step and the residual both meet their targets (module docstring).
    The solution holds u at the collocation points, from the last step.

    Converging off the wave's branch U(0) >= 1, STALL_ITERS steps without a
    new smallest residual, or MAX_ITERS steps short of the targets, raises
    NonConvergenceError with the history and the number of steps taken.
    IllConditionedError is raised for a non-finite residual, a singular
    Newton matrix or a non-finite Newton correction; ResolutionError when
    the top fiftieth of the spectrum exceeds SPECTRUM_TOL max|u|.
    """
    unit = unit_config(config)
    col = _Collocation(unit)
    a = cosine_coefficients(initial_guess(unit))
    step = math.inf
    history = []
    for it in range(MAX_ITERS + 1):  # it = Newton steps taken
        u, F = col.residual(a)
        rn = float(np.abs(F).max())
        history.append(rn)
        if not math.isfinite(rn):
            raise IllConditionedError(
                f"non-finite residual after {it} Newton steps")
        scale = max(1.0, float(np.abs(u).max()))
        target = NEWTON_TOL * scale * scale
        converged = rn <= target and step <= STEP_TOL * scale
        if (converged or it == MAX_ITERS
                or it - int(np.argmin(history)) >= STALL_ITERS):
            break
        try:
            da = np.linalg.solve(col.jacobian(u), -F)
        except np.linalg.LinAlgError as exc:  # a ValueError: not exit 2
            raise IllConditionedError(f"Newton matrix: {exc}") from None
        if not np.all(np.isfinite(da)):
            raise IllConditionedError("non-finite Newton correction")
        step = float(np.abs(col.C @ da).max())
        a = a + da
    g2, g4 = config.gamma ** 2, config.gamma ** 4
    target, history = g4 * target, tuple(g4 * r for r in history)
    if not converged:
        raise NonConvergenceError(
            f"residual {history[-1]:.3e} after {it} Newton steps "
            f"(smallest {min(history):.3e}, target {target:.3e})", history)
    if not u[0] >= 1.0:  # e.g. the trivial u = 0
        raise NonConvergenceError(
            f"converged to u(0) = {g2 * u[0]:.3e} below the wave's branch u(0) "
            f">= gamma^2 = {g2:g} after {it} Newton steps", history)
    a, u = g2 * a, g2 * u
    _check_spectrum(a, u, unit)
    return GridSolution(collocation_points(config), u, residual_history=history,
                        coefficients=a, residual_target=target)


def _check_spectrum(a: np.ndarray, u: np.ndarray, unit: SolverConfig) -> None:
    # The band is where the series is cut, k > 0.98 k_max. A wider band also
    # holds resolved harmonics n k of the tail and refuses accurate solves:
    # at eps = 0.14, 3k = 22.3 reaches 2e-10 max|u| in the top tenth and
    # 6e-13 in the top fiftieth.
    M = len(a) - 1
    top = float(np.abs(a[M - M // 50:]).max())
    bound = SPECTRUM_TOL * float(np.abs(u).max())
    if not top <= bound:
        raise ResolutionError(
            f"M = {M} modes at gamma eps = {unit.epsilon}: "
            f"the top fiftieth of the spectrum reaches {top:.3e}, above "
            f"{SPECTRUM_TOL:g} max|u| = {bound:.3e}")


def predicted_amplitude(config: SolverConfig) -> float:
    """Symmetric-member tail amplitude |Lam| pi eps^-2 e^{-pi/(2 gamma eps)}:
    half the one-sided switching amplitude."""
    return 0.5 * tail_amplitude(config.epsilon, config.gamma)


def check_window(config: SolverConfig) -> float:
    """Core-influence precheck for the window; returns its start L - 4 pi eps.

    U's sech^2 core evaluated at its window start must sit below 10% of its
    predicted tail amplitude, otherwise the window is contaminated. k >
    1/eps: measure_tail's window, from L - 4 pi/k, lies inside.
    """
    unit = unit_config(config)
    predicted = predicted_amplitude(unit)
    window_start = unit.half_length - 2.0 * (2.0 * math.pi * unit.epsilon)
    decay = math.exp(-2.0 * window_start)  # cosh(x)^2 overflows past 355
    core_at_window = 8.0 * decay / (1.0 + decay) ** 2  # 2 sech^2
    g, g2 = config.gamma, config.gamma ** 2
    if core_at_window >= 0.1 * predicted:
        raise WindowContaminatedError(
            f"core {g2 * core_at_window:.3e} at x = {window_start / g:.2f} exceeds "
            f"10% of predicted tail {g2 * predicted:.3e}; increase half_length")
    return window_start / g


def tail_wavenumber(config: SolverConfig) -> float:
    """k, the positive root of eps^2 k^4 - k^2 - c = 0: the wavenumber at
    which the linearized equation oscillates far from the core."""
    eps2 = config.epsilon ** 2
    return math.sqrt((1.0 + math.sqrt(1.0 + 4.0 * eps2 * config.c_value))
                     / (2.0 * eps2))


def measure_tail(sol: GridSolution, config: SolverConfig) -> TailMeasurement:
    """The tail's fundamental over the last two periods 2 pi/k before L (a
    window check_window must pass), read off the cosine coefficients.

    The interpolant at TAIL_POINTS equally spaced points ending at L is
    projected onto 1, cos t, sin t, cos 2t and sin 2t, t = k (x - L) with
    k = tail_wavenumber; on those points the five are orthogonal. The
    amplitude leaves out the mean (the nonlinear offset 3 A^2/(2c)) and the
    second harmonic. Unless the largest residual is below FIT_TOL times the
    amplitude, as a wrong k or core in the window breaks it,
    WindowContaminatedError is raised. A solution whose nodes end at another
    L than config's is refused with ValueError.
    """
    if sol.nodes[-1] != config.half_length:
        raise ValueError(f"the solution ends at L = {sol.nodes[-1]}, the config "
                         f"at L = {config.half_length}")
    check_window(config)
    k = tail_wavenumber(config)
    t = np.arange(1 - TAIL_POINTS, 1) * (4.0 * math.pi / TAIL_POINTS)
    u = sol.evaluate(config.half_length + t / k)
    basis = np.array([np.ones_like(t), np.cos(t), np.sin(t),
                      np.cos(2.0 * t), np.sin(2.0 * t)])
    proj = basis @ u * (2.0 / TAIL_POINTS)
    proj[0] /= 2.0  # the mean
    residual = float(np.abs(u - proj @ basis).max())
    amplitude = math.hypot(proj[1], proj[2])
    if not residual < FIT_TOL * amplitude:
        raise WindowContaminatedError(
            f"the tail at k = {k:.4f} leaves a residual {residual:.3e} over "
            f"the last two periods before L = {config.half_length}, above "
            f"{FIT_TOL:g} of its amplitude {amplitude:.3e}")
    return TailMeasurement(config.epsilon, amplitude, predicted_amplitude(config),
                           2.0 * math.pi / k, float(proj[0]), float(proj[1]),
                           residual)


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    log_prefactor: float
    r_squared: float


def fit_exponent(measurements: list[TailMeasurement]) -> ExponentFit:
    """Regress log(amplitude eps^2) on 1/eps; the model slope is -pi/(2 gamma).

    Requires measurements at four or more distinct epsilons (copies of one
    epsilon's row fit a line exactly); raises FitQualityError when the fit
    explains less than 99% of the variance.
    """
    if len({m.epsilon for m in measurements}) < 4:
        raise InsufficientDataError("need at least 4 distinct epsilons for the fit")
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
        raise FitQualityError(f"r^2 = {r2:.4f} below 0.99 (slope {slope:.4f}); "
                              "measurements unreliable")
    return ExponentFit(float(slope), float(intercept), r2)


def sweep(epsilons, gamma: float = 1.0, h_factor: float = 20.0,
          half_length: float | None = None):
    """Solve and measure for each epsilon: a list of (config, solution,
    measurement), ascending in epsilon.

    Each solution is solve's, sampled by _sample at the step h = eps /
    h_factor, which moves neither L, the solve nor the measurement. h_factor
    must lie in [10, inf) for h <= eps/10 to sample the 2 pi eps wavelength,
    and L/h at most MAX_SAMPLES (else ResolutionError). A half_length of
    None takes the default domain. h_factor, then every configuration, its
    step and its window are checked before the first solve; each solve
    starts from its own initial_guess, so a row depends on its eps alone.
    """
    if not 10.0 <= h_factor < math.inf:
        raise ResolutionError(f"h_factor = {h_factor} outside [10, inf): the step "
                              "h = eps/h_factor samples 2 pi eps only at h <= eps/10")
    checked = []
    for eps in sorted(epsilons):
        config = SolverConfig(epsilon=eps, gamma=gamma, half_length=half_length)
        L, h = config.half_length, eps / h_factor
        samples = L / eps * h_factor  # L / h, but inf where h underflows to 0
        if not samples <= MAX_SAMPLES:
            raise ResolutionError(f"L = {L}, h = {h}: {samples:.4g} samples exceed "
                                  f"the cap of {MAX_SAMPLES}")
        check_window(config)
        checked.append((config, h))
    rows = []
    for config, h in checked:
        sol = solve(config)
        nodes, u = _sample(sol.coefficients, config.half_length, h)
        rows.append((config, replace(sol, nodes=nodes, u=u), measure_tail(sol, config)))
    return rows
