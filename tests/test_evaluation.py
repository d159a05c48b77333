import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fkdv import (
    EvalPoint,
    PartialSum,
    PoleProximityError,
    SechPolynomial,
    SeriesTable,
    build_series,
    empirical_optimum,
    eval_coefficient,
    optimal_N,
    partial_sum,
    sech_squared,
    singularity,
)
from fkdv.evaluation import _exact


@pytest.fixture(scope="module")
def table8():
    return build_series(8)


def test_u0_at_origin(table8):
    assert eval_coefficient(table8.u[0], 0.0) == pytest.approx(2.0)


def test_u1_at_origin(table8):
    assert eval_coefficient(table8.u[1], 0.0) == pytest.approx(10.0)


def test_u0_near_singularity(table8):
    # horizontal approach x = i pi/2 - delta: u_0 ~ -2/delta^2
    delta = 1e-3
    v = eval_coefficient(table8.u[0], complex(-delta, math.pi / 2))
    assert v.real == pytest.approx(-2.0 / delta**2, rel=1e-3)


def test_pole_guard(table8):
    with pytest.raises(PoleProximityError):
        eval_coefficient(table8.u[0], 1j * math.pi / 2)


def test_optimal_N_examples():
    assert optimal_N(0.0, 0.1, 1) == 8
    assert optimal_N(0.0, 0.05, 1) == 16
    assert optimal_N(1.0, 0.1, 1) == 9
    assert abs(abs(1.0 - singularity(1)) - 1.8621) < 1e-4


def test_optimal_N_floor():
    assert optimal_N(0.0, 10.0, 1) == 1


def test_partial_sum_examples(table8):
    p0 = partial_sum(table8, EvalPoint(0.0, 0.1), 1)
    assert p0.value == pytest.approx(2.0)
    p1 = partial_sum(table8, EvalPoint(0.0, 0.1), 2)
    assert p1.value == pytest.approx(2.1)
    assert p1.term_magnitudes == pytest.approx((2.0, 0.1))


def test_partial_sum_empty(table8):
    # zero orders compute no S, so the empty sum is 0 even at the pole
    for x in (0.0, 1j * math.pi / 2):
        p = partial_sum(table8, EvalPoint(x, 0.1), 0)
        assert p.value == 0 and p.N == 0 and p.term_magnitudes == ()
    with pytest.raises(PoleProximityError):
        partial_sum(table8, EvalPoint(1j * math.pi / 2, 0.1), 1)


def test_partial_sum_N_counts_its_terms(table8):
    for N in range(10):
        assert partial_sum(table8, EvalPoint(0.5, 0.1), N).N == N
    assert PartialSum(1j, (1.0, 2.0, 0.5)).N == 3


def test_partial_sum_bounds(table8):
    with pytest.raises(ValueError, match="exceeds available orders"):
        partial_sum(table8, EvalPoint(0.0, 0.1), 42)
    with pytest.raises(ValueError, match="^N must be >= 0$"):
        partial_sum(table8, EvalPoint(0.0, 0.1), -1)


def test_real_axis_sums_are_real(table8):
    for x in (0.0, 0.5, 2.0):
        p = partial_sum(table8, EvalPoint(complex(x, 0.0), 0.1), 9)
        assert abs(p.value.imag) <= 1e-12 * max(abs(p.value.real), 1.0)


def test_term_magnitudes_dip_then_grow(table30):
    ps = partial_sum(table30, EvalPoint(0.0, 0.1), 31)
    mags = ps.term_magnitudes
    k = mags.index(min(mags))
    assert all(mags[i] > mags[i + 1] for i in range(k))
    assert all(mags[i] < mags[i + 1] for i in range(k, len(mags) - 1))


def test_empirical_optimum_matches_rule(table30):
    for x, eps in ((0.0, 0.1), (1.0, 0.1), (0.0, 0.15)):
        n_star = empirical_optimum(table30, EvalPoint(complex(x), eps))
        assert abs(n_star - optimal_N(x, eps, 1)) <= 2


@given(st.complex_numbers(max_magnitude=1.2, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetry(z):
    table = build_series(3)
    if abs(cmath.cosh(z)) < 1e-6:
        return
    a = eval_coefficient(table.u[3], z)
    b = eval_coefficient(table.u[3], z.conjugate())
    assert b == pytest.approx(a.conjugate(), rel=1e-10, abs=1e-12)


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        EvalPoint(0.0, -0.1)


def test_huge_coefficient_conversion():
    # u_n(x) = 10^(100 n) S^(n+1) passes the double range from n = 4, while
    # eps^(2n) u_n stays near 1e-20n: every term is finite and the smallest
    # is the last
    n_max = 8
    u = [SechPolynomial({n + 1: Fraction(10) ** (100 * n)}) for n in range(n_max + 1)]
    table = SeriesTable(Fraction(1), u, [Fraction(0)] * (n_max + 1))
    for x in (0.0, 0.5):
        point = EvalPoint(x, 1e-60)
        ps = partial_sum(table, point, n_max + 1)
        log_s = math.log(abs(sech_squared(x, 1)))
        for n, mag in enumerate(ps.term_magnitudes):
            log_term = (2 * n * math.log(1e-60) + 100 * n * math.log(10.0)
                        + (n + 1) * log_s)
            assert math.log(mag) == pytest.approx(log_term, rel=1e-12)
        assert empirical_optimum(table, point) == n_max


def test_empirical_optimum_past_double_range():
    # at x = 0, eps = 1 the terms are 10^(20 n) up to n = 34 (past 1.8e308
    # from n = 16), then 10^-400: the argmin is found without rounding a term
    u = [SechPolynomial({n + 1: Fraction(10) ** (20 * n if n < 35 else -400)})
         for n in range(41)]
    table = SeriesTable(Fraction(1), u, [Fraction(0)] * 41)
    assert empirical_optimum(table, EvalPoint(0, 1.0)) == 35


def test_eval_coefficient_matches_mpmath_through_n40():
    # the a_m alternate and grow factorially: summed in doubles, u_40(0)
    # came out with relative error 1.8e3
    import mpmath

    table = build_series(40)
    with mpmath.workdps(50):
        for x in (0.0, 1.0, 0.3 + 0.4j):
            S = mpmath.sech(mpmath.mpc(x)) ** 2
            for p in table.u:
                ref = mpmath.fsum(mpmath.mpf(a.numerator) / a.denominator * S ** m
                                  for m, a in p.terms())
                got = eval_coefficient(p, x)
                assert abs(got - complex(ref)) <= 1e-12 * abs(complex(ref))


@st.composite
def small_tables(draw):
    """(table, eps): small hand-made orders, some zero, some exact ties and
    some near ties. An order that repeats an earlier one j divided by
    eps^(2 (n - j)) has the same term magnitude at every x; scaled by
    +-2^s (1 + t) it lands within a few bits of it, above or below."""
    eps = draw(st.one_of(st.floats(0.01, 10.0), st.floats(1e-20, 1e20),
                         st.integers(-70, 70).map(lambda k: 2.0 ** k)))
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
    u = []
    for n in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["copy"] * 6 + ["random"] * 3 + ["zero"] if u
                                    else ["random"] * 3 + ["zero"]))
        if kind == "zero":
            u.append(SechPolynomial({}))
        elif kind == "random":
            u.append(SechPolynomial(draw(st.dictionaries(st.integers(1, 4), coeffs,
                                                         min_size=1, max_size=4))))
        else:
            j = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
            s = draw(st.one_of(st.just(0), st.integers(-3, 3)))
            t = draw(st.one_of(st.just(0), st.integers(-15, 15)))
            f = (draw(st.sampled_from([1, -1])) * Fraction(2) ** s
                 * (1 + Fraction(t, 16)) / Fraction(eps) ** (2 * (n - j)))
            u.append(SechPolynomial({m: f * a for m, a in u[j].coeffs.items()}))
    return SeriesTable(Fraction(1), u, [Fraction(0)] * len(u)), eps


def _first_argmin(table, x, eps):
    """Brute force: the first index of the smallest |eps^{2n} u_n(x)|^2, as
    exact Fractions."""
    e4 = Fraction(eps) ** 4
    mags = [Fraction(re * re + im * im, den * den) * e4 ** n
            for n, (re, im, den) in enumerate(_exact(table.u, x, table.gamma))]
    return mags.index(min(mags))


@given(small_tables(),
       st.one_of(st.floats(-3, 3).map(complex),
                 st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                    allow_infinity=False)))
@example((SeriesTable(Fraction(1), [SechPolynomial({1: 2, 2: 5}),
                                    SechPolynomial({1: Fraction(32, 5)})],
                      [Fraction(0)] * 2), 1.0), 0j)
@example((SeriesTable(Fraction(1), [SechPolynomial({1: Fraction(5, 7), 2: Fraction(8, 3)}),
                                    SechPolynomial({1: 5})],
                      [Fraction(0)] * 2), 0.75), 0.5 + 0j)
@settings(max_examples=150, deadline=None)
def test_empirical_optimum_is_first_exact_argmin(table_eps, x):
    # the two examples fall inside the bit-length window, where only the
    # products decide: nl - nr = 2 with the new term smaller (by 16 %), and
    # nl - nr = -2 with it larger (by 7e-4)
    table, eps = table_eps
    assume(abs(cmath.cosh(x)) > 1e-6)
    assert empirical_optimum(table, EvalPoint(x, eps)) == _first_argmin(table, x, eps)


@pytest.fixture(scope="module", params=[Fraction(1), Fraction(3, 2), Fraction(2, 3)],
                ids=str)
def table40(request):
    return build_series(40, request.param)


def test_empirical_optimum_is_first_exact_argmin_on_built_tables(table40):
    sigma = singularity(table40.gamma)
    points = [0j, 0.4 + 0j, -2.5 + 0j]
    points += [sigma + d * cmath.exp(1j * phi)
               for d, phi in ((0.05, -1.0), (0.3, -2.2), (0.7, 0.5), (1.2, -0.4))]
    points += [0.7 + 0.3j, -1.1 + 0.8j, 0.2 - 1.9j]
    for x in points:
        for eps in (1e-3, 0.01, 0.05, 0.1, 0.3, 0.7):
            got = empirical_optimum(table40, EvalPoint(x, eps))
            assert got == _first_argmin(table40, x, eps), (x, eps)


def _table(*orders):
    return SeriesTable(Fraction(1), [SechPolynomial(c) for c in orders],
                       [Fraction(0)] * len(orders))


@pytest.mark.parametrize("table, x, eps, n_star", [
    # on the edges of the bit-length window: L = a D_b ek of the new order
    # has nl - 3 to nl + 1 bits and R = a_b D 2^sh of the best nr - 2 to nr.
    # Here nl = nr - 3 with L at its top and R at its foot, L > R ...
    (_table({1: Fraction(7, 5)}, {1: Fraction(3, 2)}), 0.375 - 0.875j, 0.96875, 0),
    # ... and nl = nr + 3 with L at its foot and R at its top, L < R
    (_table({1: Fraction(1, 2)}, {1: Fraction(3, 7)}), 0.625 - 1j, 1.0, 1),
    # a zero order is the smallest, and the first zero wins a tie
    (_table({1: 3, 2: -1}, {}, {2: 5}), 0.3 + 0.2j, 0.5, 1),
    (_table({}, {1: Fraction(1, 9)}, {}), 0.8 + 0j, 0.1, 0),
    (_table({1: 5}, {2: Fraction(1, 10 ** 40)}, {}), 1.1 - 0.4j, 1e-3, 2),
    # equal terms: eps^2 u_1 = u_0 exactly, the first index wins
    (_table({1: 2, 2: 5}, {1: 2 / Fraction(0.7) ** 2, 2: 5 / Fraction(0.7) ** 2},
            {1: 1000}), 0.9 - 0.6j, 0.7, 0),
    (_table({1: 8}, {1: 3}, {1: 3 / Fraction(0.25) ** 2}), 0.4 + 0j, 0.25, 1),
], ids=["band-low-edge", "band-high-edge", "zero", "first-zero", "late-zero",
        "tie-complex", "tie-real"])
def test_empirical_optimum_hand_built(table, x, eps, n_star):
    assert _first_argmin(table, x, eps) == n_star
    assert empirical_optimum(table, EvalPoint(x, eps)) == n_star


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(math.nan, 0.5),
                               complex(0.5, math.nan), complex(0.5, math.inf),
                               complex(0.5, -math.inf), complex(-math.inf, 1.0)])
def test_eval_point_refuses_non_finite_x(x):
    # these built and then failed deep in partial_sum with "cannot convert
    # NaN to integer ratio"
    with pytest.raises(ValueError, match="x must be finite"):
        EvalPoint(x, 0.1)


@pytest.mark.parametrize("x, gamma", [(700, 1), (711, 1), (-800, 1), (400, 2)])
def test_far_points_have_zero_s(x, gamma):
    # S is about 4 exp(-2 gamma |x|): below the smallest double from
    # |gamma x| = 373, and cmath.cosh overflows (OverflowError) past 710
    table = build_series(10, gamma)
    assert sech_squared(x, gamma) == 0j
    assert partial_sum(table, EvalPoint(x, 0.1), 5).value == 0j
    assert empirical_optimum(table, EvalPoint(x, 0.1)) == 0


@pytest.mark.parametrize("x", [400 + 0.3j, 360 + 1j, 709 + 0.01j])
def test_far_complex_points_square_the_reciprocal(x):
    # cosh is finite here but ch * ch overflows, and its real part inf - inf
    # made S nan + nan i, so evaluation raised "cannot convert NaN to integer
    # ratio"; (1/ch)^2 is S within one subnormal step
    import mpmath

    table = build_series(10)
    S = sech_squared(x, 1)
    with mpmath.workdps(50):
        exact = complex(mpmath.sech(mpmath.mpc(x)) ** 2)
    assert abs(S.real - exact.real) <= 5e-324 and abs(S.imag - exact.imag) <= 5e-324
    # S^2 underflows to 0, so u_3 = a_1 S rounded once
    a1 = table.u[3].coeffs[1]
    assert eval_coefficient(table.u[3], x) == complex(a1 * Fraction(S.real),
                                                      a1 * Fraction(S.imag))
    point = EvalPoint(x, 0.1)
    assert abs(partial_sum(table, point, 5).value) <= 3 * abs(S)
    assert 0 <= empirical_optimum(table, point) <= table.n_max
