import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdv import (
    SechPolynomial,
    SeriesTable,
    build_series,
    chi_squared_estimate,
    fit_divergence_exponent,
    ratio_test,
    singulant_report,
)
from fkdv.evaluation import singularity
from fkdv.late_terms import (
    InsufficientDataError,
    _extrapolants,
    inner_coefficients,
    report_to_json,
)


def test_lambda_first_entries(table30):
    lam = singulant_report(table30).lambda_sequence
    assert lam[0] == pytest.approx(-2.0)
    assert lam[1] == pytest.approx(5.0)  # 30 / Gamma(4)


def test_lambda_alternates_while_aligned_sign_is_fixed(table30):
    report = singulant_report(table30)
    lam = report.lambda_sequence
    assert all(lam[n] * lam[n + 1] < 0 for n in range(30))
    aligned = report.lambda_aligned
    assert all(v < 0 for v in aligned)


def test_lambda_requires_depth():
    with pytest.raises(InsufficientDataError):
        singulant_report(build_series(3))


def test_lambda_approaches_quoted_constant(table30):
    report = singulant_report(table30)
    assert report.lambda_final == pytest.approx(-19.97, abs=0.1)
    assert report.lambda_error < 0.05


def test_richardson_constant_sequence():
    assert _extrapolants([3.25] * 10, 2) == [Fraction(13, 4)] * 3


def test_richardson_eliminates_1_over_n():
    seq = [1 + Fraction(1, n) for n in range(1, 11)]
    assert _extrapolants(seq, 1)[-1] == 1


@given(st.floats(-5, 5), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40)
def test_richardson_exact_on_model(L, b1, b2):
    seq = [L + b1 / n + b2 / n**2 for n in range(1, 13)]
    est = float(_extrapolants(seq, 2)[-1])
    assert est == pytest.approx(L, abs=1e-7 * (1 + abs(L) + abs(b1) + abs(b2)))


def test_richardson_exact_on_tenth_order_model():
    # closely spaced nodes 1/n: in doubles order 10 came out 8.6 off
    L = Fraction(-19968947358760961, 10 ** 15)
    bs = [Fraction((-1) ** k * 7 * k, k + 3) for k in range(1, 11)]
    seq = [L + sum(b / Fraction(n) ** k for k, b in enumerate(bs, 1))
           for n in range(1, 102)]
    assert _extrapolants(seq, 10)[-1] == L
    assert float(_extrapolants(seq, 8)[-1]) == pytest.approx(float(L), abs=1e-9)


def test_richardson_insufficient():
    with pytest.raises(InsufficientDataError, match="need more than 3 entries, got 2"):
        _extrapolants([1.0, 2.0], 3)


@pytest.mark.parametrize("analysis, message", [
    (lambda: ratio_test(build_series(4), 0.0), "need a table built to n_max >= 5"),
    (lambda: fit_divergence_exponent(build_series(13)), "need n_max >= 14"),
    # the x = 0 ratios run to n = n_max - 1
    (lambda: chi_squared_estimate(build_series(8), 8), "no usable ratio at n = 8"),
], ids=["ratio_test", "fit_divergence_exponent", "chi_squared_estimate"])
def test_late_term_analyses_refuse_short_tables(analysis, message):
    with pytest.raises(InsufficientDataError, match=f"^{message}$"):
        analysis()


def test_extrapolants_form_cauchy_sequence(table30):
    tab = singulant_report(table30, order=5).lambda_extrapolants
    gaps = [abs(tab[k + 1] - tab[k]) for k in range(5)]
    assert all(gaps[k + 1] < gaps[k] for k in range(4))


def test_ratio_measured_over_predicted(table30):
    rows = {n: (m, p) for n, m, p in ratio_test(table30, 0.0)}
    m, p = rows[20]
    assert m / p == pytest.approx(1.0, abs=0.05)
    # finite and recorded at small n, no convergence claim
    assert 1 in rows and math.isfinite(rows[1][0])
    # the deviation humps near n = 13 and decays monotonically past it
    # (observed stabilization point, frozen)
    devs = [abs(rows[n][0] / rows[n][1] - 1.0) for n in range(13, 30)]
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    assert all(d < 0.007 for d in devs)


def test_ratio_at_origin_beyond_float_range():
    # u_n(0) = 10^(100 n) reaches 1e800: the ratio is taken in exact
    # arithmetic, never through float(u_n(0))
    u = [SechPolynomial({n + 1: Fraction(10) ** (100 * n)}) for n in range(9)]
    table = SeriesTable(Fraction(1), u, [Fraction(0)] * 9)
    rows = ratio_test(table, 0.0)
    assert [n for n, _, _ in rows] == list(range(8))
    assert all(m == 1e100 for _, m, _ in rows)


def test_ratio_skips_an_order_that_vanishes_at_x():
    # u_3 = S - S^2 is 0 at x = 0 (S = 1): u_3/u_2 is 0, u_4/u_3 has no value
    u = [SechPolynomial({n + 1: 1}) for n in range(7)]
    u[3] = SechPolynomial({1: 1, 2: -1})
    rows = ratio_test(SeriesTable(Fraction(1), u, [Fraction(0)] * 7), 0.0)
    assert [n for n, _, _ in rows] == [0, 1, 2, 4, 5]
    assert [m for _, m, _ in rows] == [1.0, 1.0, 0.0, 1.0, 1.0]


def test_ratio_off_axis_follows_model_to_n_max():
    # in doubles the ratio at x = 1 was off by a factor of 717 by n = 59
    rows = ratio_test(build_series(60), 1.0)
    devs = {n: abs(m / p - 1.0) for n, m, p in rows if n >= 20}
    assert sorted(devs) == list(range(20, 60))
    assert max(devs.values()) < 0.3


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(3, 2),
                                   Fraction(1, 65536), Fraction(65536)])
def test_ratio_prediction_at_origin_is_exact(gamma):
    # the model is scale-free, (chi/|chi|)^-(2n+2) = (-1)^(n+1) at x = 0, so
    # no power of |chi| = pi/(2 gamma) can overflow and the prediction is the
    # closed form to the last bit
    table = build_series(60 if gamma == 1 else 20, gamma)
    r2 = abs(singularity(gamma)) ** 2
    rows = ratio_test(table, 0.0)
    assert [n for n, _, _ in rows] == list(range(table.n_max))
    assert all(p == (2 * n + 2) * (2 * n + 3) / r2 for n, _, p in rows)


def test_chi_squared_recovery(table30):
    target = -((math.pi / 2) ** 2)
    est = chi_squared_estimate(table30, 25)
    assert est == pytest.approx(target, rel=0.02)


def test_beta_fit_selects_two(table30):
    best, slopes = fit_divergence_exponent(table30)
    assert best == 2
    assert abs(slopes[2]) < min(abs(slopes[b]) for b in (0, 1, 3, 4))


def test_report_assembly(table30):
    rep = singulant_report(table30, order=3)
    assert rep.lambda_final == pytest.approx(-19.97, abs=0.1)
    assert rep.beta_selected == 2
    doc = report_to_json(rep, table30)
    # the model's constants are the document's, not the report's
    assert doc["beta_exponent"] == 2
    assert doc["chi_prime"] == 1
    assert doc["sigma"] == [0.0, math.pi / 2]
    assert set(doc) >= {"lambda_sequence", "extrapolants", "lambda_final",
                        "beta_fit", "ratio_table"}
    assert doc["lambda_final"] == rep.lambda_final


def test_inner_coefficients_first_entries():
    # rationals from a_4 on; a_0..a_3 are the integers -2, 30, -930, 49662
    assert inner_coefficients(5) == [-2, 30, -930, 49662, Fraction(-28918350, 7),
                                     Fraction(3495722130, 7)]
