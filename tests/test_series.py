import hashlib
import json
import math
import os
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdv import (
    RecurrenceError,
    ResourceLimitError,
    SechPolynomial,
    SeriesTable,
    build_series,
    fourth_derivative,
    load_table,
    order_residual,
    save_table,
    second_derivative,
    table_from_json,
    table_to_json,
)
from fkdv import series
from fkdv.series import atomic_write

F = Fraction


def poly(coeffs, gamma=1):
    return SechPolynomial({m: F(a) for m, a in coeffs.items()}, F(gamma))


def eval_poly(p, x):
    S = 1.0 / math.cosh(float(p.gamma) * x) ** 2
    return sum(float(a) * S**m for m, a in p.terms())


# --- the closed-basis derivative, checked against finite differences

def test_second_derivative_of_2S():
    assert second_derivative(poly({1: 2})) == poly({1: 8, 2: -12})


def test_second_derivative_of_S_squared():
    assert second_derivative(poly({2: 1})) == poly({2: 16, 3: -20})


def test_second_derivative_of_zero():
    assert second_derivative(poly({})).is_zero


def test_second_derivative_matches_finite_differences():
    # 20 fixed pseudo-random points, relative 1e-8 (central stencil, h = 1e-4)
    import random

    rng = random.Random(7)
    p = poly({1: 2})
    d2 = second_derivative(p)
    h = 1e-4
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0)
        fd = (eval_poly(p, x + h) - 2 * eval_poly(p, x) + eval_poly(p, x - h)) / h**2
        exact = eval_poly(d2, x)
        assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_fourth_derivative_of_2S():
    assert fourth_derivative(poly({1: 2})) == poly({1: 32, 2: -240, 3: 240})


def test_fourth_derivative_of_S():
    assert fourth_derivative(poly({1: 1})) == poly({1: 16, 2: -120, 3: 120})


def test_fourth_derivative_of_zero():
    assert fourth_derivative(poly({})).is_zero


def test_fourth_derivative_against_wide_stencil():
    p = poly({1: 1, 2: F(1, 3)}, gamma=F(3, 2))
    d4 = fourth_derivative(p)
    h = 1e-2
    for x in (0.3, -0.9, 1.7):
        fd = (eval_poly(p, x - 2 * h) - 4 * eval_poly(p, x - h)
              + 6 * eval_poly(p, x) - 4 * eval_poly(p, x + h)
              + eval_poly(p, x + 2 * h)) / h**4
        assert eval_poly(d4, x) == pytest.approx(fd, rel=2e-2, abs=1e-4)


@given(st.dictionaries(st.integers(1, 6),
                       st.fractions(min_value=-50, max_value=50, max_denominator=20),
                       max_size=5))
def test_second_derivative_is_linear(coeffs):
    p = SechPolynomial(coeffs)
    q = poly({1: 3, 2: F(-1, 2)})
    merged = dict(q.coeffs)
    for m, a in p.coeffs.items():
        merged[m] = merged.get(m, F(0)) + a
    lhs = second_derivative(SechPolynomial(merged))
    dp, dq = second_derivative(p), second_derivative(q)
    summed = dict(dq.coeffs)
    for m, a in dp.coeffs.items():
        summed[m] = summed.get(m, F(0)) + a
    assert lhs == SechPolynomial(summed)


@given(st.dictionaries(st.integers(1, 6),
                       st.fractions(min_value=-50, max_value=50, max_denominator=20),
                       min_size=1))
def test_degree_raises_by_one(coeffs):
    p = SechPolynomial(coeffs)
    if p.is_zero:
        return
    assert second_derivative(p).degree == p.degree + 1


def test_rejects_constant_term():
    with pytest.raises(ValueError):
        SechPolynomial({0: F(1)})


# --- the recurrence itself

def test_leading_orders_gamma_1():
    t = build_series(1)
    assert t.u[0] == poly({1: 2})
    assert t.c[0] == 4
    assert t.u[1] == poly({1: -20, 2: 30})
    assert t.c[1] == 16


def test_leading_order_gamma_2():
    t = build_series(0, gamma=2)
    assert t.u[0] == poly({1: 8}, gamma=2)
    assert t.c[0] == 16


def test_c1_equals_c0_squared_any_gamma():
    for g in (F(1), F(2), F(1, 2), F(3, 5)):
        t = build_series(1, gamma=g)
        assert t.c[1] == t.c[0] ** 2


def test_order_two_frozen_fixture():
    # independently derived by direct substitution in a computer algebra
    # system: residual of the eps^4 equation vanishes identically and the
    # eigenvalue correction is uniquely zero
    t = build_series(2)
    assert t.u[2] == poly({1: 60, 2: -930, 3: 930})
    assert t.c[2] == 0


def test_eigenvalue_series_terminates():
    # c_n = 0 for every n >= 2: c = 4 g^2 + 16 g^4 eps^2 is the whole series
    t = build_series(12)
    assert all(cn == 0 for cn in t.c[2:])


def test_degrees_and_top_coefficients():
    t = build_series(30)
    for n in range(31):
        assert t.u[n].degree == n + 1
        assert t.top_coefficient(n) != 0


def inner_coefficients(m_max):
    """a_0..a_m_max of U = sum a_m z^{-(2m+2)} with U'''' + U'' + 3U^2 = 0,
    the inner problem at the singularity, from a_0 = -2."""
    a = [F(-2)]
    for m in range(1, m_max + 1):
        k = 2 * m
        rhs = (-3 * sum(a[i] * a[m - i] for i in range(1, m))
               - k * (k + 1) * (k + 2) * (k + 3) * a[m - 1])
        a.append(rhs / ((k + 2) * (k + 3) - 12))
    return a


@pytest.mark.parametrize("n_max, g", [(40, F(3, 2)), (30, F(1)), (24, F(2, 3))])
def test_top_coefficients_follow_the_inner_recurrence(n_max, g):
    # a second exact check of build_series that shares no code with it
    a = inner_coefficients(n_max)
    t = build_series(n_max, gamma=g)
    assert [t.top_coefficient(n) for n in range(n_max + 1)] == \
        [(-1) ** (n + 1) * g ** (2 * n + 2) * a[n] for n in range(n_max + 1)]


def test_exact_residual_is_zero_polynomial():
    t = build_series(10, gamma=F(2, 3))
    for n in range(11):
        assert order_residual(t, n).is_zero


def test_evenness_in_x():
    t = build_series(6)
    for n in range(7):
        for x in (0.37, 1.21, 2.9):
            assert eval_poly(t.u[n], x) == pytest.approx(eval_poly(t.u[n], -x),
                                                         rel=1e-12)


@given(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8))
@settings(max_examples=20, deadline=None)
def test_gamma_scaling(g):
    # a_{n,m}(gamma) = gamma^{2n+2} a_{n,m}(1), exactly
    ref = build_series(4)
    t = build_series(4, gamma=g)
    for n in range(5):
        scale = g ** (2 * n + 2)
        assert t.u[n].coeffs == {m: scale * a for m, a in ref.u[n].coeffs.items()}
        assert t.c[n] == scale * ref.c[n]


def test_determinism():
    a, b = build_series(8), build_series(8)
    assert a.u == b.u and a.c == b.c
    assert json.dumps(table_to_json(a), sort_keys=True) == \
        json.dumps(table_to_json(b), sort_keys=True)


@pytest.mark.parametrize("n_max, gamma, digest", [
    (30, F(1), "c440800824de426d9d354261f3fea1052930a17b964caeb326a8f1634b58739a"),
    (24, F(2, 3), "dbe251cf871410a5a8a33cdb481d45f8c5acb8ffe5245d5924036136055fbec6"),
    (40, F(3, 2), "feb13a248a2246aa211d06d67a5071c97ccc364ddb4700c79757ead99ebe532f"),
])
def test_table_json_hash_is_pinned(n_max, gamma, digest):
    # reference digests from an independent build: a per-coefficient
    # Fraction recurrence run directly at each gamma
    text = json.dumps(table_to_json(build_series(n_max, gamma)), indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _perturbed(t, n, delta_u, delta_c):
    # the table t with delta_u added to the top coefficient of u_n and
    # delta_c added to c_n
    u = list(t.u)
    coeffs = dict(u[n].coeffs)
    coeffs[n + 1] += delta_u
    u[n] = SechPolynomial(coeffs, t.gamma)
    c = list(t.c)
    c[n] += delta_c
    return SeriesTable(t.gamma, u, c)


PERTURBATIONS = pytest.mark.parametrize("delta_u, delta_c", [(F(1, 10**30), 0),
                                                              (0, F(1, 10**30))])


@PERTURBATIONS
def test_exact_residual_catches_a_perturbed_order(delta_u, delta_c):
    t = build_series(7, gamma=F(3, 2))
    bad = _perturbed(t, 7, delta_u, delta_c)
    assert not order_residual(bad, 7).is_zero
    assert all(order_residual(bad, n).is_zero for n in range(7))


@PERTURBATIONS
def test_build_verifies_the_rescaled_table(monkeypatch, delta_u, delta_c):
    # the exact check runs on the finished gamma table, so an error in the
    # rescale from gamma = 1 is caught, up to the last order
    rescaled = series._rescaled
    monkeypatch.setattr(series, "_rescaled", lambda u, c, g: _perturbed(
        rescaled(u, c, g), 7, delta_u, delta_c))
    with pytest.raises(RecurrenceError, match="order 7"):
        build_series(7, gamma=F(3, 2))


@pytest.mark.parametrize("gamma, error", [(0, ValueError), (-1, ValueError),
                                          (F(-1, 2), ValueError), (1.5, TypeError)])
def test_bad_gamma_rejected_before_any_order(monkeypatch, gamma, error):
    monkeypatch.setattr(series, "_solve_order", None)
    with pytest.raises(error):
        build_series(4, gamma=gamma)


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        build_series(10_000)


def test_negative_n_max_rejected():
    with pytest.raises(ValueError):
        build_series(-1)


# --- serialization

def test_save_table_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "table.json"
    t = build_series(2)
    save_table(t, path)
    assert load_table(path).u == t.u
    assert not path.read_text().endswith("\n")
    assert [p.name for p in path.parent.iterdir()] == ["table.json"]


def test_save_table_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        save_table(build_series(1), tmp_path / "table.json")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "table.json").stat().st_mode) == 0o644


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write(tmp_path / "out.json", None)
    assert list(tmp_path.iterdir()) == []


def test_json_shape():
    doc = table_to_json(build_series(1))
    assert doc == {
        "gamma": "1",
        "c": ["4", "16"],
        "u": [[["1", "2"]], [["1", "-20"], ["2", "30"]]],
    }


@given(st.integers(0, 5),
       st.fractions(min_value=F(1, 3), max_value=2, max_denominator=6))
@settings(max_examples=15, deadline=None)
def test_json_roundtrip_exact(n_max, g):
    t = build_series(n_max, gamma=g)
    back = table_from_json(json.loads(json.dumps(table_to_json(t))))
    assert back.gamma == t.gamma
    assert back.c == t.c
    assert back.u == t.u
