import hashlib
import json
import math
import os
import re
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
    singulant_report,
    table_from_json,
    table_to_json,
)
from fkdv import series
from fkdv.late_terms import inner_coefficients, report_to_json
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
    (60, F(2, 3), "c206582c4b4e7d9ced3cb4d56d2fe4b19bda24abe9351a26cf64db4cb28012c0"),
])
def test_table_json_hash_is_pinned(tmp_path, n_max, gamma, digest):
    # reference digests from an independent build: a per-coefficient
    # Fraction recurrence run directly at each gamma. (60, 2/3) was computed
    # at commit 4ddb67b, before the per-order and scale checks replaced its
    # re-check of the finished table; it runs the scale check deep with
    # p, q != 1. The file save_table writes must have the same bytes
    t = build_series(n_max, gamma)
    text = json.dumps(table_to_json(t), indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    save_table(t, tmp_path / "table.json")
    assert hashlib.sha256((tmp_path / "table.json").read_bytes()).hexdigest() == digest
    assert load_table(tmp_path / "table.json") == t


@pytest.mark.parametrize("table", [
    build_series(0),
    build_series(5, F(7, 5)),
    # a zero polynomial is the entry []
    SeriesTable(F(2, 3), [SechPolynomial({}, F(2, 3)),
                          SechPolynomial({1: F(-3, 4), 3: 5}, F(2, 3))], [0, F(-1, 9)]),
    SeriesTable(F(1), [], []),
], ids=["n_max=0", "gamma=7/5", "zero polynomial", "empty"])
def test_save_table_writes_the_json_dumps_bytes(tmp_path, table):
    save_table(table, tmp_path / "table.json")
    assert (tmp_path / "table.json").read_text() == \
        json.dumps(table_to_json(table), indent=1, sort_keys=True)
    assert load_table(tmp_path / "table.json") == table


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


def test_deep_table_is_pinned(tmp_path):
    # digest of the N_MAX_LIMIT table taken from the coefficient-by-coefficient
    # Cauchy products, before they were replaced by interpolation
    t = build_series(series.N_MAX_LIMIT)
    save_table(t, tmp_path / "table.json")
    assert hashlib.sha256((tmp_path / "table.json").read_bytes()).hexdigest() == \
        "9ba93da6e98430188c941fe67b8de6486f9d83391c2650d73cb1dada1bce748b"
    assert order_residual(t, 127).is_zero and order_residual(t, 128).is_zero


@pytest.mark.parametrize("n", [7, -1, -3, 100])
def test_order_residual_refuses_an_order_outside_the_table(n):
    # these raised IndexError or "max() arg is an empty sequence"
    with pytest.raises(ValueError, match=f"^order n = {n} outside 0..n_max = 6$"):
        order_residual(build_series(6), n)


def test_top_coefficient_refuses_an_order_outside_the_table():
    # a negative n would index from the end (-2 read u_4), and 6 lies past it
    t = build_series(5)
    for n in (-1, -2, 6):
        with pytest.raises(ValueError, match=f"^order n = {n} outside 0..n_max = 5$"):
            t.top_coefficient(n)


def _reference_cauchy(u, n):
    # sum_k u_k u_{n-k} coefficient by coefficient in Fractions, over
    # integer forms (nums, den)
    out = {}
    for k in range(n + 1):
        (a, da), (b, db) = u[k], u[n - k]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out.get(i + j, F(0)) + F(x * y, da * db)
    return {m: x for m, x in out.items() if x}


def _as_coeffs(nums, den):
    return {m: F(x, den) for m, x in enumerate(nums) if x}


# integer forms of degree 0 (the zero polynomial) to 9, above n + 1 for n < 8
INT_FORMS = st.builds(lambda nums, den: ([0, *nums], den),
                      st.lists(st.integers(-10**40, 10**40), max_size=9),
                      st.integers(1, 10**12))


@given(st.integers(0, 8).flatmap(lambda n: st.lists(INT_FORMS, min_size=n + 1,
                                                    max_size=n + 1)))
@settings(max_examples=200, deadline=None)
def test_cauchy_matches_the_schoolbook_product(u):
    n = len(u) - 1
    assert _as_coeffs(*series._cauchy(u, n, {})) == _reference_cauchy(u, n)


@given(st.integers(0, 6), st.fractions(max_denominator=10**6).filter(bool))
@settings(max_examples=30, deadline=None)
def test_order_residual_reads_a_power_above_the_degree_invariant(n, extra):
    # u_n carries an extra S^{n+3}: every order from n on must see it
    t = build_series(6, F(3, 2))
    u = list(t.u)
    u[n] = SechPolynomial({**u[n].coeffs, n + 3: extra}, t.gamma)
    bad = SeriesTable(t.gamma, u, t.c)
    forms = [p.int_form for p in u]
    for m in range(n, 7):
        # u_{m-1}'''' + u_m'' + 3 sum_k u_k u_{m-k} - sum_k c_k u_{m-k}
        terms = [(1, second_derivative(u[m]))]
        terms += [(-ck, u[m - k]) for k, ck in enumerate(t.c[:m + 1])]
        if m:
            terms.append((1, fourth_derivative(u[m - 1])))
        ref = {j: 3 * x for j, x in _reference_cauchy(forms, m).items()}
        for scale, p in terms:
            for j, x in p.coeffs.items():
                ref[j] = ref.get(j, F(0)) + scale * x
        assert order_residual(bad, m).coeffs == {j: x for j, x in ref.items() if x}
    assert all(order_residual(bad, m).is_zero for m in range(n))


@pytest.mark.parametrize("k, index", [(1, 0), (1, 2), (4, 5), (9, 0), (12, 17)])
def test_build_refuses_a_wrong_point_value(monkeypatch, k, index):
    # one stored value of v_k = u_k / S (index in the order s = 0, 1, -1,
    # 2, ...) off by 1, so the interpolated Cauchy product is no integer
    # polynomial, or off by 60!, which keeps every Delta^i w / i! an integer
    # (i <= d <= 20 here) and leaves only the top difference Delta^{d+1} w != 0:
    # either way the build raises instead of returning a table
    values = series._values
    for offset in (1, math.factorial(60)):
        hit = []

        def off_by(nums, vals, count):
            values(nums, vals, count)
            if len(nums) == k + 2 and len(vals) > index and not hit:
                vals[index] += offset
                hit.append(index)

        monkeypatch.setattr(series, "_values", off_by)
        with pytest.raises(RecurrenceError, match="^inexact interpolation at order "):
            build_series(20, F(3, 2))
        assert hit


@PERTURBATIONS
def test_build_verifies_the_rescaled_table(monkeypatch, delta_u, delta_c):
    # the exact check runs on the finished gamma table, so an error in the
    # rescale from gamma = 1 is caught, up to the last order
    rescaled = series._rescaled
    monkeypatch.setattr(series, "_rescaled", lambda u, c, g: _perturbed(
        rescaled(u, c, g), 7, delta_u, delta_c))
    with pytest.raises(RecurrenceError, match="order 7"):
        build_series(7, gamma=F(3, 2))


@pytest.mark.parametrize("k", range(7))
@PERTURBATIONS
def test_build_verifies_every_rescaled_order(monkeypatch, k, delta_u, delta_c):
    # orders 0..6; order 7 is the test above
    rescaled = series._rescaled
    monkeypatch.setattr(series, "_rescaled", lambda u, c, g: _perturbed(
        rescaled(u, c, g), k, delta_u, delta_c))
    with pytest.raises(RecurrenceError, match=f"order {k}$"):
        build_series(7, gamma=F(3, 2))


@pytest.mark.parametrize("k", [0, 3, 7])
def test_build_verifies_no_stray_power_in_the_rescaled_table(monkeypatch, k):
    # a power above the degree invariant, S^{k+2} in u_k
    rescaled = series._rescaled

    def stray(u, c, g):
        t = rescaled(u, c, g)
        polys = list(t.u)
        polys[k] = SechPolynomial({**polys[k].coeffs, k + 2: F(1, 10**30)}, g)
        return SeriesTable(g, polys, t.c)

    monkeypatch.setattr(series, "_rescaled", stray)
    with pytest.raises(RecurrenceError, match=f"order {k}$"):
        build_series(7, gamma=F(3, 2))


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("delta_u, delta_c", [(1, 0), (0, F(1, 10**30))])
def test_build_verifies_each_solved_order(monkeypatch, k, delta_u, delta_c):
    # each order is checked as it is solved, outside _solve_order: a wrong
    # u_n (top numerator off by one) or c_n it returns is caught at its order
    solve = series._solve_order

    def wrong(rhs, rhs_den, n):
        (nums, den), c_n = solve(rhs, rhs_den, n)
        if n == k:
            nums = [*nums[:-1], nums[-1] + delta_u]
            c_n += delta_c
        return (nums, den), c_n

    monkeypatch.setattr(series, "_solve_order", wrong)
    with pytest.raises(RecurrenceError, match=f"order {k}$"):
        build_series(7, gamma=F(3, 2))


@pytest.mark.parametrize("gamma, error", [(0, ValueError), (-1, ValueError),
                                          (F(-1, 2), ValueError), (1.5, TypeError)])
def test_bad_gamma_rejected_before_any_order(monkeypatch, gamma, error):
    monkeypatch.setattr(series, "_solve_order", None)
    with pytest.raises(error):
        build_series(4, gamma=gamma)


@pytest.mark.parametrize("gamma", [F(0), F(-1)])
def test_table_refuses_a_nonpositive_gamma(gamma):
    # a gamma = -1 table once built, and save_table wrote a file that
    # load_table then refused
    with pytest.raises(ValueError, match="^gamma must be positive$"):
        SeriesTable(gamma, [SechPolynomial({1: 2})], [4])


@pytest.mark.parametrize("entry", [SechPolynomial({1: 2}), {1: 2}, 2])
def test_table_refuses_an_entry_off_its_gamma(entry):
    # a file carries only the table's gamma: a u_1 at gamma = 1 in a
    # gamma = 3/2 table came back from a round trip as another table
    with pytest.raises(ValueError, match="^u_1 is not a SechPolynomial at gamma = 3/2$"):
        SeriesTable(F(3, 2), [SechPolynomial({1: 2}, F(3, 2)), entry], [4, 1])


def test_table_refuses_u_and_c_of_unequal_length():
    with pytest.raises(ValueError, match="^u and c must have equal length$"):
        SeriesTable(F(1), [SechPolynomial({1: 2})], [4, 16])


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
    # the second text fails to write: the first is not renamed either
    with pytest.raises(TypeError, match="write.. argument must be str"):
        atomic_write({tmp_path / "a.json": "{}", tmp_path / "out.json": None})
    assert list(tmp_path.iterdir()) == []


def test_write_onto_a_directory_is_refused_before_any_rename(tmp_path):
    (tmp_path / "d").mkdir()
    texts = {tmp_path / "a.json": "{}", tmp_path / "d": "x", tmp_path / "b.json": "y"}
    with pytest.raises(IsADirectoryError, match="Is a directory: .*d$"):
        atomic_write(texts)
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    del texts[tmp_path / "d"]
    atomic_write(texts)  # in order, each path its own text
    assert {p: p.read_text() for p in texts} == texts


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


def _load_doc(tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    return load_table(path)


def test_load_reduces_an_unreduced_ratio(tmp_path):
    t = _load_doc(tmp_path, {"gamma": "6/4", "c": ["18/2"],
                             "u": [[["1", "2/4"], ["2", "0/7"]]]})
    assert t.gamma == F(3, 2) and t.c == (9,)
    assert t.u[0] == SechPolynomial({1: F(1, 2)}, F(3, 2))
    assert t.u[0].int_form == ((0, 1), 2)


@pytest.mark.parametrize("bad", ["1/0", "1.5", "", "+1", " 1", "1 ", "1_0",
                                 "--1", "1/-2", "1/2/3", "0x1", "\uff11", 1])
def test_load_refuses_what_save_never_writes(tmp_path, bad):
    # order 1, power 2 of the table build_series(1)
    doc = table_to_json(build_series(1))
    doc["u"][1][1][1] = bad
    with pytest.raises(ValueError, match="^order 1, power 2: "):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("field, bad, where", [("gamma", "1.5", "gamma"),
                                               ("gamma", "0", "gamma"),
                                               ("c", ["4", "1/0"], "c at order 1")])
def test_load_refuses_a_bad_gamma_or_c(tmp_path, field, bad, where):
    doc = {**table_to_json(build_series(1)), field: bad}
    with pytest.raises(ValueError, match=f"^{where}"):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("first", ["2", "0"])
def test_load_refuses_a_power_given_twice(tmp_path, first):
    # once loaded as the last of the two, 3 S
    doc = {"gamma": "1", "c": ["4"], "u": [[["1", first], ["1", "3"]]]}
    with pytest.raises(ValueError, match="^order 0, power 1: power given twice$"):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("doc, message", [
    # a string stood in for a list: c = (1, 6) with two zero orders, and
    # the entry ["12"] loaded as 2 S
    ({"gamma": "1", "c": "16", "u": ["", ""]}, 'expected a JSON object with a list "c"'),
    ({"gamma": "1", "c": ["4", "16"], "u": ["", ""]}, "order 0: '' is not a list of pairs"),
    ({"gamma": "1", "c": ["4"], "u": [["12"]]},
     "order 0: '12' is not a [power, coefficient] pair"),
    # these raised unpacking errors, KeyError and TypeError, naming nothing
    ({"gamma": "1", "c": ["4"], "u": [[["1", "2", "3"]]]},
     "order 0: ['1', '2', '3'] is not a [power, coefficient] pair"),
    ({"gamma": "1", "c": ["4"], "u": [{"1": "2"}]},
     "order 0: {'1': '2'} is not a list of pairs"),
    ({"gamma": "1", "c": ["4"]}, 'expected a JSON object with a list "u"'),
    ([], 'expected a JSON object with a list "c"'),
    ({"c": ["4"], "u": [[["1", "2"]]]}, "gamma: expected an integer or an integer "
                                        "over a positive integer, got None"),
], ids=["c-string", "u-strings", "pair-string", "pair-of-three", "entry-object",
        "no-u", "list", "no-gamma"])
def test_load_refuses_a_document_of_the_wrong_shape(tmp_path, doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        table_from_json(doc)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("power", ["0", "-1", "1.0", ""])
def test_load_refuses_a_bad_power(tmp_path, power):
    doc = table_to_json(build_series(1))
    doc["u"][1][0][0] = power
    with pytest.raises(ValueError, match="^order 1, power "):
        _load_doc(tmp_path, doc)


COEFF_MAPS = st.dictionaries(st.integers(1, 6),
                             st.fractions(min_value=-50, max_value=50, max_denominator=20),
                             max_size=5)


def _assert_canonical(p):
    nums, den = p.int_form
    assert den > 0 and math.gcd(den, *nums) == 1
    assert nums[0] == 0 and (nums[-1] != 0 or nums == (0,))
    assert p.degree == len(nums) - 1 and p.is_zero == (nums == (0,))


@given(COEFF_MAPS, COEFF_MAPS, st.sampled_from([F(1), F(3, 2), F(2, 3)]),
       st.integers(-30, 30).filter(bool), st.integers(0, 3))
def test_integer_form_is_canonical(a, b, g, k, z):
    p, q = SechPolynomial(a, g), SechPolynomial(b, g)
    for r in (p, q, second_derivative(p)):
        _assert_canonical(r)
    assert SechPolynomial(p.coeffs, g) == p
    assert (p == q) == (p.coeffs == q.coeffs)
    # the same polynomial from a scaled form with trailing zeros
    nums, den = p.int_form
    same = series._poly([k * x for x in nums] + [0] * z, k * den, g)
    assert same == p and same.int_form == p.int_form
    assert SechPolynomial({**a, 7: 0}, g) == p


def test_build_save_load_and_report_never_make_coefficient_fractions(tmp_path):
    # the design: the series tables live as integer forms, and the report
    # reads top coefficients and evaluations off them directly
    t = build_series(40, F(3, 2))
    save_table(t, tmp_path / "table.json")
    loaded = load_table(tmp_path / "table.json")
    report_to_json(singulant_report(loaded), loaded)
    assert not [p for p in (*t.u, *loaded.u) if "coeffs" in vars(p)]
