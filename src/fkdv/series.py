"""Exact asymptotic-series engine for the steady fifth-order KdV equation

    eps^2 u'''' + u'' + 3 u^2 - c u = 0,   u -> 0 as |x| -> inf.

Substituting u = sum eps^{2n} u_n, c = sum eps^{2n} c_n and collecting powers
of eps^2 produces a hierarchy that closes over polynomials in S = sech^2(g x)
with no constant term: the leading order gives u_0 = 2 g^2 S, c_0 = 4 g^2, and
every higher order is fixed by a linear solve plus one solvability condition.
All arithmetic is exact; coefficients grow factorially, so fixed-width numbers
would overflow within a dozen orders. The orders are solved at g = 1, each as
integer numerators over one common denominator, and the table is rescaled
exactly at the end: a_{n,m}(g) = g^{2n+2} a_{n,m}(1), c_n(g) = g^{2n+2} c_n(1).
A SechPolynomial stores that integer form in lowest terms, as built, saved and
loaded; a Fraction per coefficient is made only if `coeffs` is read.

Each build proves its table exact without a second pass. Every order is
checked against its full equation as it is solved, from the right-hand side
the solve used, in O(n) big-integer work; the rescaled table is then checked
against the g = 1 orders by cross-multiplication. Every term of the order-n
equation is a product of degree 2n + 4 in g under that scaling (d^2/dx^2
carries g^2, u_k carries g^{2k+2}, c_k likewise), so the residual at g is
g^{2n+4} times the residual at g = 1, coefficient by coefficient, and the two
checks prove that order_residual vanishes at every order of the g table.

The only calculus needed is the closed-basis identity

    d^2/dx^2 (S^m) = g^2 [ 4 m^2 S^m - (4 m^2 + 2 m) S^{m+1} ],

which follows from S' = -2 g S tanh(g x) and tanh^2 = 1 - S.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational
from pathlib import Path


class RecurrenceError(ArithmeticError):
    """Structural failure of the order-by-order linear solve.

    Raised when a solved order does not have degree n + 1, when a solved
    order does not satisfy its full equation exactly at gamma = 1, when an
    order of the rescaled table is not gamma^{2n+2} times that checked
    order ("nonzero exact residual at order n"), or when the Cauchy product
    of order n does not interpolate to one integer polynomial through all
    its points ("inexact interpolation at order n"). Every condition
    indicates an implementation bug, not a legitimate math case.
    """


class ResourceLimitError(ValueError):
    """Requested series depth exceeds the configured limit."""


#: Orders beyond this are refused: coefficient sizes grow like O(n log n)
#: digits, and build_series(n) takes 0.007 s at n = 30, 0.049 s at 60, 0.20 s
#: at 90 and 0.85 s at 128 (Python 3.11.7, one core of a 2-core machine,
#: minimum process time of 3 to 5 runs), about 80 % of it at n = 128 the
#: Cauchy products of the right-hand sides.
N_MAX_LIMIT = 128


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _gamma(x) -> Fraction:
    """x as an exact rational, refused unless positive."""
    g = _rat(x)
    if g <= 0:
        raise ValueError("gamma must be positive")
    return g


def _int_form(terms: dict[int, tuple[int, int]]) -> tuple[list[int], int]:
    """(nums, den) of sum p / q S^m over {m: (p, q)}, den the lcm of the q."""
    den = math.lcm(*(q for _, q in terms.values()))
    nums = [0] * (max(terms, default=0) + 1)
    for m, (p, q) in terms.items():
        nums[m] = p * (den // q)
    return nums, den


@dataclass(frozen=True, init=False)
class SechPolynomial:
    """Polynomial sum_m a_m S^m, S = sech^2(gamma x), exact coefficients.

    Powers start at m = 1 so every represented function decays at infinity.
    The storage is the canonical integer form `int_form`, (nums, den): a_m =
    nums[m] / den, with nums[0] = 0 for the absent constant term, den > 0,
    gcd(den, *nums) = 1 and no trailing zero numerator, so the zero
    polynomial is ((0,), 1). Equal polynomials have equal forms, which
    equality compares; gamma is the table's. `coeffs`, the {power: Fraction}
    map of the nonzero coefficients, is built only when first read.
    """

    int_form: tuple[tuple[int, ...], int]

    def __init__(self, coeffs):
        terms = {m: _rat(a).as_integer_ratio() for m, a in coeffs.items()}
        for m in terms:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"powers must be integers >= 1, got {m!r}")
        _store(self, *_int_form(terms))

    @cached_property
    def coeffs(self) -> dict[int, Fraction]:
        nums, den = self.int_form
        return {m: Fraction(x, den) for m, x in enumerate(nums) if x}


def _store(p: SechPolynomial, nums, den: int) -> SechPolynomial:
    """Store sum nums[m] S^m / den in p in canonical form: one gcd for the
    whole polynomial, the sign on the numerators, trailing zeros dropped."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    top = len(nums) - 1
    while top > 0 and not nums[top]:
        top -= 1
    object.__setattr__(p, "int_form", (tuple(x // g for x in nums[:top + 1]), den // g))
    return p


# ---------------------------------------------------------------------------
# arithmetic on integer forms (SechPolynomial.int_form)

def _poly(nums: list[int], den: int) -> SechPolynomial:
    """The polynomial sum nums[m] S^m / den."""
    return _store(object.__new__(SechPolynomial), nums, den)


def _d2(nums: list[int]) -> list[int]:
    """d^2/dx^2 at gamma = 1; the factor g^2 is left to the caller."""
    out = [0] * (len(nums) + 1)
    for m, a in enumerate(nums):
        if a:
            out[m] += 4 * m * m * a
            out[m + 1] -= (4 * m * m + 2 * m) * a
    return out


def _combine(terms) -> tuple[list[int], int]:
    """Sum of scale * nums / den over (scale, nums, den), over the lcm of the dens."""
    den = math.lcm(*(d for _, _, d in terms))
    out = [0] * max(len(nums) for _, nums, _ in terms)
    for scale, nums, d in terms:
        f = scale * (den // d)
        for m, x in enumerate(nums):
            out[m] += f * x
    return out, den


def _values(nums, vals: list[int], count: int) -> None:
    """Extend vals, the values of the integer form nums over S, v(s) =
    sum_m nums[m] s^{m-1}, to at least count points in the order s = 0, 1,
    -1, 2, -2, ...: the first d + 1 of them are consecutive for every d.
    One pass per |s|: v(+-s) = E(s^2) +- s O(s^2), with E and O the even
    and odd parts of v, each by Horner's rule."""
    even, odd = nums[-1:0:-2], nums[-2:0:-2]  # highest power first
    if len(nums) % 2:
        even, odd = odd, even
    if not vals:
        vals.append(nums[1])
    for s in range(len(vals) // 2 + 1, count // 2 + 1):
        t, e, o = s * s, 0, 0
        for x in even:
            e = e * t + x
        for x in odd:
            o = o * t + x
        o *= s
        vals += (e + o, e - o)


def _cauchy(u, n: int, vals: dict) -> tuple[list[int], int]:
    """sum_{k=0..n} u_k u_{n-k} over integer forms u; each pair k < n - k
    counts twice, the middle term k = n/2 once.

    The sum is found from its values at integer points. Over the common
    denominator and S^2 it is an integer polynomial w(s) in s = S, of
    degree d, the largest degree of v_k v_{n-k}, v_k = u_k / S, read off
    the lengths of the forms. Its values at the d + 2 points s = -h..d + 1 - h,
    h = floor((d + 1) / 2), are sums of products of the values of the v_k,
    each pair's product scaled to the common denominator. Newton's forward
    differences from s = -h give its coefficients c_i = Delta^i w / i! in
    the falling-factorial basis, exact integers for an integer polynomial,
    and Delta^{d+1} w = 0, which one wrong value anywhere breaks; a nonzero
    remainder or top difference raises RecurrenceError naming the order.
    Multiplying out into powers of s and shifting by S^2 gives the sum: O(n^2)
    big-integer products per order against the O(n^3) of the schoolbook way.

    vals[k] caches the values of the nonzero u[k] (_values), extended as a
    wider product needs them: a build, whose orders never change once
    solved, keeps one cache across its orders, so each order is evaluated
    once per point. Kronecker substitution (one big-integer product per
    pair, packed and unpacked through bytes) is not used: its builds
    measured 1.45-1.65x slower than coefficient by coefficient at n = 40-128,
    and 1.9-7.8x slower than this, as the rows of small k are padded to
    the widest coefficient's width.
    """
    ks = range(n // 2 + 1)
    den = math.lcm(*(u[k][1] * u[n - k][1] for k in ks))
    pairs = [k for k in ks if len(u[k][0]) > 1 and len(u[n - k][0]) > 1]
    if not pairs:
        return [0], den
    d = max(len(u[k][0]) + len(u[n - k][0]) for k in pairs) - 4
    h = (d + 1) // 2
    for k in {*pairs, *(n - k for k in pairs)}:
        v = vals.setdefault(k, [])
        if len(v) <= d + 1:
            _values(u[k][0], v, d + 2)
    w = [0] * (d + 2)  # zip stops at the first d + 2 points
    for k in pairs:
        f = den // (u[k][1] * u[n - k][1]) * (1 if 2 * k == n else 2)
        w = [x + f * y * z for x, y, z in zip(w, vals[k], vals[n - k])]
    w = w[2 * h::-2] + w[1::2]  # s = -h..d + 1 - h in ascending order
    # Newton's forward differences: w[i] becomes Delta^i w at s = -h
    for i in range(1, d + 2):
        w[i:] = [y - x for x, y in zip(w[i - 1:], w[i:])]
    if w.pop():  # a polynomial of degree d has Delta^{d+1} w = 0
        raise RecurrenceError(f"inexact interpolation at order {n}")
    fact = 1
    for i in range(2, d + 1):
        fact *= i
        w[i], r = divmod(w[i], fact)
        if r:
            raise RecurrenceError(f"inexact interpolation at order {n}")
    # w(s) = w[0] + (s + h)(w[1] + (s + h - 1)(w[2] + ...)), into powers of s
    p = [w[d]]
    for i in range(d - 1, -1, -1):
        a = i - h
        p = [w[i] - a * p[0], *[x - a * y for x, y in zip(p, p[1:])], p[-1]]
    return [0, 0, *p], den


def second_derivative(p: SechPolynomial, gamma) -> SechPolynomial:
    """Exact d^2/dx^2 of p in S = sech^2(gamma x); degree rises by exactly one."""
    g2 = _gamma(gamma) ** 2
    nums, den = p.int_form
    return _poly([g2.numerator * x for x in _d2(nums)], den * g2.denominator)


def fourth_derivative(p: SechPolynomial, gamma) -> SechPolynomial:
    """Exact d^4/dx^4; composition of second_derivative with itself."""
    return second_derivative(second_derivative(p, gamma), gamma)


@dataclass(frozen=True)
class SeriesTable:
    """The family {u_n, c_n} for n = 0..n_max at a fixed rational gamma.

    Every u_n is a SechPolynomial in S = sech^2(gamma x), with gamma held
    here alone, as a saved file holds it. Immutable; safe to share across threads.
    """

    gamma: Fraction
    u: tuple[SechPolynomial, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", _gamma(self.gamma))
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "c", tuple(_rat(ci) for ci in self.c))
        if len(self.u) != len(self.c):
            raise ValueError("u and c must have equal length")
        for n, p in enumerate(self.u):
            if not isinstance(p, SechPolynomial):
                raise ValueError(f"u_{n} is not a SechPolynomial")

    @property
    def n_max(self) -> int:
        return len(self.u) - 1

    def top_coefficient(self, n: int) -> Fraction:
        """Coefficient of S^{n+1} in u_n (the degree invariant pins it); an
        n outside 0..n_max, or a u_n of degree below n + 1, raises ValueError."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"order n = {n} outside 0..n_max = {self.n_max}")
        nums, den = self.u[n].int_form
        if len(nums) <= n + 1:
            raise ValueError(f"u_{n} has degree {len(nums) - 1}, below n + 1 = {n + 1}")
        return Fraction(nums[n + 1], den)


def _residual(u, c, gamma: Fraction, n: int, vals: dict) -> tuple[list[int], int]:
    """order_residual over the integer forms u of orders 0..n; vals is the
    cache of point values _cauchy keeps."""
    g2 = gamma * gamma
    nums, den = u[n]
    terms = [(g2.numerator, _d2(nums), den * g2.denominator), (3, *_cauchy(u, n, vals))]
    if n >= 1:
        prev, dprev = u[n - 1]
        terms.append((g2.numerator ** 2, _d2(_d2(prev)), dprev * g2.denominator ** 2))
    terms += [(-ck.numerator, u[n - k][0], ck.denominator * u[n - k][1])
              for k, ck in enumerate(c[:n + 1]) if ck]
    return _combine(terms)


def order_residual(table: SeriesTable, n: int) -> SechPolynomial:
    """Exact coefficient of eps^{2n} after substituting the expansion.

    The full order-eps^{2n} equation is

        u_{(n-1)xxxx} + u_n'' + 3 sum_{k=0..n} u_k u_{n-k}
                                - sum_{k=0..n} c_k u_{n-k} = 0,

    the complete Cauchy products of 3u^2 and c u. A correctly solved table
    returns the zero polynomial for every n <= n_max; an n outside 0..n_max
    raises ValueError.
    """
    if not 0 <= n <= table.n_max:
        raise ValueError(f"order n = {n} outside 0..n_max = {table.n_max}")
    u = [p.int_form for p in table.u[:n + 1]]
    return _poly(*_residual(u, table.c, table.gamma, n, {}))


def _solve_order(F: list[int], R: int, n: int) -> tuple[tuple[list[int], int], Fraction]:
    """Solve L u_n = c_n u_0 + F / R for the integer form of u_n and for c_n,
    at gamma = 1. F / R (rows S^0 .. S^{n+2}) collects every known lower
    order: it is minus the full order-n residual at u_n = 0, c_n = 0.

    The linearized operator L = d^2/dx^2 + 6 u_0 - c_0 acts on the basis as

        L(S^m) = (4 m^2 - 4) S^m + (12 - 4 m^2 - 2 m) S^{m+1},

    so its diagonal vanishes exactly at m = 1: the S^1 component of the
    right-hand side must vanish, and that single linear condition fixes c_n.
    The remaining rows are triangular from the top degree downward (the
    sub-diagonal entry 12 - 4m^2 - 2m = -2(2m - 3)(m + 2) has no integer
    roots m >= 1), so u_n has the denominator R * prod(sub-diagonal) before
    reduction.
    """
    # solvability at the S^1 row: 2 c_n + F_1 / R = 0, as u_0 = 2 S
    c_n = Fraction(-F[1], 2 * R)

    # back-substitute rows p = n+2 .. 2; row p couples a_p (diagonal) and
    # a_{p-1} (sub-diagonal), and a_{n+2} = 0 by the degree invariant. a[m]
    # holds a_m R P, P the product of all pivots: a_m R prod_{j >= m} sub_j is
    # an integer by induction down the rows, so each division is exact.
    sub = [12 - 4 * m * m - 2 * m for m in range(n + 2)]
    P = math.prod(sub[1:])
    a = [0] * (n + 3)
    for p in range(n + 2, 1, -1):
        a[p - 1] = (F[p] * P - (4 * p * p - 4) * a[p]) // sub[p - 1]
    den = R * P
    g = math.gcd(den, *a) * (1 if den > 0 else -1)
    nums = [x // g for x in a[:n + 2]]
    if nums[n + 1] == 0:
        degree = max((m for m, x in enumerate(nums) if x), default=0)
        raise RecurrenceError(f"deg(u_{n}) = {degree}, expected {n + 1}")
    return (nums, den // g), c_n


def _order_equation(u_n, c_n: Fraction, F: list[int], R: int) -> list[int]:
    """Numerators of L u_n - c_n u_0 - F / R at gamma = 1, with
    L u = u'' + 12 S u - 4 u (u_0 = 2 S, c_0 = 4). This is the full order-n
    residual: it is linear in u_n and c_n, and -F / R at u_n = c_n = 0."""
    nums, den = u_n
    lu = _d2(nums)
    for m, x in enumerate(nums):
        lu[m] -= 4 * x
        lu[m + 1] += 12 * x
    return _combine([(1, lu, den), (-2 * c_n.numerator, [0, 1], c_n.denominator),
                     (-1, F, R)])[0]


def _rescaled(u, c, gamma: Fraction) -> SeriesTable:
    """The table at gamma from the gamma = 1 orders, exactly:
    a_{n,m}(gamma) = gamma^{2n+2} a_{n,m}(1) and c_n(gamma) = gamma^{2n+2} c_n(1)."""
    polys, cs = [], []
    for n, ((nums, den), c_n) in enumerate(zip(u, c)):
        s = gamma ** (2 * n + 2)
        polys.append(_poly([s.numerator * x for x in nums], s.denominator * den))
        cs.append(s * c_n)
    return SeriesTable(gamma, polys, cs)


def build_series(n_max: int, gamma=Fraction(1)) -> SeriesTable:
    """Build the table {u_n, c_n} for n = 0..n_max.

    Every order is solved at gamma = 1 in integer form and checked at once
    against its full equation (_order_equation on the solve's right-hand
    side); the finished table is rescaled exactly to gamma, and each of its
    orders is checked by cross-multiplication to be gamma^{2n+2} times the
    checked gamma = 1 order. The order-n equation is homogeneous of degree
    2n + 4 under that scaling, so the two checks prove that every order of
    the gamma table satisfies its full equation (order_residual) exactly.
    Either failure raises RecurrenceError naming the order.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > N_MAX_LIMIT:
        raise ResourceLimitError(f"n_max = {n_max} exceeds limit {N_MAX_LIMIT}")
    g = _gamma(gamma)
    u, c = [([0, 2], 1)], [Fraction(4)]  # u_0 = 2 S, c_0 = 4 at gamma = 1
    vals = {}  # the point values of the solved orders, kept for every product
    if any(_residual(u, c, Fraction(1), 0, vals)[0]):
        raise RecurrenceError("nonzero exact residual at order 0")
    for n in range(1, n_max + 1):
        # rhs of L u_n = c_n u_0 + F / R: minus the residual at u_n = c_n = 0
        F, R = _residual([*u, ([0], 1)], [*c, Fraction(0)], Fraction(1), n, vals)
        F = [-x for x in F]
        u_n, c_n = _solve_order(F, R, n)
        if any(_order_equation(u_n, c_n, F, R)):
            raise RecurrenceError(f"nonzero exact residual at order {n}")
        u.append(u_n)
        c.append(c_n)
    table = _rescaled(u, c, g)
    p, q = g.numerator, g.denominator
    for n, ((nums, den), c_n) in enumerate(zip(u, c)):
        # order n of the table must be (p/q)^{2n+2} times the gamma = 1 order
        s_p, s_q = p ** (2 * n + 2), q ** (2 * n + 2)
        t_nums, t_den = table.u[n].int_form
        t_c = table.c[n]
        if (any(x * s_q * den != y * s_p * t_den
                for x, y in zip_longest(t_nums, nums, fillvalue=0))
                or t_c.numerator * s_q * c_n.denominator
                != c_n.numerator * s_p * t_c.denominator):
            raise RecurrenceError(f"nonzero exact residual at order {n}")
    return table


# ---------------------------------------------------------------------------
# serialization: rationals as decimal strings so nothing is rounded, each
# coefficient in lowest terms as str(Fraction) writes it

def _ratio_str(x: int, den: int) -> str:
    """x / den in lowest terms, as str(Fraction(x, den)) writes it."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def table_to_json(table: SeriesTable) -> dict:
    u = []
    for p in table.u:
        nums, den = p.int_form
        u.append([[str(m), _ratio_str(x, den)] for m, x in enumerate(nums) if x])
    return {"gamma": str(table.gamma), "c": [str(ci) for ci in table.c], "u": u}


def _parse_ratio(s) -> tuple[int, int]:
    """(p, q) from "p" or "p/q", the grammar stated in load_table."""
    if isinstance(s, str) and s.isascii():
        p, slash, q = s.partition("/")
        if p.removeprefix("-").isdigit() and (not slash or q.isdigit()):
            q = int(q) if slash else 1
            if q:
                return int(p), q
    raise ValueError(f"expected an integer or an integer over a positive "
                     f"integer, got {s!r}")


def _parse_power(s) -> int:
    if isinstance(s, str) and s.isascii() and s.isdigit() and int(s) >= 1:
        return int(s)
    raise ValueError(f"expected a power >= 1, got {s!r}")


def _load_fraction(s, where: str) -> Fraction:
    try:
        return Fraction(*_parse_ratio(s))
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def table_from_json(doc: dict) -> SeriesTable:
    """The table saved by table_to_json; load_table states the grammar."""
    for key in ("c", "u"):
        if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
            raise ValueError(f'expected a JSON object with a list "{key}"')
    gamma = _gamma(_load_fraction(doc.get("gamma"), "gamma"))
    c = [_load_fraction(s, f"c at order {n}") for n, s in enumerate(doc["c"])]
    u = []
    for n, entry in enumerate(doc["u"]):
        if not isinstance(entry, list):
            raise ValueError(f"order {n}: {entry!r} is not a list of pairs")
        terms = {}
        for pair in entry:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"order {n}: {pair!r} is not a [power, coefficient] pair")
            m, a = pair
            try:
                power = _parse_power(m)
                if power in terms:
                    raise ValueError("power given twice")
                terms[power] = _parse_ratio(a)
            except ValueError as e:
                raise ValueError(f"order {n}, power {m}: {e}") from None
        u.append(_poly(*_int_form(terms)))  # reduced once by _poly
    return SeriesTable(gamma, u, c)


def atomic_write(texts) -> None:
    """Write an ordered path -> text mapping: every text to a temp file next
    to its path, creating parent directories, then the renames in order.
    Readers never see a partial file; a path that is a directory or a failed
    write raises before any rename, and a failure removes the temp files. A
    file gets the mode a plain open() would (0o666 less the umask)."""
    temps = {}
    try:
        for path, text in texts.items():
            path = Path(path)
            if path.is_dir():
                raise IsADirectoryError(f"Is a directory: {path}")
            path.parent.mkdir(parents=True, exist_ok=True)
            # O_EXCL on a random name: never clobbers another writer's temp file
            tmp = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            temps[tmp] = path
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, path in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise


def _json_list(items: list[str], pad: str) -> str:
    """JSON list of encoded items, laid out as json.dumps(indent=1) lays out
    a list that opens at indentation pad."""
    if not items:
        return "[]"
    return f"[\n {pad}" + f",\n {pad}".join(items) + f"\n{pad}]"


def _table_text(table: SeriesTable) -> str:
    """Exactly the text of json.dumps(table_to_json(table), indent=1,
    sort_keys=True), written straight from the integer forms, one gcd per
    coefficient: with an indent, json.dumps runs its pure-Python encoder.
    Every string is ASCII digits, '-' and '/', which JSON writes unescaped."""
    orders = []
    for p in table.u:
        nums, den = p.int_form
        orders.append(_json_list([f'[\n    "{m}",\n    "{_ratio_str(x, den)}"\n   ]'
                                  for m, x in enumerate(nums) if x], "  "))
    c = _json_list([f'"{ci}"' for ci in table.c], " ")
    return (f'{{\n "c": {c},\n "gamma": "{table.gamma}",\n'
            f' "u": {_json_list(orders, " ")}\n}}')


def save_table(table: SeriesTable, path) -> None:
    """Atomic JSON dump of the exact table (text: `_table_text`)."""
    atomic_write({path: _table_text(table)})


def load_table(path) -> SeriesTable:
    """Read a table written by save_table.

    The file is an object with gamma, a list c and a list u whose order n is
    a list of [m, a_{n,m}] pairs. Every rational (gamma, c_n and a_{n,m}) must
    be a string holding an integer, or an integer, a slash and a positive
    integer, in ASCII digits with an optional minus on the first integer:
    exactly what save_table writes. Each power m must be a string holding an
    integer >= 1, given at most once in its order. An unreduced ratio such
    as "2/4" loads as its lowest terms; anything else ("1/0", "1.5", "", a
    string for a list) raises ValueError naming the key, order, power or pair.
    """
    with open(path) as fh:
        return table_from_json(json.load(fh))
