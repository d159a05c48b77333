"""Exact asymptotic-series engine for the steady fifth-order KdV equation

    eps^2 u'''' + u'' + 3 u^2 - c u = 0,   u -> 0 as |x| -> inf.

Substituting u = sum eps^{2n} u_n, c = sum eps^{2n} c_n and collecting powers
of eps^2 produces a hierarchy that closes over polynomials in S = sech^2(g x)
with no constant term: the leading order gives u_0 = 2 g^2 S, c_0 = 4 g^2, and
every higher order is fixed by a linear solve plus one solvability condition.
All arithmetic is exact rational; coefficients grow factorially, so fixed-width
numbers would overflow within a dozen orders.

The only calculus needed is the closed-basis identity

    d^2/dx^2 (S^m) = g^2 [ 4 m^2 S^m - (4 m^2 + 2 m) S^{m+1} ],

which follows from S' = -2 g S tanh(g x) and tanh^2 = 1 - S.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from pathlib import Path


class RecurrenceError(Exception):
    """Structural failure of the order-by-order linear solve.

    Raised when a pivot that must be nonzero vanishes or when the exact
    residual of a solved order is not identically zero. Either condition
    indicates an implementation bug, not a legitimate math case.
    """


class ResourceLimitError(Exception):
    """Requested series depth exceeds the configured limit."""


#: Orders beyond this are refused: coefficient sizes grow like O(n log n)
#: digits and nothing in this project needs more than a few dozen terms.
N_MAX_LIMIT = 128


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class SechPolynomial:
    """Polynomial sum_m a_m S^m, S = sech^2(gamma x), exact coefficients.

    Powers start at m = 1 so every represented function decays at infinity.
    The zero polynomial is the empty coefficient map.
    """

    coeffs: dict[int, Fraction]
    gamma: Fraction = Fraction(1)

    def __post_init__(self):
        clean = {}
        for m, a in self.coeffs.items():
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"powers must be integers >= 1, got {m!r}")
            a = _rat(a)
            if a != 0:
                clean[m] = a
        object.__setattr__(self, "coeffs", clean)
        g = _rat(self.gamma)
        if g <= 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "gamma", g)

    @property
    def degree(self) -> int:
        """Highest power of S present; 0 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, Fraction]]:
        """(power, coefficient) pairs in ascending power order."""
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, SechPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs and self.gamma == other.gamma


def _add_into(acc: dict[int, Fraction], terms, scale: Fraction = Fraction(1)) -> None:
    for m, a in terms:
        acc[m] = acc.get(m, Fraction(0)) + scale * a


def _product_terms(p: SechPolynomial, q: SechPolynomial) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for m, a in p.coeffs.items():
        for k, b in q.coeffs.items():
            out[m + k] = out.get(m + k, Fraction(0)) + a * b
    return out


def second_derivative(p: SechPolynomial) -> SechPolynomial:
    """Exact d^2/dx^2 in the S basis; degree rises by exactly one."""
    g2 = p.gamma * p.gamma
    out: dict[int, Fraction] = {}
    for m, a in p.coeffs.items():
        out[m] = out.get(m, Fraction(0)) + a * g2 * (4 * m * m)
        out[m + 1] = out.get(m + 1, Fraction(0)) - a * g2 * (4 * m * m + 2 * m)
    return SechPolynomial(out, p.gamma)


def fourth_derivative(p: SechPolynomial) -> SechPolynomial:
    """Exact d^4/dx^4; composition of second_derivative with itself."""
    return second_derivative(second_derivative(p))


@dataclass(frozen=True)
class SeriesTable:
    """The family {u_n, c_n} for n = 0..n_max at a fixed rational gamma.

    Immutable once built; safe to share across threads.
    """

    gamma: Fraction
    u: tuple[SechPolynomial, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", _rat(self.gamma))
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "c", tuple(_rat(ci) for ci in self.c))
        if len(self.u) != len(self.c):
            raise ValueError("u and c must have equal length")

    @property
    def n_max(self) -> int:
        return len(self.u) - 1

    def top_coefficient(self, n: int) -> Fraction:
        """Coefficient of S^{n+1} in u_n (the degree invariant pins it)."""
        return self.u[n].coeffs[n + 1]


def _leading_order(gamma: Fraction) -> tuple[SechPolynomial, Fraction]:
    g2 = gamma * gamma
    return SechPolynomial({1: 2 * g2}, gamma), 4 * g2


def order_residual(table: SeriesTable, n: int) -> SechPolynomial:
    """Exact coefficient of eps^{2n} after substituting the expansion.

    The full order-eps^{2n} equation is

        u_{(n-1)xxxx} + u_n'' + 3 sum_{k=0..n} u_k u_{n-k}
                                - sum_{k=0..n} c_k u_{n-k} = 0,

    the complete Cauchy products of 3u^2 and c u. A correctly solved table
    returns the zero polynomial for every n <= n_max.
    """
    acc: dict[int, Fraction] = {}
    if n >= 1:
        _add_into(acc, fourth_derivative(table.u[n - 1]).coeffs.items())
    _add_into(acc, second_derivative(table.u[n]).coeffs.items())
    for k in range(0, n + 1):
        _add_into(acc, _product_terms(table.u[k], table.u[n - k]).items(), Fraction(3))
        _add_into(acc, table.u[n - k].coeffs.items(), -table.c[k])
    return SechPolynomial(acc, table.gamma)


def solve_order(table: SeriesTable, n: int) -> tuple[SechPolynomial, Fraction]:
    """Solve the order-eps^{2n} equation given orders 0..n-1.

    The linearized operator L = d^2/dx^2 + 6 u_0 - c_0 acts on the basis as

        L(S^m) = g^2 (4 m^2 - 4) S^m + g^2 (12 - 4 m^2 - 2 m) S^{m+1},

    so its diagonal vanishes exactly at m = 1: the S^1 component of the
    right-hand side must vanish, and that single linear condition fixes c_n.
    The remaining rows are triangular from the top degree downward (the
    sub-diagonal entry 12 - 4m^2 - 2m has no integer roots m >= 1).
    """
    if n == 0:
        return _leading_order(table.gamma)
    if len(table.u) < n:
        raise ValueError(f"table holds orders 0..{len(table.u) - 1}, need 0..{n - 1}")
    g = table.gamma
    g2 = g * g

    # rhs of L u_n = c_n u_0 + F with F collecting all known lower orders
    F: dict[int, Fraction] = {}
    _add_into(F, fourth_derivative(table.u[n - 1]).coeffs.items(), Fraction(-1))
    for k in range(1, n):
        _add_into(F, _product_terms(table.u[k], table.u[n - k]).items(), Fraction(-3))
        _add_into(F, table.u[n - k].coeffs.items(), table.c[k])

    # solvability at the S^1 row: 2 g^2 c_n + F_1 = 0
    c_n = -F.get(1, Fraction(0)) / (2 * g2)
    rhs = dict(F)
    rhs[1] = rhs.get(1, Fraction(0)) + 2 * g2 * c_n
    if rhs[1] != 0:
        raise RecurrenceError(f"S^1 solvability row inconsistent at order {n}")

    # back-substitute rows p = n+2 .. 2; row p couples a_p (diagonal) and
    # a_{p-1} (sub-diagonal), and a_{n+2} = 0 by the degree invariant
    a: dict[int, Fraction] = {}
    for p in range(n + 2, 1, -1):
        m = p - 1
        sub = g2 * (12 - 4 * m * m - 2 * m)
        if sub == 0:
            raise RecurrenceError(f"sub-diagonal pivot vanished at m = {m}")
        diag = g2 * (4 * p * p - 4)
        a[m] = (rhs.get(p, Fraction(0)) - diag * a.get(p, Fraction(0))) / sub

    u_n = SechPolynomial(a, g)
    if u_n.degree != n + 1:
        raise RecurrenceError(f"deg(u_{n}) = {u_n.degree}, expected {n + 1}")
    check = SeriesTable(g, table.u[:n] + (u_n,), table.c[:n] + (c_n,))
    if not order_residual(check, n).is_zero:
        raise RecurrenceError(f"nonzero exact residual at order {n}")
    return u_n, c_n


def build_series(n_max: int, gamma=Fraction(1)) -> SeriesTable:
    """Build the table {u_n, c_n} for n = 0..n_max by repeated solve_order."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > N_MAX_LIMIT:
        raise ResourceLimitError(f"n_max = {n_max} exceeds limit {N_MAX_LIMIT}")
    g = _rat(gamma)
    u0, c0 = _leading_order(g)
    table = SeriesTable(g, (u0,), (c0,))
    for n in range(1, n_max + 1):
        u_n, c_n = solve_order(table, n)
        table = SeriesTable(g, table.u + (u_n,), table.c + (c_n,))
    return table


# ---------------------------------------------------------------------------
# serialization: rationals as decimal strings so nothing is rounded

def table_to_json(table: SeriesTable) -> dict:
    return {
        "gamma": str(table.gamma),
        "c": [str(ci) for ci in table.c],
        "u": [[[str(m), str(a)] for m, a in p.terms()] for p in table.u],
    }


def table_from_json(doc: dict) -> SeriesTable:
    gamma = Fraction(doc["gamma"])
    c = tuple(Fraction(s) for s in doc["c"])
    u = tuple(
        SechPolynomial({int(m): Fraction(a) for m, a in entry}, gamma)
        for entry in doc["u"]
    )
    return SeriesTable(gamma, u, c)


def atomic_write(path, text: str) -> None:
    """Write text to path via a temp file and rename, creating parent
    directories; readers never see a partial file. The file gets the mode
    a plain open() would give it (0o666 less the umask)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL on a random name: never clobbers another writer's temp file
    tmp = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_table(table: SeriesTable, path) -> None:
    """Atomic JSON dump of the exact table."""
    atomic_write(path, json.dumps(table_to_json(table), indent=1, sort_keys=True))


def load_table(path) -> SeriesTable:
    with open(path) as fh:
        return table_from_json(json.load(fh))
