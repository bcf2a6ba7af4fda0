"""Exact scalar tower: rationals, binary forms in the two torus weights a1,
a2, canonical ratios of such forms, and polynomials in the divisor degree.

Every number in the package is built from these types; no floating point is
used anywhere.  Every polynomial here is stored as a *row*: a tuple of
``Fraction`` coefficients, lowest power first, with no trailing zero.

A :class:`WeightPoly` is a binary form of degree d, that is ``a1^d f(t)``
with ``t = a2/a1``; it is stored as d and the row of f, so ``row[k]`` is the
coefficient of ``a1^(d-k) a2^k``.  Building an inhomogeneous one
(``a1 + 1``) raises :class:`Inhomogeneous`; a product of forms is a form.
Gcds and exact divisions run on the rows once the powers of ``a1`` and
``a2`` are split off.  An :class:`EquivariantScalar` is a reduced fraction
``num/den`` of two forms, normalized so that ``gcd(num, den) = 1``, the
denominator has coprime integer coefficients, and its graded-lex (a1 > a2)
leading coefficient, the one at the lowest power of t, is positive.
Canonical form makes equality syntactic.  A :class:`DeltaPoly` is a
polynomial in the divisor-degree symbol on the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DenominatorVanishes, DivisionByZero, Inhomogeneous, ParseError

Rational = Fraction

Exponent = tuple[int, int]
Row = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat_to_str(r: Rational) -> str:
    """Serialize a rational as ``p/q``, or ``p`` when the denominator is 1."""
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def rat_from_str(s: str) -> Rational:
    """Parse ``p/q`` or ``p``; a zero denominator is a :class:`ParseError`."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {s.strip()!r}") from None


# ---------------------------------------------------------------------------
# rows: univariate polynomials over Fraction, lowest power first, trimmed
# ---------------------------------------------------------------------------

def _trim(row: Sequence[Fraction]) -> Row:
    n = len(row)
    while n and not row[n - 1]:
        n -= 1
    return tuple(row[:n])


def _radd(p: Row, q: Row) -> Row:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _rmul(p: Row, q: Row) -> Row:
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)  # the top coefficient is p[-1] * q[-1], never 0


def _rdivmod(p: Row, q: Row) -> tuple[Row, Row]:
    if not q:
        raise DivisionByZero("univariate division by zero polynomial")
    rem = list(p)
    quo = [_ZERO] * max(len(p) - len(q) + 1, 0)
    inv = 1 / q[-1]
    while len(rem) >= len(q):
        c = rem[-1] * inv
        d = len(rem) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            rem[i + d] -= c * b
        while rem and not rem[-1]:
            rem.pop()
    return _trim(quo), tuple(rem)


def _rgcd(p: Row, q: Row) -> Row:
    """A gcd of two nonzero rows, up to a rational factor."""
    while q:
        p, q = q, _rdivmod(p, q)[1]
    return p


def _format(monomials: Iterable[tuple[Exponent, Fraction]]) -> str:
    """``(exponent, coefficient)`` pairs, in graded-lex order, as text."""
    parts: list[str] = []
    for e, c in monomials:
        mono = "*".join(
            (f"{name}^{k}" if k > 1 else name)
            for name, k in (("a1", e[0]), ("a2", e[1]))
            if k > 0
        )
        if not mono:
            body = rat_to_str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{rat_to_str(abs(c))}*{mono}"
        parts.append(f"{'-' if c < 0 else '+'} {body}")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out[0] + out[2:]


# ---------------------------------------------------------------------------
# WeightPoly
# ---------------------------------------------------------------------------

class WeightPoly:
    """Binary form in the weights a1, a2: its degree ``d`` and the row of
    ``f(t)``, where the form is ``a1^d f(a2/a1)``.

    Instances are treated as immutable.  The zero polynomial is a form of
    every degree; it is stored with ``d = 0`` and the empty row.
    """

    __slots__ = ("d", "row")

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        """A form from its coefficients keyed on exponent pairs ``(e1, e2)``."""
        clean: dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if e[0] < 0 or e[1] < 0:
                    raise ValueError(f"negative exponent {e}")
                clean[(int(e[0]), int(e[1]))] = c
        degrees = {e1 + e2 for e1, e2 in clean}
        if len(degrees) > 1:
            order = sorted(clean.items(), key=lambda ec: (sum(ec[0]), ec[0][0]), reverse=True)
            raise Inhomogeneous(f"{_format(order)} is not homogeneous in a1, a2")
        row = [_ZERO] * (max((e2 for _, e2 in clean), default=-1) + 1)
        for (_, e2), c in clean.items():
            row[e2] = c
        self.d = degrees.pop() if degrees else 0
        self.row = tuple(row)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "WeightPoly":
        return _form(0, ())

    @classmethod
    def const(cls, c: Rational | int) -> "WeightPoly":
        c = Fraction(c)
        return _form(0, (c,) if c else ())

    @classmethod
    def gen(cls, i: int) -> "WeightPoly":
        if i not in (1, 2):
            raise ValueError("weight symbols are a1 and a2")
        return _form(1, (_ONE,) if i == 1 else (_ZERO, _ONE))

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.row

    def as_const(self) -> Optional[Fraction]:
        if not self.row:
            return _ZERO
        return self.row[0] if self.d == 0 else None

    def degree(self) -> int:
        """The total degree of the form; 0 for the zero polynomial."""
        return self.d

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "WeightPoly") -> "WeightPoly":
        if not other.row:
            return self
        if not self.row:
            return other
        if self.d != other.d:
            raise Inhomogeneous(
                f"cannot add forms of degree {self.d} and {other.d}: {self} and {other}"
            )
        return _form(self.d, _radd(self.row, other.row))

    def __neg__(self) -> "WeightPoly":
        return _form(self.d, tuple(-c for c in self.row))

    def __sub__(self, other: "WeightPoly") -> "WeightPoly":
        return self + (-other)

    def __mul__(self, other: "WeightPoly") -> "WeightPoly":
        return _form(self.d + other.d, _rmul(self.row, other.row))

    def scale(self, c: Rational) -> "WeightPoly":
        c = Fraction(c)
        if c == 0:
            return WeightPoly.zero()
        return _form(self.d, tuple(k * c for k in self.row))

    def __pow__(self, n: int) -> "WeightPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = WeightPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def eval_at(self, w1: Rational, w2: Rational) -> Fraction:
        w1, w2 = Fraction(w1), Fraction(w2)
        total = _ZERO
        for k, c in enumerate(self.row):
            if c:
                total += c * w1 ** (self.d - k) * w2**k
        return total

    def swap_weights(self) -> "WeightPoly":
        padded = self.row + (_ZERO,) * (self.d + 1 - len(self.row))
        return _form(self.d, _trim(padded[::-1]))

    # -- comparison / output --------------------------------------------------
    def _monomials(self) -> Iterable[tuple[Exponent, Fraction]]:
        """Nonzero terms in graded-lex order: a1 first, so lowest power of t."""
        return (((self.d - k, k), c) for k, c in enumerate(self.row) if c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightPoly) and self.d == other.d and self.row == other.row

    def __hash__(self) -> int:
        return hash(frozenset(self._monomials()))

    def __str__(self) -> str:
        return _format(self._monomials())

    def __repr__(self) -> str:
        return f"WeightPoly({self})"


def _form(d: int, row: Row) -> WeightPoly:
    """The form of degree d with the given trimmed row (zero when empty)."""
    p = WeightPoly.__new__(WeightPoly)
    p.d, p.row = (d if row else 0), row
    return p


# ---------------------------------------------------------------------------
# gcd and exact division of forms, in t = a2/a1
# ---------------------------------------------------------------------------

def _rational_content(p: WeightPoly) -> Fraction:
    """c with p/c primitive-integer and positive graded-lex lead; 1 for 0."""
    if not p.row:
        return _ONE
    num = 0
    den = 1
    for c in p.row:
        num = _int_gcd(num, c.numerator)
        den = den * c.denominator // _int_gcd(den, c.denominator)
    c = Fraction(num, den)
    return -c if next(k for k in p.row if k) < 0 else c


def _normalize_poly(p: WeightPoly) -> WeightPoly:
    if p.is_zero():
        return p
    return p.scale(1 / _rational_content(p))


def _split(p: WeightPoly) -> tuple[int, int, Row]:
    """Split a nonzero form as ``a1^i * a2^j * r`` with r prime to a1 and a2.

    Returns i, j and the row of r, whose first and last entries are nonzero.
    """
    row = p.row
    j = 0
    while not row[j]:
        j += 1
    return p.d + 1 - len(row), j, row[j:]


def poly_gcd(p: WeightPoly, q: WeightPoly) -> WeightPoly:
    """Gcd of two forms, normalized primitive-integer with positive lead.

    The monomial parts split off and give ``a1^min * a2^min``; the rest is
    prime to a1, so its gcd is the gcd of the rows in t, made a form again.
    """
    if p.is_zero():
        return _normalize_poly(q)
    if q.is_zero():
        return _normalize_poly(p)
    ip, jp, rp = _split(p)
    iq, jq, rq = _split(q)
    if len(rp) == 1 or len(rq) == 1:
        g: Row = (_ONE,)  # one side is a monomial
    else:
        g = _rgcd(rp, rq)
    j = min(jp, jq)
    return _normalize_poly(_form(min(ip, iq) + j + len(g) - 1, (_ZERO,) * j + g))


def poly_divexact(p: WeightPoly, g: WeightPoly) -> WeightPoly:
    """Exact division p/g of forms; raises if g does not divide p."""
    if g.is_zero():
        raise DivisionByZero("division by zero polynomial")
    gc = g.as_const()
    if gc is not None:
        return p.scale(1 / gc)
    if p.is_zero():
        return p
    ip, jp, rp = _split(p)
    ig, jg, rg = _split(g)
    quo, rem = _rdivmod(rp, rg)
    if rem or ip < ig or jp < jg:
        raise ArithmeticError("inexact polynomial division")
    return _form(p.d - g.d, (_ZERO,) * (jp - jg) + quo)


# ---------------------------------------------------------------------------
# EquivariantScalar
# ---------------------------------------------------------------------------

_ONE_POLY = WeightPoly.const(1)


class EquivariantScalar:
    """Canonical ratio of two binary forms; its degree is their difference.

    Invariants: the denominator is nonzero, ``gcd(num, den) = 1``, and the
    denominator has coprime integer coefficients with positive graded-lex
    leading coefficient.  Zero is stored as ``0/1``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: WeightPoly, den: WeightPoly | None = None):
        if den is None:
            den = _ONE_POLY
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            self.num, self.den = WeightPoly.zero(), _ONE_POLY
            return
        dc = den.as_const()
        if dc is not None:
            self.num, self.den = num.scale(1 / dc), _ONE_POLY
            return
        g = poly_gcd(num, den)
        if g.as_const() != Fraction(1):
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        c = _rational_content(den)
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_rational(cls, c: Rational | int) -> "EquivariantScalar":
        return cls(WeightPoly.const(Fraction(c)))

    @classmethod
    def weight(cls, i: int) -> "EquivariantScalar":
        return cls(WeightPoly.gen(i))

    # -- predicates -------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def degree(self) -> int:
        return self.num.degree() - self.den.degree()

    def is_constant(self) -> Optional[Fraction]:
        """The constant value, or None when weight symbols survive."""
        nc = self.num.as_const()
        dc = self.den.as_const()
        if nc is None or dc is None:
            return None
        return nc / dc

    # -- arithmetic ---------------------------------------------------------------
    def __add__(self, other: "EquivariantScalar") -> "EquivariantScalar":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        try:
            if self.den == other.den:
                return EquivariantScalar(self.num + other.num, self.den)
            return EquivariantScalar(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        except Inhomogeneous:
            raise Inhomogeneous(
                f"cannot add scalars of degree {self.degree()} and {other.degree()}: "
                f"{self} and {other}"
            ) from None

    def __neg__(self) -> "EquivariantScalar":
        res = EquivariantScalar.__new__(EquivariantScalar)
        res.num, res.den = -self.num, self.den
        return res

    def __sub__(self, other: "EquivariantScalar") -> "EquivariantScalar":
        return self + (-other)

    def __mul__(self, other: "EquivariantScalar") -> "EquivariantScalar":
        if self.is_zero() or other.is_zero():
            return ES_ZERO
        return EquivariantScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "EquivariantScalar") -> "EquivariantScalar":
        if other.is_zero():
            raise DivisionByZero("division by the zero scalar")
        if self.is_zero():
            return ES_ZERO
        return EquivariantScalar(self.num * other.den, self.den * other.num)

    def inverse(self) -> "EquivariantScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of the zero scalar")
        return EquivariantScalar(self.den, self.num)

    def __pow__(self, n: int) -> "EquivariantScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ES_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: Rational) -> "EquivariantScalar":
        if c == 0:
            return ES_ZERO
        res = EquivariantScalar.__new__(EquivariantScalar)
        res.num, res.den = self.num.scale(Fraction(c)), self.den
        return res

    def eval_at(self, weights: Iterable[Rational]) -> Fraction:
        w1, w2 = [Fraction(w) for w in weights]
        d = self.den.eval_at(w1, w2)
        if d == 0:
            raise DenominatorVanishes(f"denominator vanishes at ({w1}, {w2})")
        return self.num.eval_at(w1, w2) / d

    def swap_weights(self) -> "EquivariantScalar":
        return EquivariantScalar(self.num.swap_weights(), self.den.swap_weights())

    # -- comparison / output ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() == Fraction(other)
        return (
            isinstance(other, EquivariantScalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"EquivariantScalar({self})"


ES_ZERO = EquivariantScalar.from_rational(0)
ES_ONE = EquivariantScalar.from_rational(1)


# Spec-facing helpers -------------------------------------------------------

def es_eval(a: EquivariantScalar, weights: Iterable[Rational]) -> Fraction:
    return a.eval_at(weights)


# ---------------------------------------------------------------------------
# DeltaPoly
# ---------------------------------------------------------------------------

class DeltaPoly:
    """Exact polynomial in the divisor-degree symbol delta, stored as a row."""

    __slots__ = ("row",)

    def __init__(self, coeffs: Sequence[Fraction | int]):
        self.row = _trim([Fraction(c) for c in coeffs])

    @classmethod
    def delta(cls) -> "DeltaPoly":
        return cls([0, 1])

    def as_const(self) -> Optional[Fraction]:
        if not self.row:
            return _ZERO
        return self.row[0] if len(self.row) == 1 else None

    def __call__(self, value) -> Fraction:
        out = _ZERO
        v = Fraction(value)
        for c in reversed(self.row):
            out = out * v + c
        return out

    @staticmethod
    def _lift(other) -> "DeltaPoly":
        return other if isinstance(other, DeltaPoly) else DeltaPoly([other])

    def __add__(self, other):
        return DeltaPoly(_radd(self.row, self._lift(other).row))

    __radd__ = __add__

    def __neg__(self):
        return DeltaPoly([-c for c in self.row])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return DeltaPoly(_rmul(self.row, self._lift(other).row))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._lift(other).as_const()
        if c is None:
            raise ValueError("division only by constants")
        return self * (1 / c)

    def __pow__(self, n: int):
        out = DeltaPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return self.row == self._lift(other).row

    def __hash__(self):
        return hash(self.row)

    def __str__(self) -> str:
        if not self.row:
            return "0"
        parts = []
        for i, c in enumerate(self.row):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "delta" if i == 1 else f"delta^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__
