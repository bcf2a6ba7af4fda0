"""Exact scalar tower: rationals, binary forms in the two torus weights a1,
a2, and canonical ratios of such forms.

Every number in the package is built from these types; no floating point is
used anywhere.  A :class:`WeightPoly` is a binary form: a sparse homogeneous
polynomial with ``Fraction`` coefficients keyed on exponent pairs
``(e1, e2)`` of one total degree.  Building an inhomogeneous one (``a1 + 1``)
raises :class:`Inhomogeneous`; a product of forms is a form.  A form of
degree d is ``a1^d f(a2/a1)``, so gcds and exact divisions run on the
coefficient row of ``f`` in the one variable ``t = a2/a1`` once the powers
of ``a1`` and ``a2`` are split off.  An :class:`EquivariantScalar` is a
reduced fraction ``num/den`` of two forms, normalized so that
``gcd(num, den) = 1``, the denominator has coprime integer coefficients,
and its graded-lex leading coefficient is positive.  Canonical form makes
equality syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Mapping, Optional

from .errors import DenominatorVanishes, DivisionByZero, Inhomogeneous, ParseError

Rational = Fraction

Exponent = tuple[int, int]


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


def _mono_key(e: Exponent) -> tuple[int, int]:
    # graded-lex order with a1 > a2
    return (e[0] + e[1], e[0])


# ---------------------------------------------------------------------------
# univariate helpers over Fraction (dense lists, lowest degree first): the rows
# of forms in t = a2/a1 here, and the coefficients of chern.DeltaPoly
# ---------------------------------------------------------------------------

def _utrim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _uadd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _utrim(out)


def _uneg(p: list[Fraction]) -> list[Fraction]:
    return [-c for c in p]


def _umul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _utrim(out)


def _udivmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not q:
        raise DivisionByZero("univariate division by zero polynomial")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    inv = 1 / q[-1]
    while len(rem) >= len(q):
        c = rem[-1] * inv
        d = len(rem) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            rem[i + d] -= c * b
        _utrim(rem)
    return _utrim(quo), rem


def _ugcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """A gcd of two nonzero rows, up to a rational factor."""
    a, b = list(p), list(q)
    while b:
        a, b = b, _udivmod(a, b)[1]
    return a


# ---------------------------------------------------------------------------
# WeightPoly
# ---------------------------------------------------------------------------

class WeightPoly:
    """Binary form: a sparse homogeneous polynomial in the weights a1, a2.

    Zero coefficients are never stored; instances are treated as immutable.
    The zero polynomial is a form of every degree.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    if e[0] < 0 or e[1] < 0:
                        raise ValueError(f"negative exponent {e}")
                    clean[(int(e[0]), int(e[1]))] = c
        self.terms = clean
        if len(clean) > 1 and len({e1 + e2 for e1, e2 in clean}) > 1:
            raise Inhomogeneous(f"{self} is not homogeneous in a1, a2")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "WeightPoly":
        return cls()

    @classmethod
    def const(cls, c: Rational | int) -> "WeightPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def gen(cls, i: int) -> "WeightPoly":
        if i not in (1, 2):
            raise ValueError("weight symbols are a1 and a2")
        return cls({(1, 0) if i == 1 else (0, 1): Fraction(1)})

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def as_const(self) -> Optional[Fraction]:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and (0, 0) in self.terms:
            return self.terms[(0, 0)]
        return None

    def degree(self) -> int:
        """The total degree of the form; 0 for the zero polynomial."""
        for e1, e2 in self.terms:
            return e1 + e2
        return 0

    def leading(self) -> tuple[Exponent, Fraction]:
        e = max(self.terms, key=_mono_key)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "WeightPoly") -> "WeightPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.degree() != other.degree():
            raise Inhomogeneous(
                f"cannot add forms of degree {self.degree()} and {other.degree()}: "
                f"{self} and {other}"
            )
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = WeightPoly.__new__(WeightPoly)
        res.terms = out
        return res

    def __neg__(self) -> "WeightPoly":
        res = WeightPoly.__new__(WeightPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "WeightPoly") -> "WeightPoly":
        return self + (-other)

    def __mul__(self, other: "WeightPoly") -> "WeightPoly":
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = WeightPoly.__new__(WeightPoly)
        res.terms = out
        return res

    def scale(self, c: Rational) -> "WeightPoly":
        c = Fraction(c)
        if c == 0:
            return WeightPoly.zero()
        res = WeightPoly.__new__(WeightPoly)
        res.terms = {e: k * c for e, k in self.terms.items()}
        return res

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
        total = Fraction(0)
        for (e1, e2), c in self.terms.items():
            total += c * w1**e1 * w2**e2
        return total

    def swap_weights(self) -> "WeightPoly":
        res = WeightPoly.__new__(WeightPoly)
        res.terms = {(e2, e1): c for (e1, e2), c in self.terms.items()}
        return res

    # -- comparison / output --------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[e]
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
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}")
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out[0] + out[2:]

    def __repr__(self) -> str:
        return f"WeightPoly({self})"


# ---------------------------------------------------------------------------
# gcd and exact division of forms, in t = a2/a1
# ---------------------------------------------------------------------------

def _rational_content(p: WeightPoly) -> Fraction:
    """c with p/c primitive-integer and positive graded-lex lead; 1 for 0."""
    if p.is_zero():
        return Fraction(1)
    num = 0
    den = 1
    for c in p.terms.values():
        num = _int_gcd(num, c.numerator)
        den = den * c.denominator // _int_gcd(den, c.denominator)
    c = Fraction(num, den)
    return -c if p.leading()[1] < 0 else c


def _normalize_poly(p: WeightPoly) -> WeightPoly:
    if p.is_zero():
        return p
    return p.scale(1 / _rational_content(p))


def _row(p: WeightPoly) -> tuple[int, int, list[Fraction]]:
    """Split a nonzero form as ``a1^i * a2^j * r`` with r prime to a1 and a2.

    Returns i, j and the coefficients of ``r(1, t)``, lowest power first.
    """
    j = min(e2 for _, e2 in p.terms)
    top = max(e2 for _, e2 in p.terms)
    row = [Fraction(0)] * (top - j + 1)
    for (_, e2), c in p.terms.items():
        row[e2 - j] = c
    return p.degree() - top, j, row


def _from_row(i: int, j: int, row: list[Fraction]) -> WeightPoly:
    """``a1^i * a2^j`` times the form of degree ``len(row) - 1`` whose
    coefficients in t = a2/a1 are row (trimmed, lowest power first)."""
    top = len(row) - 1
    res = WeightPoly.__new__(WeightPoly)
    res.terms = {(i + top - k, j + k): c for k, c in enumerate(row) if c}
    return res


def poly_gcd(p: WeightPoly, q: WeightPoly) -> WeightPoly:
    """Gcd of two forms, normalized primitive-integer with positive lead.

    The monomial parts split off and give ``a1^min * a2^min``; the rest is
    prime to a1, so its gcd is the gcd of the rows in t, made a form again.
    """
    if p.is_zero():
        return _normalize_poly(q)
    if q.is_zero():
        return _normalize_poly(p)
    ip, jp, rp = _row(p)
    iq, jq, rq = _row(q)
    if len(rp) == 1 or len(rq) == 1:
        g = [Fraction(1)]  # one side is a monomial
    else:
        g = _ugcd(rp, rq)
    return _normalize_poly(_from_row(min(ip, iq), min(jp, jq), g))


def poly_divexact(p: WeightPoly, g: WeightPoly) -> WeightPoly:
    """Exact division p/g of forms; raises if g does not divide p."""
    if g.is_zero():
        raise DivisionByZero("division by zero polynomial")
    gc = g.as_const()
    if gc is not None:
        return p.scale(1 / gc)
    if p.is_zero():
        return p
    ip, jp, rp = _row(p)
    ig, jg, rg = _row(g)
    quo, rem = _udivmod(rp, rg)
    if rem or ip < ig or jp < jg:
        raise ArithmeticError("inexact polynomial division")
    return _from_row(ip - ig, jp - jg, quo)


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
