"""Exact scalar tower: rationals, binary forms in the two torus weights a1,
a2, canonical ratios of such forms, and polynomials in the divisor degree.

Every number in the package is built from these types; no floating point is
used anywhere.  Every polynomial here is stored as a *row*: a tuple of
integer coefficients, lowest power first, with no trailing zero.

A :class:`WeightPoly` is a binary form of degree d, that is ``a1^d f(t)``
with ``t = a2/a1``.  It is stored as d, a rational content c and a primitive
integer row, so the coefficient of ``a1^(d-k) a2^k`` is ``c * row[k]``; c
carries the sign that makes the row's first nonzero entry, the graded-lex
(a1 > a2) leading coefficient, positive.  Building an inhomogeneous form
(``a1 + 1``) raises :class:`Inhomogeneous`; a product of forms is a form,
and by Gauss's lemma its row is the product of the rows.  Gcds and exact
divisions run on the integer rows once the powers of ``a1`` and ``a2`` are
split off.  An :class:`EquivariantScalar` is a reduced fraction ``num/den``
of two forms, normalized so that ``gcd(num, den) = 1`` and the denominator
has content 1.  Canonical form makes equality syntactic.  A
:class:`DeltaPoly` is a polynomial in the divisor-degree symbol: an integer
row over one positive integer denominator, in lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DenominatorVanishes, DivisionByZero, Inhomogeneous, ParseError

Rational = Fraction

Exponent = tuple[int, int]
Row = tuple  # of int: forms, ring numerators and DeltaPoly

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


def power(x, n: int, one):
    """``x**n`` for ``n >= 0`` by square-and-multiply; ``one`` is the unit of
    the ring that ``x`` lives in."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# rows: univariate polynomials, lowest power first, trimmed
# ---------------------------------------------------------------------------

def _trim(row: Sequence) -> Row:
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
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)  # the top coefficient is p[-1] * q[-1], never 0


def _prem(p: Sequence[int], q: Row) -> list[int]:
    """The remainder of an integer row p by q, up to a nonzero integer factor."""
    rem = list(p)
    n, lead = len(q), q[-1]
    while len(rem) >= n:
        c = rem[-1]
        g = _int_gcd(c, lead)
        k, c = lead // g, c // g
        s = len(rem) - n
        if k != 1:
            rem = [k * x for x in rem]
        for i, b in enumerate(q):
            rem[i + s] -= c * b
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _igcd(p: Row, q: Row) -> Row:
    """Gcd of two primitive integer rows with nonzero first entries, by a
    primitive remainder sequence; primitive, with a positive first entry."""
    while q:
        p, q = q, _canon(0, _prem(p, q)).row
    return p


def _iexquo(p: Row, q: Row) -> Row:
    """The integer row p/q; raises unless q divides p exactly."""
    rem = list(p)
    n, lead = len(q), q[-1]
    quo = [0] * max(len(p) - n + 1, 0)
    while len(rem) >= n:
        c, r = divmod(rem[-1], lead)
        if r:
            break
        s = len(rem) - n
        quo[s] = c
        for i, b in enumerate(q):
            rem[i + s] -= c * b
        while rem and not rem[-1]:
            rem.pop()
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


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
    """Binary form in the weights a1, a2: its degree ``d``, its content ``c``
    and the primitive integer row of ``f(t)/c``, where the form is
    ``a1^d f(a2/a1)``.

    Instances are treated as immutable.  The zero polynomial is a form of
    every degree; it is stored with ``d = 0``, ``c = 0`` and the empty row.
    """

    __slots__ = ("d", "c", "row")

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
        den = _int_lcm(*(c.denominator for c in clean.values()))
        row = [0] * (max((e2 for _, e2 in clean), default=-1) + 1)
        for (_, e2), c in clean.items():
            row[e2] = c.numerator * (den // c.denominator)
        p = _canon(degrees.pop() if degrees else 0, row, den)
        self.d, self.c, self.row = p.d, p.c, p.row

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "WeightPoly":
        return _ZERO_FORM

    @classmethod
    def const(cls, c: Rational | int) -> "WeightPoly":
        c = Fraction(c)
        return _form(0, c, (1,)) if c else _ZERO_FORM

    @classmethod
    def gen(cls, i: int) -> "WeightPoly":
        if i not in (1, 2):
            raise ValueError("weight symbols are a1 and a2")
        return _form(1, _ONE, (1,) if i == 1 else (0, 1))

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.row

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
        return _sum_forms(self.d, (self, other))

    def __neg__(self) -> "WeightPoly":
        return _form(self.d, -self.c, self.row)

    def __sub__(self, other: "WeightPoly") -> "WeightPoly":
        return self + (-other)

    def __mul__(self, other: "WeightPoly") -> "WeightPoly":
        if not self.row or not other.row:
            return _ZERO_FORM
        if other is _ONE_POLY:  # the denominator of most scalars and classes
            return self
        if self is _ONE_POLY:
            return other
        # Gauss's lemma: the product of primitive rows with positive leads is one
        if self.c is _ONE:
            c = other.c
        elif other.c is _ONE:
            c = self.c
        else:
            c = self.c * other.c
        return _form(self.d + other.d, c, _rmul(self.row, other.row))

    def scale(self, c: Rational) -> "WeightPoly":
        if not c or not self.row:
            return _ZERO_FORM
        return _form(self.d, self.c * c, self.row)

    def __pow__(self, n: int) -> "WeightPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, WeightPoly.const(1))

    def eval_at(self, w1: Rational, w2: Rational) -> Fraction:
        w1, w2 = Fraction(w1), Fraction(w2)
        # the form at (x/q, y/q) is c * sum(row[k] * x^(d-k) * y^k) / q^d
        x, y = w1.numerator * w2.denominator, w2.numerator * w1.denominator
        q = w1.denominator * w2.denominator
        s = sum(r * x ** (self.d - k) * y**k for k, r in enumerate(self.row) if r)
        return Fraction(self.c.numerator * s, self.c.denominator * q**self.d)

    def swap_weights(self) -> "WeightPoly":
        if not self.row:
            return self
        row = _trim((0,) * (self.d + 1 - len(self.row)) + self.row[::-1])
        if self.row[-1] < 0:  # the old top entry leads now
            return _form(self.d, -self.c, tuple(-x for x in row))
        return _form(self.d, self.c, row)

    # -- comparison / output --------------------------------------------------
    def _monomials(self) -> Iterable[tuple[Exponent, Fraction]]:
        """Nonzero terms in graded-lex order: a1 first, so lowest power of t."""
        return (((self.d - k, k), self.c * x) for k, x in enumerate(self.row) if x)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightPoly)
            and self.d == other.d
            and self.c == other.c
            and self.row == other.row
        )

    def __hash__(self) -> int:
        return hash((self.d, self.c, self.row))

    def __str__(self) -> str:
        return _format(self._monomials())

    def __repr__(self) -> str:
        return f"WeightPoly({self})"


def _form(d: int, c: Fraction, row: Row) -> WeightPoly:
    """The form ``c * row`` of degree d; row is primitive with a positive
    first nonzero entry, or empty for zero."""
    p = WeightPoly.__new__(WeightPoly)
    p.d, p.c, p.row = d, c, row
    return p


_ZERO_FORM = _form(0, _ZERO, ())


def _canon(d: int, row: Sequence[int], den: int = 1) -> WeightPoly:
    """The form ``row / den`` of degree d, for any integer row."""
    row = _trim(row)
    if not row:
        return _ZERO_FORM
    g = _int_gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    if g != 1:
        row = tuple(x // g for x in row)
    # the shared _ONE lets products skip multiplying by a content of 1, and
    # Fraction(g) skips the gcd that Fraction(g, 1) takes
    if g == den:
        c = _ONE
    else:
        c = Fraction(g) if den == 1 else Fraction(g, den)
    return _form(d, c, row)


def _sum_forms(d: int, forms: Sequence[WeightPoly]) -> WeightPoly:
    """The sum of nonzero forms of degree d: their rows over one integer
    denominator, added, and made primitive once."""
    den = _int_lcm(*(f.c.denominator for f in forms))
    acc = [0] * max(len(f.row) for f in forms)
    for f in forms:
        k = f.c.numerator * (den // f.c.denominator)
        for i, x in enumerate(f.row):
            if x:
                acc[i] += k * x
    return _canon(d, acc, den)


# ---------------------------------------------------------------------------
# gcd and exact division of forms, in t = a2/a1
# ---------------------------------------------------------------------------

def _split(p: WeightPoly) -> tuple[int, int, Row]:
    """Split a nonzero form as ``c * a1^i * a2^j * r`` with r prime to a1 and a2.

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
    if not p.row or not q.row:
        r = q if not p.row else p
        return _form(r.d, _ONE, r.row) if r.row else r
    ip, jp, rp = _split(p)
    iq, jq, rq = _split(q)
    if len(rp) == 1 or len(rq) == 1:
        g: Row = (1,)  # one side is a monomial
    else:
        g = _igcd(rp, rq)
    j = min(jp, jq)
    return _form(min(ip, iq) + j + len(g) - 1, _ONE, (0,) * j + g)


def form_lcm(p: WeightPoly, q: WeightPoly) -> WeightPoly:
    """The lcm of two forms of content 1; it takes a gcd only when both have
    positive degree and differ."""
    if not q.d or p == q:
        return p
    if not p.d:
        return q
    return p * poly_divexact(q, poly_gcd(p, q))


def poly_divexact(p: WeightPoly, g: WeightPoly) -> WeightPoly:
    """Exact division p/g of forms; raises if g does not divide p."""
    if not g.row:
        raise DivisionByZero("division by zero polynomial")
    if g.d == 0:
        return p.scale(1 / g.c)
    if not p.row:
        return p
    ip, jp, rp = _split(p)
    ig, jg, rg = _split(g)
    quo = rp if len(rg) == 1 else _iexquo(rp, rg)  # a primitive rg of length 1 is (1,)
    if ip < ig or jp < jg:
        raise ArithmeticError("inexact polynomial division")
    # gcds and canonical denominators share the content _ONE
    c = p.c if g.c is _ONE else p.c / g.c
    return _form(p.d - g.d, c, (0,) * (jp - jg) + quo)


# ---------------------------------------------------------------------------
# EquivariantScalar
# ---------------------------------------------------------------------------

_ONE_POLY = WeightPoly.const(1)


class EquivariantScalar:
    """Canonical ratio of two binary forms; its degree is their difference.

    Invariants: the denominator is nonzero, ``gcd(num, den) = 1``, and the
    denominator has content 1, so its row is its coefficients: coprime
    integers with a positive graded-lex leading one.  Zero is stored as
    ``0/1``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: WeightPoly, den: WeightPoly | None = None):
        if den is None:
            self.num, self.den = num, _ONE_POLY
            return
        if not den.row:
            raise DivisionByZero("zero denominator")
        if not num.row:
            self.num, self.den = _ZERO_FORM, _ONE_POLY
            return
        if den.d == 0:
            self.num, self.den = num.scale(1 / den.c), _ONE_POLY
            return
        g = poly_gcd(num, den)
        if g.d:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        if den.c != 1:
            num = num.scale(1 / den.c)
            den = _form(den.d, _ONE, den.row)
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_rational(cls, c: Rational | int) -> "EquivariantScalar":
        return cls(WeightPoly.const(Fraction(c)))

    @classmethod
    def weight(cls, i: int) -> "EquivariantScalar":
        return cls(WeightPoly.gen(i))

    @classmethod
    def from_row(
        cls, d: int, row: Sequence[int], q: int = 1, den: WeightPoly = _ONE_POLY
    ) -> "EquivariantScalar":
        """The canonical ``a1^d row(a2/a1) / (q * den)``, for an integer row,
        a positive integer q and a form den of content 1."""
        num = _canon(d, row, q)
        return cls(num, den) if den.d and num.row else cls(num)

    # -- predicates -------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def degree(self) -> int:
        return self.num.degree() - self.den.degree()

    def is_constant(self) -> Optional[Fraction]:
        """The constant value, or None when weight symbols survive."""
        return self.num.c if self.num.d == 0 and self.den.d == 0 else None

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
            raise inhomogeneous_sum(self.degree(), other.degree()) from None

    def __neg__(self) -> "EquivariantScalar":
        res = EquivariantScalar.__new__(EquivariantScalar)
        res.num, res.den = -self.num, self.den
        return res

    def __sub__(self, other: "EquivariantScalar") -> "EquivariantScalar":
        return self + (-other)

    def __mul__(self, other: "EquivariantScalar") -> "EquivariantScalar":
        if not self.num.row or not other.num.row:
            return ES_ZERO
        c = other.is_constant()
        if c is not None:
            return self.scale(c)
        c = self.is_constant()
        if c is not None:
            return other.scale(c)
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
            return power(self.inverse(), -n, ES_ONE)
        return power(self, n, ES_ONE)

    def scale(self, c: Rational) -> "EquivariantScalar":
        if not c:
            return ES_ZERO
        res = EquivariantScalar.__new__(EquivariantScalar)
        res.num, res.den = self.num.scale(c), self.den
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


def inhomogeneous_sum(x: int, y: int) -> Inhomogeneous:
    """The error that adding nonzero scalars of the different degrees x and
    y raises."""
    return Inhomogeneous(f"cannot add scalars of degree {x} and {y}")


# Spec-facing helpers -------------------------------------------------------

def es_eval(a: EquivariantScalar, weights: Iterable[Rational]) -> Fraction:
    return a.eval_at(weights)


# ---------------------------------------------------------------------------
# DeltaPoly
# ---------------------------------------------------------------------------

class DeltaPoly:
    """Exact polynomial in the divisor-degree symbol delta: an integer row
    over one positive integer denominator, in lowest terms, so the
    coefficient of delta^i is ``row[i] / den``.  Instances are treated as
    immutable."""

    __slots__ = ("row", "den")

    def __init__(self, coeffs: Sequence[Fraction | int]):
        coeffs = [Fraction(c) for c in coeffs]
        den = _int_lcm(*(c.denominator for c in coeffs))
        p = _delta_poly(_trim([c.numerator * (den // c.denominator) for c in coeffs]), den)
        self.row, self.den = p.row, p.den

    @classmethod
    def delta(cls) -> "DeltaPoly":
        return _delta_poly((0, 1), 1)

    def as_const(self) -> Optional[Fraction]:
        if not self.row:
            return _ZERO
        return Fraction(self.row[0], self.den) if len(self.row) == 1 else None

    def __call__(self, value) -> Fraction:
        # sum row[i] x^i y^(n-i) / (den y^n) at value = x/y, by Horner in x
        v = Fraction(value)
        x, y = v.numerator, v.denominator
        acc, y_power = 0, 1
        for c in reversed(self.row):
            acc = acc * x + c * y_power
            y_power *= y
        return Fraction(acc * y, self.den * y_power)  # y_power is y^(n+1)

    @staticmethod
    def _lift(other) -> "DeltaPoly":
        if isinstance(other, DeltaPoly):
            return other
        if isinstance(other, int):
            return _delta_poly((other,) if other else (), 1)
        c = Fraction(other)
        return _delta_poly((c.numerator,) if c else (), c.denominator)

    def __add__(self, other):
        other = self._lift(other)
        a, b = self.den, other.den
        if a == b:
            return _delta_poly(_radd(self.row, other.row), a)
        den = _int_lcm(a, b)
        p, q = den // a, den // b
        return _delta_poly(
            _radd(tuple(p * x for x in self.row), tuple(q * x for x in other.row)), den
        )

    __radd__ = __add__

    def __neg__(self):
        return _delta_poly(tuple(-x for x in self.row), self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        return _delta_poly(_rmul(self.row, other.row), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._lift(other)
        if len(c.row) > 1:
            raise ValueError("division only by constants")
        if not c.row:
            raise DivisionByZero("division of a delta polynomial by zero")
        m, d = c.row[0], c.den
        if m < 0:
            m, d = -m, -d
        return _delta_poly(tuple(d * x for x in self.row), self.den * m)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, _delta_poly((1,), 1))

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        return self.row == other.row and self.den == other.den

    def __hash__(self):
        # a constant hashes like the Fraction it equals
        if len(self.row) <= 1:
            return hash(self.as_const())
        return hash((self.row, self.den))

    def __str__(self) -> str:
        if not self.row:
            return "0"
        parts = []
        for i, x in enumerate(self.row):
            if x == 0:
                continue
            c = Fraction(x, self.den)
            if i == 0:
                parts.append(str(c))
            else:
                mono = "delta" if i == 1 else f"delta^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _delta_poly(row: Row, den: int) -> DeltaPoly:
    """The polynomial ``row / den`` in lowest terms, for a trimmed integer
    row and a positive integer den; one gcd."""
    g = _int_gcd(den, *row)
    if g != 1:
        row, den = tuple(x // g for x in row), den // g
    p = DeltaPoly.__new__(DeltaPoly)
    p.row, p.den = row, den
    return p
