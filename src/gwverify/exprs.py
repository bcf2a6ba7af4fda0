"""Parser for the class-expression mini-grammar used by diagram files.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := signed (('*' | '/') signed)*
    signed  := '-' signed | atom ('^' INT)?
    atom    := INT | ident | '(' expr ')'
              | 'hodgetwist' '(' INT ';' expr (',' expr)* ')'
    ident   := 'a1' | 'a2' | gen
    gen     := NAME '[' INT (',' INT)? ']'

An exponent above ``MAX_EXPONENT`` (64) raises :class:`ParseError`, and so
do nested powers whose exponents multiply past it, as in ``(a1^8)^9``.  A
product, quotient, power or ``hodgetwist`` whose numerator forms or
denominator would have weight degree above ``MAX_DEGREE`` (64) raises
:class:`ParseError` naming the operator's position before it is built; a
sum, cheap to build from bounded classes, is checked on its result.
Rationals are spelled as divisions of integers (for instance ``5/165888``);
division requires a scalar (degree-0, invertible) right-hand side.  Weight
scalars are homogeneous in ``a1, a2``: adding scalars of different degrees,
as in ``a1 + 1``, raises :class:`Inhomogeneous`.
``hodgetwist(g; w1, ...)`` attaches to the unique genus-g factor of the base.
A ``gen`` such as ``psi[0,1]`` or ``x[1]`` is looked up by
:meth:`TautClass.generator` in the ``gens`` of the base's factors, so a name
or index the base does not have raises :class:`BaseMismatch`.
"""

from __future__ import annotations

import re

from .errors import Inhomogeneous, ParseError
from .ring import BaseSpace, TautClass, hodge_twist_by_genus
from .scalars import EquivariantScalar

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\[\],;()+\-*/^]))"
)

EMPTY_BASE = BaseSpace(())
# the largest exponent after '^'; the shipped diagrams use at most 4, and a
# larger one only lets one expression stall the parser
MAX_EXPONENT = 64
# the largest weight degree of a class's numerator forms or denominator;
# the shipped diagrams reach 12, and products past it stall the parser
MAX_DEGREE = 64


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character {text[pos]!r} at position {pos}")
        if m.group("int"):
            out.append(("int", m.group("int"), m.start()))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start()))
        else:
            out.append(("op", m.group("op"), m.start()))
        pos = m.end()
    return out


def _int(digits: str, pos: int) -> int:
    """The integer literal at ``pos``; one longer than the interpreter
    converts (``sys.get_int_max_str_digits``) is a :class:`ParseError`."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits)} digits at position {pos} is too long"
        ) from None


class _Parser:
    def __init__(self, text: str, base: BaseSpace):
        self.text = text
        self.base = base
        self.toks = _tokenize(text)
        self.i = 0
        # the largest product of exponents along a chain of nested '^' in
        # the atom being parsed, which a '^' after the atom multiplies
        self.power = 1

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r} at position {pos} in {self.text!r}")

    def parse(self) -> TautClass:
        try:
            out = self.expr()
        except Inhomogeneous as exc:
            raise Inhomogeneous(f"{exc} in {self.text!r}") from None
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {val!r} at position {pos} in {self.text!r}")
        return out

    def bound(self, num: int, den: int, pos: int) -> None:
        """Refuse to build a class whose numerator forms or denominator
        would have weight degree ``num`` or ``den`` above MAX_DEGREE."""
        if max(num, den) > MAX_DEGREE:
            raise ParseError(
                f"weight degree {max(num, den)} at position {pos} is above "
                f"{MAX_DEGREE} in {self.text!r}"
            )

    def expr(self) -> TautClass:
        out = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, pos = self.next()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
            # its denominator is an lcm, known once the sum is built
            self.bound(*out.weight_degrees(), pos)
        return out

    def term(self) -> TautClass:
        out = self.signed()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.next()
            rhs = self.signed()
            num, den = out.weight_degrees()
            if op == "*":
                rnum, rden = rhs.weight_degrees()
                self.bound(num + rnum, den + rden, pos)
                out = out * rhs
            else:
                parts = rhs.degree_parts()
                if set(parts) - {0}:
                    raise ParseError(
                        f"division by a non-scalar class in {self.text!r}"
                    )
                scalar = rhs.scalar_part()
                if scalar.is_zero():
                    raise ParseError(f"division by zero in {self.text!r}")
                inverse = scalar.inverse()
                self.bound(num + inverse.num.degree(), den + inverse.den.degree(), pos)
                out = out.scale(inverse)
        return out

    def integer(self, what: str) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected {what} at position {pos}")
        return _int(val, pos)

    def signed(self) -> TautClass:
        if self.peek()[1] == "-":
            self.next()
            return -self.signed()
        outer, self.power = self.power, 1
        out = self.atom()
        inner = self.power
        if self.peek()[1] == "^":
            pos = self.next()[2]
            k = self.integer("integer exponent")
            if k > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {k} at position {pos} is above {MAX_EXPONENT} in {self.text!r}"
                )
            inner *= k
            if inner > MAX_EXPONENT:
                raise ParseError(
                    f"nested exponents multiply to {inner} at position {pos}, "
                    f"above {MAX_EXPONENT} in {self.text!r}"
                )
            self.bound(*(k * d for d in out.weight_degrees()), pos)
            out = out ** k
        self.power = max(outer, inner)
        return out

    def atom(self) -> TautClass:
        kind, val, pos = self.next()
        if kind == "int":
            return TautClass.scalar(self.base, _int(val, pos))
        if val == "(":
            out = self.expr()
            self.expect(")")
            return out
        if kind != "name":
            raise ParseError(f"unexpected {val!r} at position {pos} in {self.text!r}")
        if val == "a1":
            return TautClass.scalar(self.base, EquivariantScalar.weight(1))
        if val == "a2":
            return TautClass.scalar(self.base, EquivariantScalar.weight(2))
        if val == "hodgetwist":
            self.expect("(")
            genus = self.integer("genus")
            self.expect(";")
            weights = [self.expr()]
            while self.peek()[1] == ",":
                self.next()
                weights.append(self.expr())
            self.expect(")")
            # each weight w enters as a polynomial of degree genus in w
            num, den = map(sum, zip(*(w.weight_degrees() for w in weights)))
            if genus * max(num, den) > MAX_DEGREE:
                hodge_twist_by_genus(self.base, genus, [])  # a base without the factor raises first
                self.bound(genus * num, genus * den, pos)
            return hodge_twist_by_genus(self.base, genus, weights)
        self.expect("[")
        factor, index = self.integer("factor index"), None
        if self.peek()[1] == ",":
            self.next()
            index = self.integer("index")
        self.expect("]")
        return TautClass.generator(self.base, factor, val, index)


def parse_class(text: str, base: BaseSpace) -> TautClass:
    """Parse an expression into a tautological class over the given base."""
    return _Parser(text, base).parse()


def parse_scalar(text: str) -> EquivariantScalar:
    """Parse a pure weight-scalar expression (no generators allowed)."""
    cls = _Parser(text, EMPTY_BASE).parse()
    return cls.scalar_part()
