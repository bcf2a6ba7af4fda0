"""Truncated graded ring of tautological classes over a product base space.

Generators are the psi-classes at marked points and lambda-classes on each
Deligne-Mumford factor, the hyperplane class x on each projective-line
factor (x^2 = 0), and the target psi-class on each rubber factor.  Each
factor declares its generators once, in ``gens``: exponent slots, degrees
and labels come from there, and the parser looks identifiers up in it.
Coefficients are :class:`EquivariantScalar`; the equivariant weights do not
count toward the truncation degree.  A monomial is one flat tuple of
exponents, the factors' slots in order.  Monomials are truncated per factor
at the factor dimension: anything deeper can never integrate to a nonzero
value, and degrees only grow under multiplication.  Products therefore pair
terms by their degree on each factor: two groups of terms multiply only when
their degrees add up to at most each factor's dimension.

Integration is factor-wise: Deligne-Mumford factors evaluate through the
mixed psi/lambda oracle, rubber factors through the rubber table, and a
projective-line factor contributes the coefficient of x.  A DM or rubber
factor that its oracle cannot integrate over is rejected when it is built.
``tc_integrate(a, b)`` pairs a product without forming its lower degrees:
a top-degree term has every factor at its dimension, so each degree group of
``a`` meets one group of ``b``.
:func:`mumford_product_check` reduces a product of two :func:`hodge_twist`
factors with the lambda relations, so it checks the twist the diagrams use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, le, mul, sub
from typing import Optional, Sequence

from .errors import BaseMismatch, GenusOutOfRange, NonInvertible
from .hodge import (
    MAX_GENUS,
    HodgeMonomial,
    RubberKey,
    check_dm,
    check_rubber,
    hodge_intersect,
    rewrite_lambda,
    rubber_intersect,
)
from .scalars import ES_ONE, ES_ZERO, EquivariantScalar, Rational, power

Mono = tuple[int, ...]
Degrees = tuple[int, ...]  # a monomial's degree on each factor
Terms = list[tuple[Mono, EquivariantScalar]]
Pairs = dict[Mono, list[tuple[EquivariantScalar, EquivariantScalar]]]
Gen = tuple[str, Optional[int], int]


class Factor:
    """A factor of the base space.  ``gens`` names its generators in
    exponent-slot order as (name, index or None, degree); the ring reads its
    slots, degrees and labels from them.  ``integral(e)`` pairs a monomial of
    the factor's top degree against it."""

    gens: tuple[Gen, ...] = ()

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(d for _, _, d in self.gens)

    def degree(self, e: tuple[int, ...]) -> int:
        return sum(map(mul, e, self._degrees))


def _lam_gens(g: int) -> tuple[Gen, ...]:
    return tuple(("lam", j, j) for j in range(1, g + 1))


@dataclass(frozen=True)
class DMFactor(Factor):
    g: int
    n: int

    def __post_init__(self):
        check_dm(self.g, self.n)

    @property
    def dim(self) -> int:
        return 3 * self.g - 3 + self.n

    @cached_property
    def gens(self) -> tuple[Gen, ...]:
        return tuple(("psi", i, 1) for i in range(1, self.n + 1)) + _lam_gens(self.g)

    def integral(self, e: tuple[int, ...]) -> Fraction:
        return hodge_intersect(HodgeMonomial(self.g, self.n, e[: self.n], e[self.n :]))

    def __str__(self) -> str:
        return f"DM({self.g},{self.n})"


@dataclass(frozen=True)
class ProjLineFactor(Factor):
    gens = (("x", None, 1),)

    @property
    def dim(self) -> int:
        return 1

    def integral(self, e: tuple[int, ...]) -> Fraction:
        return Fraction(1) if e[0] == 1 else Fraction(0)

    def __str__(self) -> str:
        return "P1"


@dataclass(frozen=True)
class PointFactor(Factor):
    @property
    def dim(self) -> int:
        return 0

    def integral(self, e: tuple[int, ...]) -> Fraction:
        return Fraction(1)

    def __str__(self) -> str:
        return "pt"


@dataclass(frozen=True)
class RubberFactor(Factor):
    """Degree-1 rubber space with the ((1),(1)) contact pattern; carries the
    target psi-class and the lambda-classes of its genus-g Hodge bundle."""

    g: int
    n: int = 0

    def __post_init__(self):
        check_rubber(self.g, self.n)

    @property
    def dim(self) -> int:
        return self.n - 1 if self.g == 0 else 2 * self.g - 1

    @cached_property
    def gens(self) -> tuple[Gen, ...]:
        return (("psiinf", None, 1),) + _lam_gens(self.g)

    def integral(self, e: tuple[int, ...]) -> Fraction:
        return rubber_intersect(RubberKey(self.g, e[0], e[1:], n=self.n))

    def __str__(self) -> str:
        return f"Rubber({self.g})" if self.n == 0 else f"Rubber({self.g},{self.n})"


@dataclass(frozen=True)
class BaseSpace:
    """A product of factors; ``spans`` holds the (start, stop) range of each
    factor's exponent slots in a monomial."""

    factors: tuple[Factor, ...]
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ends = tuple(accumulate((len(f.gens) for f in self.factors), initial=0))
        object.__setattr__(self, "spans", tuple(zip(ends, ends[1:])))

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def dims(self) -> Degrees:
        return tuple(f.dim for f in self.factors)

    def zero_mono(self) -> Mono:
        return (0,) * sum(len(f.gens) for f in self.factors)

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors) if self.factors else "pt"


class TautClass:
    """A truncated polynomial in the tautological generators over a base."""

    __slots__ = ("base", "terms")

    def __init__(self, base: BaseSpace, terms: dict[Mono, EquivariantScalar] | None = None):
        self.base = base
        self.terms: dict[Mono, EquivariantScalar] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    # -- constructors --------------------------------------------------------
    @classmethod
    def scalar(cls, base: BaseSpace, c: EquivariantScalar | Rational | int) -> "TautClass":
        if not isinstance(c, EquivariantScalar):
            c = EquivariantScalar.from_rational(Fraction(c))
        return cls(base, {base.zero_mono(): c})

    @classmethod
    def one(cls, base: BaseSpace) -> "TautClass":
        return cls.scalar(base, ES_ONE)

    @classmethod
    def generator(
        cls, base: BaseSpace, factor: int, name: str, index: Optional[int] = None
    ) -> "TautClass":
        """The generator ``name[factor]`` or ``name[factor,index]``."""
        gens = base.factors[factor].gens if 0 <= factor < len(base.factors) else ()
        for slot, gen in enumerate(gens):
            if gen[:2] == (name, index):
                break
        else:
            raise BaseMismatch(f"no {_label(name, factor, index)} on {base}")
        mono = list(base.zero_mono())
        mono[base.spans[factor][0] + slot] += 1
        m = tuple(mono)
        if not _mono_ok(base, m):
            return cls(base)
        return cls(base, {m: ES_ONE})

    # -- structure -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> EquivariantScalar:
        return self.terms.get(self.base.zero_mono(), ES_ZERO)

    def degree_parts(self) -> dict[int, "TautClass"]:
        out: dict[int, TautClass] = {}
        for m, c in self.terms.items():
            d = _mono_degree(self.base, m)
            out.setdefault(d, TautClass(self.base)).terms[m] = c
        return out

    # -- arithmetic -----------------------------------------------------------
    def _require_same_base(self, other: "TautClass") -> None:
        if self.base != other.base:
            raise BaseMismatch(f"bases differ: {self.base} vs {other.base}")

    def __add__(self, other: "TautClass") -> "TautClass":
        self._require_same_base(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ES_ZERO) + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        res = TautClass(self.base)
        res.terms = out
        return res

    def __neg__(self) -> "TautClass":
        res = TautClass(self.base)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-other)

    def scale(self, c: EquivariantScalar | Rational | int) -> "TautClass":
        if not isinstance(c, EquivariantScalar):
            c = EquivariantScalar.from_rational(Fraction(c))
        res = TautClass(self.base)
        if c.is_zero():
            return res
        res.terms = {m: k * c for m, k in self.terms.items()}
        return res

    def __mul__(self, other: "TautClass") -> "TautClass":
        self._require_same_base(other)
        dims = self.base.dims
        right = _by_degrees(other)
        pairs: Pairs = {}
        for d1, terms1 in _by_degrees(self).items():
            for d2, terms2 in right.items():
                if all(map(le, map(add, d1, d2), dims)):
                    _pair(pairs, terms1, terms2)
        res = TautClass(self.base)
        for m, ps in pairs.items():
            s = EquivariantScalar.dot(ps)
            if not s.is_zero():
                res.terms[m] = s
        return res

    def __pow__(self, k: int) -> "TautClass":
        if k < 0:
            raise ValueError("negative power of a ring class; use tc_invert")
        return power(self, k, TautClass.one(self.base))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TautClass)
            and self.base == other.base
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (_mono_degree(self.base, m), m)):
            bits.append(f"({self.terms[m]})*{_mono_str(self.base, m)}")
        return " + ".join(bits)

    __repr__ = __str__


def _by_degrees(a: TautClass) -> dict[Degrees, Terms]:
    """The terms of ``a`` grouped by their degree on each factor."""
    groups: dict[Degrees, Terms] = {}
    for m, c in a.terms.items():
        groups.setdefault(_mono_degrees(a.base, m), []).append((m, c))
    return groups


def _pair(pairs: Pairs, terms1: Terms, terms2: Terms) -> None:
    """Add the coefficient pair of every product of two terms to ``pairs``,
    under the product's monomial."""
    for m1, c1 in terms1:
        for m2, c2 in terms2:
            pairs.setdefault(tuple(map(add, m1, m2)), []).append((c1, c2))


def _mono_degrees(base: BaseSpace, m: Mono) -> Degrees:
    return tuple(f.degree(m[s:t]) for f, (s, t) in zip(base.factors, base.spans))


def _mono_ok(base: BaseSpace, m: Mono) -> bool:
    return all(map(le, _mono_degrees(base, m), base.dims))


def _mono_degree(base: BaseSpace, m: Mono) -> int:
    return sum(_mono_degrees(base, m))


def _label(name: str, factor: int, index: Optional[int]) -> str:
    return f"{name}[{factor}]" if index is None else f"{name}[{factor},{index}]"


def _mono_str(base: BaseSpace, m: Mono) -> str:
    names = []
    for fi, (f, (s, t)) in enumerate(zip(base.factors, base.spans)):
        for (name, index, _), k in zip(f.gens, m[s:t]):
            if k:
                label = _label(name, fi, index)
                names.append(label if k == 1 else f"{label}^{k}")
    return "*".join(names) if names else "1"


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def tc_invert(a: TautClass) -> TautClass:
    """Geometric-series inverse, truncated at the base dimension."""
    a0 = a.scalar_part()
    if a0.is_zero():
        raise NonInvertible("class has no invertible degree-0 part")
    inv0 = a0.inverse()
    nilpotent = a - TautClass.scalar(a.base, a0)
    out = TautClass.scalar(a.base, inv0)
    power = TautClass.one(a.base)
    coeff = inv0
    for _ in range(a.base.dim):
        power = power * nilpotent
        if power.is_zero():
            break
        coeff = -coeff * inv0  # (-1)^k inv0^(k+1)
        out = out + power.scale(coeff)
    return out


def tc_integrate(a: TautClass, b: Optional[TautClass] = None) -> EquivariantScalar:
    """Pair the top-degree part of ``a``, or of ``a * b``, against the base,
    factor by factor.

    With ``b`` given, only the products of ``a * b`` that land in top
    degree are formed, each coefficient by one :meth:`EquivariantScalar.dot`
    as ``*`` forms it, so the value is ``tc_integrate(a * b)``.
    """
    base, dims = a.base, a.base.dims
    if b is None:
        top = {m: c for m, c in a.terms.items() if _mono_degrees(base, m) == dims}
    else:
        a._require_same_base(b)
        right = _by_degrees(b)
        pairs: Pairs = {}
        for d, terms in _by_degrees(a).items():
            partner = right.get(tuple(map(sub, dims, d)))
            if partner:
                _pair(pairs, terms, partner)
        top = {m: EquivariantScalar.dot(ps) for m, ps in pairs.items()}
    total = ES_ZERO
    for m in sorted(m for m, c in top.items() if not c.is_zero()):
        val = Fraction(1)
        for f, (s, t) in zip(base.factors, base.spans):
            val *= f.integral(m[s:t])
            if val == 0:
                break
        if val != 0:
            total = total + top[m].scale(val)
    return total


def hodge_twist(
    base: BaseSpace,
    factor: int,
    weights: Sequence[TautClass | EquivariantScalar],
) -> TautClass:
    """prod_w (w^g - lam_1 w^(g-1) + ... + (-1)^g lam_g) on the given factor.

    Weights may be ring elements (for instance 2x + a1); the product is
    truncated like any other ring product.
    """
    f = base.factors[factor]
    if not isinstance(f, (DMFactor, RubberFactor)):
        raise BaseMismatch(f"factor {factor} of {base} carries no Hodge bundle")
    lams = [TautClass.generator(base, factor, "lam", i) for i in range(1, f.g + 1)]
    out = TautClass.one(base)
    for w in weights:
        if isinstance(w, EquivariantScalar):
            w = TautClass.scalar(base, w)
        term = TautClass.one(base)  # by Horner in w
        for i, lam in enumerate(lams, start=1):
            term = term * w + (-lam if i % 2 else lam)
        out = out * term
    return out


def mumford_product_check(g: int, w: EquivariantScalar) -> bool:
    """True iff hodge_twist(w, -w) on a genus-g factor reduces to (-1)^g w^(2g)
    under the lambda relations: Mumford's c(E)c(E*) = 1, twisted by w.

    The factor is DM(g, max(0, 3 - g)), of dimension at least 2g, so the
    ring truncates no term of the product.
    """
    if not 1 <= g <= MAX_GENUS:
        raise GenusOutOfRange(f"mumford product check needs genus 1..{MAX_GENUS}, got {g}")
    f = DMFactor(g, max(0, 3 - g))
    base = BaseSpace((f,))
    reduced: dict[tuple[int, ...], EquivariantScalar] = {}
    for e, c in hodge_twist(base, 0, [w, -w]).terms.items():
        normal = rewrite_lambda(g, e[f.n :])
        if normal is not None:
            coeff, lt = normal
            key = e[: f.n] + lt
            reduced[key] = reduced.get(key, ES_ZERO) + c.scale(coeff)
    reduced = {key: c for key, c in reduced.items() if not c.is_zero()}
    return reduced == {base.zero_mono(): (w ** (2 * g)).scale((-1) ** g)}


def hodge_twist_by_genus(
    base: BaseSpace, g: int, weights: Sequence[TautClass | EquivariantScalar]
) -> TautClass:
    """Bind the twist to the unique genus-g factor of the base."""
    matches = [
        i
        for i, f in enumerate(base.factors)
        if isinstance(f, (DMFactor, RubberFactor)) and f.g == g
    ]
    if len(matches) != 1:
        raise BaseMismatch(
            f"hodgetwist({g}; ...) needs exactly one genus-{g} factor on {base}"
        )
    return hodge_twist(base, matches[0], weights)
