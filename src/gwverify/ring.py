"""Truncated graded ring of tautological classes over a product base space.

Generators are the psi-classes at marked points and lambda-classes on each
Deligne-Mumford factor, the hyperplane class x on each projective-line
factor (x^2 = 0), and the target psi-class on each rubber factor.  Each
factor declares its generators once, in ``gens``: exponent slots, degrees
and labels come from there, and the parser looks identifiers up in it.
A monomial is one flat tuple of exponents, the factors' slots in order.
Monomials are truncated per factor at the factor dimension: anything deeper
can never integrate to a nonzero value, and degrees only grow under
multiplication.

Coefficients are equivariant scalars; the weights do not count toward the
truncation degree.  A class stores them as integer numerator rows in
t = a2/a1 over one denominator shared by all its terms, a positive integer
times a form of content 1 (usually 1), and keeps its terms grouped by their
degree on each factor.  So ``*`` multiplies two groups only when their
degrees add up to at most each factor's dimension, adds integer row
products per monomial and multiplies the two denominators, with no gcd and
no canonical scalar per term.  A canonical :class:`EquivariantScalar` is
formed only where a coefficient is read: :meth:`TautClass.scalar_part`,
:attr:`TautClass.terms` and the value of :func:`tc_integrate`.  One rule
holds for weight degrees: every term added into one sum carries the weight
degree of the first, so a product or sum that puts two weight degrees on one
monomial, or a pairing whose top terms carry two, raises
:class:`Inhomogeneous` naming both, even where the sum has cancelled to 0.

Integration is factor-wise: Deligne-Mumford factors evaluate through the
mixed psi/lambda oracle, rubber factors through the rubber table, and a
projective-line factor contributes the coefficient of x.  A DM or rubber
factor that its oracle cannot integrate over is rejected when it is built.
``tc_integrate(a, b)`` pairs a product without forming its lower degrees:
a top-degree term has every factor at its dimension, so each degree group of
``a`` meets one group of ``b``.  The top rows are weighted by their
integrals over one integer lcm and reduced once.
:func:`mumford_product_check` reduces a product of two :func:`hodge_twist`
factors with the lambda relations, so it checks the twist the diagrams use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import add, le, mul, sub
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from ._record import Frozen, set_field
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
from .scalars import (
    ES_ONE,
    ES_ZERO,
    EquivariantScalar,
    Rational,
    Row,
    WeightPoly,
    _radd,
    _rmul,
    _trim,
    form_lcm,
    inhomogeneous_sum,
    poly_divexact,
    power,
)

Mono = tuple[int, ...]
Degrees = tuple[int, ...]  # a monomial's degree on each factor
Group = dict[Mono, tuple[int, Row]]  # monomial -> (weight degree, integer row)
Sums = dict[Mono, list]  # monomial -> [weight degree, row as a list, degrees]
Gen = tuple[str, Optional[int], int]


class Factor(Frozen):
    """A factor of the base space.  ``gens`` names its generators in
    exponent-slot order as (name, index or None, degree); the ring reads its
    slots, degrees and labels from them.  ``integral(e)`` pairs a monomial of
    the factor's top degree against it.  Factors keep an instance
    ``__dict__``, where the cached properties store their values."""

    gens: tuple[Gen, ...] = ()

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(d for _, _, d in self.gens)

    def degree(self, e: tuple[int, ...]) -> int:
        return sum(map(mul, e, self._degrees))


def _lam_gens(g: int) -> tuple[Gen, ...]:
    return tuple(("lam", j, j) for j in range(1, g + 1))


class DMFactor(Factor):
    __slots__ = _fields = ("g", "n")

    def __init__(self, g: int, n: int):
        check_dm(g, n)
        set_field(self, "g", g)
        set_field(self, "n", n)

    def __eq__(self, other):  # read by BaseSpace.__eq__
        if other.__class__ is self.__class__:
            return self.g == other.g and self.n == other.n
        return NotImplemented

    __hash__ = Frozen.__hash__

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


class ProjLineFactor(Factor):
    gens = (("x", None, 1),)

    @property
    def dim(self) -> int:
        return 1

    def integral(self, e: tuple[int, ...]) -> Fraction:
        return Fraction(1) if e[0] == 1 else Fraction(0)

    def __str__(self) -> str:
        return "P1"


class PointFactor(Factor):
    @property
    def dim(self) -> int:
        return 0

    def integral(self, e: tuple[int, ...]) -> Fraction:
        return Fraction(1)

    def __str__(self) -> str:
        return "pt"


class RubberFactor(Factor):
    """Degree-1 rubber space with the ((1),(1)) contact pattern; carries the
    target psi-class and the lambda-classes of its genus-g Hodge bundle."""

    __slots__ = _fields = ("g", "n")

    def __init__(self, g: int, n: int = 0):
        check_rubber(g, n)
        set_field(self, "g", g)
        set_field(self, "n", n)

    def __eq__(self, other):  # read by BaseSpace.__eq__
        if other.__class__ is self.__class__:
            return self.g == other.g and self.n == other.n
        return NotImplemented

    __hash__ = Frozen.__hash__

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


class BaseSpace(Frozen):
    """A product of factors; ``spans`` holds the (start, stop) range of each
    factor's exponent slots in a monomial, and ``dims`` each factor's
    dimension.  Both are derived, so only ``factors`` is compared."""

    __slots__ = ("factors", "spans", "dims")
    _fields = ("factors",)

    def __init__(self, factors: tuple[Factor, ...]):
        ends = tuple(accumulate((len(f.gens) for f in factors), initial=0))
        set_field(self, "factors", factors)
        set_field(self, "spans", tuple(zip(ends, ends[1:])))
        set_field(self, "dims", tuple(f.dim for f in factors))

    # The ring compares bases on every operation, so bases, and the factors
    # with fields, compare their fields directly rather than through
    # Frozen's loop over ``_fields``.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self.factors == other.factors
        return NotImplemented

    __hash__ = Frozen.__hash__

    @property
    def dim(self) -> int:
        return sum(self.dims)

    def zero_mono(self) -> Mono:
        return (0,) * sum(len(f.gens) for f in self.factors)

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors) if self.factors else "pt"


_ONE_FORM = ES_ONE.den  # the form 1, the denominator of a class without one


class TautClass:
    """A truncated polynomial in the tautological generators over a base.

    Every term shares one denominator ``q * den``: a positive integer and a
    form of content 1, usually 1.  ``groups`` maps a monomial's degrees on
    the factors to the monomials of those degrees, and each monomial to its
    numerator form as (weight degree d, integer row in t = a2/a1), so its
    coefficient is ``a1^d row(t) / (q * den)``.  Instances are treated as
    immutable.
    """

    __slots__ = ("base", "groups", "q", "den")

    def __init__(self, base: BaseSpace, terms: dict[Mono, EquivariantScalar] | None = None):
        self.base, self.groups, self.den = base, {}, _ONE_FORM
        nonzero = [(m, c) for m, c in (terms or {}).items() if not c.is_zero()]
        for _, c in nonzero:
            self.den = form_lcm(self.den, c.den)
        self.q = lcm(*(c.num.c.denominator for _, c in nonzero))
        for m, c in nonzero:
            k = c.num.c.numerator * (self.q // c.num.c.denominator)
            row = tuple(k * x for x in c.num.row)
            if c.den != self.den:
                row = _rmul(row, poly_divexact(self.den, c.den).row)
            coeff = (c.num.d + self.den.d - c.den.d, row)
            self.groups.setdefault(_mono_degrees(base, m), {})[m] = coeff

    # -- constructors --------------------------------------------------------
    @classmethod
    def scalar(cls, base: BaseSpace, c: EquivariantScalar | Rational | int) -> "TautClass":
        if not isinstance(c, EquivariantScalar):
            c = EquivariantScalar.from_rational(Fraction(c))
        if c.is_zero():
            return cls(base)
        k, row = c.num.c.numerator, c.num.row
        group = {base.zero_mono(): (c.num.d, tuple(k * x for x in row))}
        return _make(base, {(0,) * len(base.factors): group}, c.num.c.denominator, c.den)

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

    # -- reading coefficients -------------------------------------------------
    @property
    def terms(self) -> Mapping[Mono, EquivariantScalar]:
        """Each monomial's coefficient, as a canonical scalar (read-only)."""
        return MappingProxyType({
            m: EquivariantScalar.from_row(d, row, self.q, self.den)
            for group in self.groups.values()
            for m, (d, row) in group.items()
        })

    def is_zero(self) -> bool:
        return not self.groups

    def scalar_part(self) -> EquivariantScalar:
        group = self.groups.get((0,) * len(self.base.factors))
        if not group:
            return ES_ZERO
        ((d, row),) = group.values()
        return EquivariantScalar.from_row(d, row, self.q, self.den)

    def degree_parts(self) -> dict[int, "TautClass"]:
        parts: dict[int, dict[Degrees, Group]] = {}
        for degrees, group in self.groups.items():
            parts.setdefault(sum(degrees), {})[degrees] = group
        return {k: _make(self.base, groups, self.q, self.den) for k, groups in parts.items()}

    def weight_degrees(self) -> tuple[int, int]:
        """The largest weight degree of a numerator form, and the weight
        degree of the shared denominator."""
        top = max((d for group in self.groups.values() for d, _ in group.values()), default=0)
        return top, self.den.d

    # -- arithmetic -----------------------------------------------------------
    def _require_same_base(self, other: "TautClass") -> None:
        if self.base != other.base:
            raise BaseMismatch(f"bases differ: {self.base} vs {other.base}")

    def _over(self, q: int, den: WeightPoly) -> dict[Degrees, Group]:
        """The groups over the denominator ``q * den``, a multiple of the
        class's own."""
        k = q // self.q
        if k == 1 and (den is self.den or den == self.den):
            return self.groups
        cofactor = tuple(k * x for x in poly_divexact(den, self.den).row)
        return _times_rows(self.groups, cofactor, den.d - self.den.d)

    def __add__(self, other: "TautClass") -> "TautClass":
        self._require_same_base(other)
        q, den = lcm(self.q, other.q), form_lcm(self.den, other.den)
        groups = {degrees: dict(group) for degrees, group in self._over(q, den).items()}
        for degrees, group in other._over(q, den).items():
            mine = groups.setdefault(degrees, {})
            for m, (d, row) in group.items():
                have = mine.get(m)
                if have is None:
                    mine[m] = (d, row)
                elif have[0] != d:
                    raise inhomogeneous_sum(have[0] - den.d, d - den.d)
                elif total := _radd(have[1], row):
                    mine[m] = (d, total)
                else:
                    del mine[m]
        return _make(self.base, {ds: group for ds, group in groups.items() if group}, q, den)

    def __neg__(self) -> "TautClass":
        return _make(self.base, _times_rows(self.groups, (-1,), 0), self.q, self.den)

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-other)

    def scale(self, c: EquivariantScalar | Rational | int) -> "TautClass":
        if not isinstance(c, EquivariantScalar):
            c = EquivariantScalar.from_rational(Fraction(c))
        if c.is_zero():
            return TautClass(self.base)
        k, factor = c.num.c, c.num.row
        groups = _times_rows(self.groups, tuple(k.numerator * x for x in factor), c.num.d)
        return _make(self.base, groups, self.q * k.denominator, self.den * c.den)

    def __mul__(self, other: "TautClass") -> "TautClass":
        self._require_same_base(other)
        dims, den = self.base.dims, self.den * other.den
        sums: Sums = {}
        for d1, group1 in self.groups.items():
            for d2, group2 in other.groups.items():
                degrees = tuple(map(add, d1, d2))
                if all(map(le, degrees, dims)):
                    _pair(sums, group1, group2, degrees, den.d)
        return _settle(self.base, sums, self.q * other.q, den)

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
        terms = self.terms
        if not terms:
            return "0"
        degree = {m: sum(ds) for ds, group in self.groups.items() for m in group}
        return " + ".join(
            f"({terms[m]})*{_mono_str(self.base, m)}"
            for m in sorted(terms, key=lambda m: (degree[m], m))
        )

    __repr__ = __str__


def _make(base: BaseSpace, groups: dict[Degrees, Group], q: int, den: WeightPoly) -> TautClass:
    res = TautClass.__new__(TautClass)
    res.base, res.groups, res.q, res.den = base, groups, q, den
    return res


def _times_rows(groups: dict[Degrees, Group], factor: Row, shift: int) -> dict[Degrees, Group]:
    """Every numerator row times the integer row ``factor``, of weight
    degree ``shift``."""
    return {
        degrees: {m: (d + shift, _rmul(row, factor)) for m, (d, row) in group.items()}
        for degrees, group in groups.items()
    }


def _pair(sums: Sums, group1: Group, group2: Group, degrees: Degrees, shift: int) -> None:
    """Add the product of every term of group1 with every term of group2,
    all of the given degrees, to its monomial's running sum in ``sums``.

    The first product on a monomial fixes the weight degree of its sum; a
    later product of another weight degree raises :class:`Inhomogeneous`,
    whatever the sum has come to.  ``shift`` is the weight degree of the
    denominator, which the message subtracts.
    """
    for m1, (d1, row1) in group1.items():
        for m2, (d2, row2) in group2.items():
            m = tuple(map(add, m1, m2))
            d = d1 + d2
            size = len(row1) + len(row2) - 1
            have = sums.get(m)
            if have is None:
                sums[m] = have = [d, [0] * size, degrees]
            elif have[0] != d:
                raise inhomogeneous_sum(have[0] - shift, d - shift)
            acc = have[1]
            if size == 1:  # two numerators a1^d1 and a1^d2, up to their integer factors
                acc[0] += row1[0] * row2[0]
                continue
            if len(acc) < size:
                acc += [0] * (size - len(acc))
            for i, x in enumerate(row1):
                if x:
                    for j, y in enumerate(row2, i):
                        acc[j] += x * y


def _settle(base: BaseSpace, sums: Sums, q: int, den: WeightPoly) -> TautClass:
    """The class of the running sums over ``q * den``, in the order their
    monomials first appeared, without the sums that cancelled to 0."""
    groups: dict[Degrees, Group] = {}
    for m, (d, row, degrees) in sums.items():
        row = _trim(row)
        if row:
            groups.setdefault(degrees, {})[m] = (d, row)
    return _make(base, groups, q, den)


def _mono_degrees(base: BaseSpace, m: Mono) -> Degrees:
    return tuple(f.degree(m[s:t]) for f, (s, t) in zip(base.factors, base.spans))


def _mono_ok(base: BaseSpace, m: Mono) -> bool:
    return all(map(le, _mono_degrees(base, m), base.dims))


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

def geometric_series(a: TautClass, k: int) -> tuple[TautClass, EquivariantScalar]:
    """Write a = a0 - N with a0 the scalar part of ``a``: the sum
    sum_{j<=k} N^j a0^(k-j) and a0^(k+1).  Their quotient is 1/a up to the
    terms of N^(k+1).

    Each power N^j is formed once, as N^(j-1) * N, and the powers stop at
    the first that truncates to 0; the sum adds each power scaled by its
    power of a0.  N^j has no terms below degree j, so these products shrink
    as j grows, where a product of the growing series by N would not."""
    a0 = a.scalar_part()
    nilpotent = TautClass.scalar(a.base, a0) - a
    n_powers = [TautClass.one(a.base)]  # N^0 .. N^k, or up to the first 0
    for j in range(1, k + 1):
        n_power = nilpotent if j == 1 else n_powers[-1] * nilpotent
        if n_power.is_zero():
            break
        n_powers.append(n_power)
    a0_powers = [ES_ONE]
    for _ in range(k + 1):
        a0_powers.append(a0_powers[-1] * a0)
    # highest power first, as Horner's rule adds them: the first term on a
    # monomial fixes the weight degree that an Inhomogeneous message names first
    series = TautClass(a.base)
    for j in reversed(range(len(n_powers))):
        series = series + n_powers[j].scale(a0_powers[k - j])
    return series, a0_powers[k + 1]


def tc_invert(a: TautClass) -> TautClass:
    """The inverse, truncated at the base dimension K: the geometric series
    of ``a`` to N^K, divided once by a0^(K+1)."""
    if a.scalar_part().is_zero():
        raise NonInvertible("class has no invertible degree-0 part")
    series, a0_power = geometric_series(a, a.base.dim)
    return series.scale(a0_power.inverse())


def tc_integrate(a: TautClass, b: Optional[TautClass] = None) -> EquivariantScalar:
    """Pair the top-degree part of ``a``, or of ``a * b``, against the base,
    factor by factor.

    With ``b`` given, only the products of ``a * b`` that land in top
    degree are formed: each degree group of ``a`` meets one group of ``b``.
    Each top row is weighted by its integral over one integer lcm of the
    integrals' denominators, and the sum is reduced once.  The top terms,
    taken in monomial order, must carry the weight degree of the first.
    """
    base, dims = a.base, a.base.dims
    if b is None:
        top, q, den = a.groups.get(dims, {}), a.q, a.den
    else:
        a._require_same_base(b)
        q, den = a.q * b.q, a.den * b.den
        sums: Sums = {}
        for degrees, group in a.groups.items():
            partner = b.groups.get(tuple(map(sub, dims, degrees)))
            if partner:
                _pair(sums, group, partner, dims, den.d)
        top = _settle(base, sums, q, den).groups.get(dims, {})
    ordered = sorted(top)
    d = top[ordered[0]][0] if ordered else 0
    acc, over = [0] * (d + 1), 1  # the running sum: a1^d acc(t) / (q * over * den)
    for m in ordered:
        e, row = top[m]
        if e != d:
            raise inhomogeneous_sum(d - den.d, e - den.d)
        val = Fraction(1)
        for f, (s, t) in zip(base.factors, base.spans):
            val *= f.integral(m[s:t])
            if val == 0:
                break
        if val == 0:
            continue
        if over % val.denominator:
            k = lcm(over, val.denominator) // over
            acc, over = [k * x for x in acc], over * k
        k = val.numerator * (over // val.denominator)
        for i, x in enumerate(row):
            acc[i] += k * x
    return EquivariantScalar.from_row(d, acc, q * over, den)


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
