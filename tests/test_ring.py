import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from gwverify.errors import BaseMismatch, Inhomogeneous, NonInvertible, ParseError, UnknownMonomial
from gwverify.exprs import parse_class, parse_scalar
from gwverify.ring import (
    BaseSpace,
    DMFactor,
    PointFactor,
    ProjLineFactor,
    RubberFactor,
    TautClass,
    _label,
    _mono_degrees,
    _mono_ok,
    hodge_twist_by_genus,
    tc_integrate,
    tc_invert,
)
from gwverify.scalars import ES_ONE, ES_ZERO, EquivariantScalar, WeightPoly
from test_scalars import _assert_canonical, _random_form
from test_scalars import _random_scalar as _random_ratio

A1 = EquivariantScalar.weight(1)
A2 = EquivariantScalar.weight(2)

M21 = BaseSpace((DMFactor(2, 1),))
M22 = BaseSpace((DMFactor(2, 2),))
M32P1 = BaseSpace((DMFactor(3, 2), ProjLineFactor()))
P1 = BaseSpace((ProjLineFactor(),))


def test_x_nilpotent():
    x = TautClass.generator(P1, 0, "x")
    assert (x * x).is_zero()


def test_one_is_identity():
    c = parse_class("psi[0,1]^2 + 3*lam[0,1]", M21)
    assert TautClass.one(M21) * c == c


def test_base_mismatch():
    with pytest.raises(BaseMismatch):
        TautClass.one(M21) * TautClass.one(M22)


def test_integrate_simple():
    assert tc_integrate(parse_class("psi[0,1]^4", M21)) == Fraction(1, 1152)
    assert tc_integrate(TautClass.generator(P1, 0, "x")) == ES_ONE
    # degree below the dimension integrates to zero
    assert tc_integrate(parse_class("psi[0,1]", M21)).is_zero()


def test_invert_scalar_and_linear():
    w = TautClass.scalar(P1, A1)
    assert tc_invert(w) == TautClass.scalar(P1, A1.inverse())
    # invert(w + x) = 1/w - x/w^2 on a 1-dimensional factor
    wx = parse_class("a1 + x[0]", P1)
    inv = tc_invert(wx)
    assert wx * inv == TautClass.one(P1)
    expected = TautClass.scalar(P1, A1.inverse()) - TautClass.generator(P1, 0, "x").scale(
        (A1 * A1).inverse()
    )
    assert inv == expected


def test_invert_requires_scalar_part():
    with pytest.raises(NonInvertible):
        tc_invert(TautClass.generator(P1, 0, "x"))


def test_invert_unit_identity_random():
    rng = random.Random(5)
    base = M32P1
    gens = [
        parse_class(s, base)
        for s in ("psi[0,1]", "psi[0,2]", "lam[0,1]", "lam[0,2]", "lam[0,3]", "x[1]")
    ]
    for _ in range(12):
        cls = TautClass.scalar(base, A1.scale(rng.randint(1, 4)))
        for g in gens:
            if rng.random() < 0.5:
                cls = cls + g.scale(Fraction(rng.randint(-3, 3)))
        if cls.scalar_part().is_zero():
            continue
        assert cls * tc_invert(cls) == TautClass.one(base)


def test_commutativity_random():
    rng = random.Random(9)
    base = M32P1
    # (name, degree) with the weights of degree 1
    names = [
        ("psi[0,1]", 1), ("psi[0,2]", 1), ("lam[0,1]", 1), ("lam[0,2]", 2),
        ("x[1]", 1), ("a1", 1), ("a2", 1), ("3", 0),
    ]

    def rand_cls():
        # all terms of one degree, so every coefficient is a homogeneous scalar
        degree = rng.randint(1, 3)
        cls = TautClass(base)
        for _ in range(rng.randint(1, 4)):
            term, left = TautClass.one(base), degree
            while left:
                name, d = rng.choice([nd for nd in names if nd[1] <= left])
                term = term * parse_class(name, base)
                left -= d
            cls = cls + term.scale(Fraction(rng.randint(-2, 2)))
        return cls

    for _ in range(10):
        a, b = rand_cls(), rand_cls()
        assert a * b == b * a


def test_integrate_linear_over_scalars():
    a = parse_class("psi[0,1]^4", M21)
    b = parse_class("psi[0,1]^2*lam[0,2]", M21)
    c = a.scale(A1 ** 2) + b.scale(A2 ** 2)
    assert tc_integrate(c) == (A1 ** 2).scale(Fraction(1, 1152)) + (A2 ** 2).scale(Fraction(7, 5760))


def test_hodge_twist_genus2():
    # weights [a1 - a2] gives lam_2 - (a1-a2) lam_1 + (a1-a2)^2
    got = hodge_twist_by_genus(M21, 2, [parse_class("a1-a2", M21)])
    expected = parse_class("lam[0,2] - (a1-a2)*lam[0,1] + (a1-a2)^2", M21)
    assert got == expected


def test_hodge_twist_rank1():
    base = BaseSpace((DMFactor(1, 1),))
    got = hodge_twist_by_genus(base, 1, [TautClass.scalar(base, A1)])
    assert got == parse_class("a1 - lam[0,1]", base)


def test_hodge_twist_mumford_collapse_under_integration():
    # twist(w) * twist(-w) = (-1)^g w^(2g) + (relation ideal): the degree-0
    # slice is exactly (-1)^g w^(2g) and every positive-degree slice pairs to
    # zero against a complementary psi power.
    for g, dim in [(2, 4), (3, 7)]:
        base = BaseSpace((DMFactor(g, 1),))
        w = TautClass.scalar(base, A1)
        prod = hodge_twist_by_genus(base, g, [w]) * hodge_twist_by_genus(base, g, [-w])
        parts = prod.degree_parts()
        assert parts[0] == TautClass.scalar(
            base, (A1 ** (2 * g)).scale(Fraction(-1) ** g)
        )
        for d, part in parts.items():
            if d == 0 or d > dim:
                continue
            pairing = tc_integrate(part * parse_class(f"psi[0,1]^{dim - d}", base))
            assert pairing.is_zero()


def test_truncation_soundness():
    # multiplying beyond the factor dimension drops terms
    c = parse_class("psi[0,1]^4", M21)
    assert (c * c).is_zero()
    assert (c * TautClass.generator(M21, 0, "lam", 2)).is_zero()


def _random_scalar(rng, degree, polynomial):
    """A random scalar of the given degree: a polynomial, or else over one
    or more linear forms."""
    over = 0 if polynomial else max(1, -degree)
    out = EquivariantScalar.from_rational(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
    for i in range(degree + 2 * over):
        linear = A1.scale(rng.randint(1, 3)) + A2.scale(rng.randint(-3, 3))
        out = out / linear if i < over else out * linear
    return out


def _random_class(rng, base, skip=()):
    """A few monomials of random degree d, each with a scalar of degree
    s - d for one s, so every coefficient of a product's top degree has one
    degree.  The scalars are polynomials in half the classes.  The
    generators named in ``skip`` are left out."""
    gens = [
        (TautClass.generator(base, i, name, index), degree)
        for i, f in enumerate(base.factors)
        for name, index, degree in f.gens
        if _label(name, i, index) not in skip
    ]
    polynomial = rng.random() < 0.5
    out, s = TautClass(base), base.dim if polynomial else 0
    for _ in range(rng.randint(2, 8)):
        mono, degree = TautClass.one(base), 0
        for _ in range(rng.randint(0, base.dim)):
            gen, d = rng.choice(gens)
            mono, degree = mono * gen, degree + d
        out = out + mono.scale(_random_scalar(rng, s - degree, polynomial))
    return out


@pytest.mark.parametrize(
    "factors, skip",
    [
        # the table lacks genus-2 monomials such as psi_1^2 psi_2^2 lam_1
        ((DMFactor(2, 2), ProjLineFactor()), ("psi[0,2]",)),
        ((DMFactor(1, 1), ProjLineFactor()), ()),
    ],
)
def test_paired_integral_is_the_integral_of_the_product(factors, skip):
    base = BaseSpace(factors)
    rng = random.Random(base.dim)
    nonzero = 0
    for _ in range(60):
        a, b = _random_class(rng, base, skip), _random_class(rng, base, skip)
        paired = tc_integrate(a, b)
        assert paired == tc_integrate(a * b)
        nonzero += not paired.is_zero()
    assert nonzero >= 10
    # the two degrees add up to the top, but the product exceeds the moduli factor
    a = parse_class("psi[0,1]^3" if base.dim == 6 else "psi[0,1]", base)
    b = parse_class("a1*psi[0,2]^3" if base.dim == 6 else "a1*psi[0,1]", base)
    assert (a * b).is_zero() and tc_integrate(a, b).is_zero()
    with pytest.raises(BaseMismatch):
        tc_integrate(a, TautClass.one(M21))


def test_product_truncates_above_the_factor_dimension():
    base = BaseSpace((DMFactor(2, 1),))
    a = parse_class("psi[0,1]^3", base)
    b = parse_class("psi[0,1] + lam[0,2]", base)
    # psi^3 * lam_2 has degree 5 on a space of dimension 4
    assert a * b == parse_class("psi[0,1]^4", base)


def test_expansion_4_25():
    # (a1-a2)^2 * twist / ((a1-a2)(a1-a2-psi_3)) expands to
    # lam_2 - lam_1 psi_3 + psi_3^2 + higher psi_3 powers
    base = BaseSpace((DMFactor(2, 3),))
    w = "a1 - a2"
    numer = parse_class(f"({w})^2", base) * hodge_twist_by_genus(
        base, 2, [parse_class(w, base)]
    )
    denom = parse_class(f"({w}) * ({w} - psi[0,3])", base)
    full = numer * tc_invert(denom)
    # weight-free part matches the printed expansion
    zero_weight = TautClass(base)
    for m, c in full.terms.items():
        if c.is_constant() is not None:
            zero_weight = zero_weight + TautClass(base, {m: c})
    assert zero_weight == parse_class(
        "lam[0,2] - lam[0,1]*psi[0,3] + psi[0,3]^2", base
    )


def test_rubber_factor_integration():
    base = BaseSpace((RubberFactor(2),))
    assert tc_integrate(parse_class("lam[0,1]^3", base)) == Fraction(1, 1440)
    assert tc_integrate(parse_class("psiinf[0]*lam[0,1]^2", base)) == Fraction(1, 576)
    assert tc_integrate(parse_class("psiinf[0]^2*lam[0,1]", base)).is_zero()


def test_genus0_rubber_factor_integration():
    base = BaseSpace((RubberFactor(0, n=4),))
    assert base.dim == 3
    assert tc_integrate(parse_class("psiinf[0]^3", base)) == Fraction(1)
    assert tc_integrate(parse_class("psiinf[0]", base)).is_zero()


def test_hodge_twist_ambiguous_genus():
    base = BaseSpace((DMFactor(2, 1), DMFactor(2, 2)))
    with pytest.raises(BaseMismatch):
        hodge_twist_by_genus(base, 2, [TautClass.scalar(base, A1)])


def test_point_factor():
    base = BaseSpace((PointFactor(),))
    assert tc_integrate(parse_class("(a1-a2)^2/((a1-a2)*(a1-a2))", base)) == ES_ONE


def test_parse_scalar():
    v = parse_scalar("-1/2 * 1/82944 * a2^6/(a1^4*(a1^2-a2^2))")
    assert str(v) == "(-1/165888*a2^6)/(a1^6 - a1^4*a2^2)"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_class("psi[0,1] @", M21)
    with pytest.raises(ParseError):
        parse_class("1/(psi[0,1])", M21)
    with pytest.raises(BaseMismatch):
        parse_class("psi[0]", M21)
    with pytest.raises(BaseMismatch):
        parse_class("x[0]", M21)


def test_nested_powers_are_bounded_by_their_product():
    assert parse_scalar("(a1^2)^2") == parse_scalar("a1^4")
    assert parse_scalar("((a1+a2)^8)^8") == parse_scalar("(a1+a2)^64")
    # a 4,096-degree power would stall the parser instead of failing
    with pytest.raises(ParseError, match="nested exponents multiply to 4096 at position 12"):
        parse_scalar("((a1+a2)^64)^64")
    with pytest.raises(ParseError, match="multiply to 72"):
        parse_scalar("-(-a1^8)^9")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a1+a2)^60*a1^5", "weight degree 65 at position 10"),
        ("(a1*a1*a1)^22", "weight degree 66 at position 10"),
        ("1/a1^40/a2^40", "weight degree 80 at position 7"),
        ("1/a1^40 + 1/a2^40", "weight degree 80 at position 7"),
        ("hodgetwist(3; (a1+a2)^22)", "weight degree 66 at position 0"),
        # a base without the twist's factor fails on that first
        ("hodgetwist(2; (a1+a2)^40)", "needs exactly one genus-2 factor"),
        # the exponent checks come first, and a degree-0 power has no bound
        ("(2^64)^64", "nested exponents multiply to 4096"),
        ("2^64*3^64*a1^64", None),
        ("(a1+a2)^60*a1^4", None),
        ("hodgetwist(3; (a1+a2)^21)", None),
    ],
)
def test_weight_degree_is_bounded(text, message):
    base = BaseSpace((DMFactor(3, 1),))
    if message is None:
        assert max(parse_class(text, base).weight_degrees()) <= 64
        return
    with pytest.raises((ParseError, BaseMismatch), match=message):
        parse_class(text, base)


EVERY_KIND = BaseSpace((DMFactor(2, 2), ProjLineFactor(), PointFactor(), RubberFactor(1)))


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "hodgetwist(2; a1, a2)",
            "((a1^2*a2^2)/(1))*1 + ((-a1^2*a2 - a1*a2^2)/(1))*lam[0,1]"
            " + ((a1^2 + a2^2)/(1))*lam[0,2] + ((a1*a2)/(1))*lam[0,1]^2"
            " + ((-a1 - a2)/(1))*lam[0,1]*lam[0,2] + ((1)/(1))*lam[0,2]^2",
        ),
        ("hodgetwist(1; a1)*psiinf[3]", "((a1)/(1))*psiinf[3]"),
        (
            "hodgetwist(2; a1 - x[1])",
            "((a1^2)/(1))*1 + ((-2*a1)/(1))*x[1] + ((-a1)/(1))*lam[0,1]"
            " + ((1)/(1))*lam[0,2] + ((1)/(1))*lam[0,1]*x[1]",
        ),
        (
            "psi[0,1]*psi[0,2]^2*lam[0,2]*x[1]*lam[3,1]",
            "((1)/(1))*psi[0,1]*psi[0,2]^2*lam[0,2]*x[1]*lam[3,1]",
        ),
        ("x[0]", (BaseMismatch, "no x[0] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psi[0]", (BaseMismatch, "no psi[0] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psi[0,9]", (BaseMismatch, "no psi[0,9] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psi[0,0]", (BaseMismatch, "no psi[0,0] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("lam[1,1]", (BaseMismatch, "no lam[1,1] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("lam[3,2]", (BaseMismatch, "no lam[3,2] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psiinf[0]", (BaseMismatch, "no psiinf[0] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psi[7,1]", (BaseMismatch, "no psi[7,1] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("x[1,1]", (BaseMismatch, "no x[1,1] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("x[9]", (BaseMismatch, "no x[9] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("lam[2,1]", (BaseMismatch, "no lam[2,1] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psi[1,1]", (BaseMismatch, "no psi[1,1] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psiinf[3,1]", (BaseMismatch, "no psiinf[3,1] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("foo[0]", (BaseMismatch, "no foo[0] on DM(2,2) x P1 x pt x Rubber(1)")),
        ("psi[0,1,2]", (ParseError, "expected ']' at position 7 in 'psi[0,1,2]'")),
    ],
)
def test_generator_labels_and_errors_on_every_factor_kind(text, expected):
    if isinstance(expected, str):
        assert str(parse_class(text, EVERY_KIND)) == expected
        return
    error, message = expected
    with pytest.raises(error) as exc:
        parse_class(text, EVERY_KIND)
    assert type(exc.value) is error and str(exc.value) == message


# -- a coefficient of a product is one sum of products -------------------------

def _sum_of_products(pairs):
    """sum(a * b for a, b in pairs) through ``*``: pair i sits on
    psi[0,1]^i psi[1,1]^(k-i) of one class and psi[0,1]^(k-i) psi[1,1]^i of
    the other, over two genus-0 factors of dimension k = len(pairs) - 1.
    Every other product of two terms lies above a factor's dimension, so
    only the pairs meet, at psi[0,1]^k psi[1,1]^k, in their order."""
    k = max(len(pairs) - 1, 0)
    base = BaseSpace((DMFactor(0, k + 3), DMFactor(0, k + 3)))
    psi = TautClass.generator(base, 0, "psi", 1)
    psi_ = TautClass.generator(base, 1, "psi", 1)
    a, b = TautClass(base), TautClass(base)
    for i, (x, y) in enumerate(pairs):
        a = a + (psi ** i * psi_ ** (k - i)).scale(x)
        b = b + (psi ** (k - i) * psi_ ** i).scale(y)
    product = a * b
    top = _mono(psi ** k * psi_ ** k)
    assert set(product.terms) <= {top}
    return product.terms.get(top, ES_ZERO)


def _mono(cls):
    """The monomial of a class with one term."""
    (m,) = cls.terms
    return m


def _sequential(pairs):
    total = ES_ZERO
    for a, b in pairs:
        total = total + a * b
    return total


def test_product_coefficient_is_the_sum_of_products():
    rng = random.Random(41)
    for _ in range(60):
        degree = rng.randint(-1, 1)
        pairs = []
        for _ in range(rng.randint(0, 5)):
            d1 = rng.randint(-1, 1)
            pairs.append((_random_ratio(rng, d1), _random_ratio(rng, degree - d1)))
        if pairs and rng.random() < 0.3:
            a, b = pairs[0]
            pairs.append((-a, b))  # cancels the first product
        assert _assert_canonical(_sum_of_products(pairs)) == _sequential(pairs)
    # raw denominators that share a factor, so their lcm is not their product
    s, d = A1 + A2, A1 - A2
    const = EquivariantScalar.from_rational
    shared = [
        [(A1 / (s * d), A2), (A2 / s, ES_ONE)],
        [(A1 / s, A2 / d), (ES_ONE / s, A1), (A2 / (s * d), s), (ES_ONE, A2 * A2 / (s * s))],
        [(A1 / (s * s), A1 / d), (A2 / (s * d), A1 / d), (const(3), A1 * A1 / (s * s * d))],
    ]
    # and sums that cancel to 0 across different raw denominators
    cancelling = [
        [(ES_ONE / A1, ES_ONE / A2), (-ES_ONE / (A1 * A1), A1 / A2)],
        [(ES_ONE / s, ES_ONE / d), (-A1 / (s * d), ES_ONE / A1)],
        [
            (A2 / (s * d), ES_ONE), (-A2 / s, ES_ONE / d),
            (A1 / (s * s), const(Fraction(1, 2))), (-A1 / (s * A2), A2 / s.scale(2)),
        ],
    ]
    for pairs in shared + cancelling:
        expected = _sequential(pairs)
        assert _assert_canonical(_sum_of_products(pairs)) == expected
        assert expected.is_zero() == (pairs in cancelling)
    # the first product fixes the weight degree of the sum, and a product of
    # another raises, also after the sum has cancelled
    with pytest.raises(Inhomogeneous, match="degree 1 and 0"):
        _sum_of_products([(A1, ES_ONE), (-A1, ES_ONE), (ES_ONE, ES_ONE)])
    with pytest.raises(Inhomogeneous, match="degree 1 and 0"):
        _sum_of_products([(A1, ES_ONE), (ES_ONE, ES_ONE)])
    # over a denominator of weight degree 1 the numerators have degrees 2 and
    # 1, and the message gives the degrees of the scalars
    with pytest.raises(Inhomogeneous, match="degree 1 and 0$"):
        _sum_of_products([(A1 * A1 / A2, ES_ONE), (ES_ONE, ES_ONE)])
    # as do the top terms of a pairing, in monomial order: lam*x before psi*x
    base = BaseSpace((DMFactor(1, 1), ProjLineFactor()))
    with pytest.raises(Inhomogeneous) as mixed:
        tc_integrate(parse_class("a1*psi[0,1]*x[1] + lam[0,1]*x[1]", base))
    assert str(mixed.value) == "cannot add scalars of degree 0 and 1"


def _count_gcds(monkeypatch):
    from gwverify import scalars

    calls = []
    original = scalars.poly_gcd
    monkeypatch.setattr(scalars, "poly_gcd", lambda p, q: calls.append(1) or original(p, q))
    return calls


def test_polynomial_coefficients_take_no_gcd(monkeypatch):
    rng = random.Random(47)
    gcds = _count_gcds(monkeypatch)

    def polynomial(degree):
        return EquivariantScalar(_random_form(rng, degree))

    for _ in range(40):
        degree = rng.randint(0, 4)
        pairs = []
        for _ in range(rng.randint(1, 6)):
            d1 = rng.randint(0, degree)
            pairs.append((polynomial(d1), polynomial(degree - d1)))
        assert _assert_canonical(_sum_of_products(pairs)) == _sequential(pairs)
        # a sum that cancels is the canonical 0/1
        a, b = pairs[0]
        zero = _sum_of_products([(a, b), (-a, b)])
        assert _assert_canonical(zero).is_zero() and zero == ES_ZERO
    assert not gcds  # a denominator of 1 takes no gcd in *, + or scale
    # mixed degrees raise as the sequential sum does
    pairs = [(A1, A1 + A2), (A2, ES_ONE), (A1, A2)]
    with pytest.raises(Inhomogeneous) as sequential:
        _sequential(pairs)
    with pytest.raises(Inhomogeneous) as grouped:
        _sum_of_products(pairs)
    assert str(grouped.value) == str(sequential.value)


def test_mixed_raw_denominators_reduce_once(monkeypatch):
    # the unit-inverse shape: the raw denominators a1^2, a1^3 and a1^4
    pairs = [
        (A2 / A1, (A1 + A2) / A1),
        (A2.scale(3) / A1, A2 * A2 / (A1 * A1)),
        (A2 * A2.scale(-2) / (A1 * A1), A2 * A2 / (A1 * A1)),
    ]
    assert {(a.den * b.den).degree() for a, b in pairs} == {2, 3, 4}
    base = BaseSpace((DMFactor(0, 5), DMFactor(0, 5)))
    psi = TautClass.generator(base, 0, "psi", 1)
    psi_ = TautClass.generator(base, 1, "psi", 1)
    a = TautClass(base, {_mono(psi ** i * psi_ ** (2 - i)): x for i, (x, _) in enumerate(pairs)})
    b = TautClass(base, {_mono(psi ** (2 - i) * psi_ ** i): y for i, (_, y) in enumerate(pairs)})
    gcds = _count_gcds(monkeypatch)
    product = a * b
    assert not gcds  # the product multiplies the two class denominators
    (coefficient,) = product.terms.values()
    assert len(gcds) == 1  # and reading the one coefficient reduces it once
    paired = tc_integrate(a, b)
    assert len(gcds) == 2  # as one pairing does
    monkeypatch.undo()
    assert _assert_canonical(coefficient) == _sequential(pairs)
    assert paired == tc_integrate(product)


def test_one_pairing_takes_at_most_one_gcd(monkeypatch):
    base = BaseSpace((DMFactor(1, 1), ProjLineFactor()))
    rng = random.Random(53)
    gcds = _count_gcds(monkeypatch)
    reduced = 0
    for _ in range(40):
        a, b = _random_class(rng, base), _random_class(rng, base)
        del gcds[:]
        tc_integrate(a, b)
        assert len(gcds) <= 1
        reduced += len(gcds)
    assert reduced >= 10  # half the classes have denominators


# -- the kernel's properties on drawn bases and classes --------------------------

_DRAWN_FACTORS = [
    DMFactor(0, 3), DMFactor(0, 5), DMFactor(1, 1), DMFactor(1, 2), DMFactor(2, 1),
    ProjLineFactor(), RubberFactor(0, 3), RubberFactor(1), RubberFactor(2),
]
_LINEAR = [
    WeightPoly({(1, 0): 1}), WeightPoly({(0, 1): 1}), WeightPoly({(1, 0): 1, (0, 1): 1}),
    WeightPoly({(1, 0): 1, (0, 1): -1}), WeightPoly({(1, 0): 2, (0, 1): 3}),
]


@st.composite
def _drawn_scalars(draw, degree):
    """A scalar of the given weight degree over a product of linear forms;
    the forms repeat, so the denominators of a class share factors."""
    over = draw(st.integers(max(0, -degree), max(0, -degree) + 2))
    num = WeightPoly({
        (degree + over - k, k): Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        for k in range(degree + over + 1)
    })
    den = WeightPoly.const(1)
    for _ in range(over):
        den = den * draw(st.sampled_from(_LINEAR))
    return EquivariantScalar(num, den)


@st.composite
def _drawn_classes(draw, base, s):
    """A few monomials m, each with a scalar of weight degree s - deg(m), so
    that sums and products of the drawn classes are homogeneous."""
    slots = len(base.zero_mono())
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = [0] * slots
        for _ in range(draw(st.integers(0, base.dim))):
            mono[draw(st.integers(0, slots - 1))] += 1
        m = tuple(mono)
        if _mono_ok(base, m):
            degree = sum(f.degree(m[i:j]) for f, (i, j) in zip(base.factors, base.spans))
            terms[m] = draw(_drawn_scalars(s - degree))
    return TautClass(base, terms)


def _integral(a, b=None):
    try:
        return tc_integrate(a, b)
    except UnknownMonomial as exc:  # a genus-2 key the table lacks
        return str(exc)


def _termwise(base, a, b):
    """The termwise reference of a * b: each monomial's list of products."""
    products = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if _mono_ok(base, m):
                products.setdefault(m, []).append(c1 * c2)
    return products


def _check_weight_degree_rule(base, a, b):
    """a * b raises exactly where the termwise reference puts products of two
    weight degrees on one monomial, and tc_integrate(a, b) raises where such
    a monomial is of top degree or the surviving top terms carry two."""
    products = _termwise(base, a, b)
    mixed = {m for m, ps in products.items() if len({p.degree() for p in ps}) > 1}
    top = {m for m in products if _mono_degrees(base, m) == base.dims}
    if mixed:
        with pytest.raises(Inhomogeneous):
            a * b
        if mixed & top:
            with pytest.raises(Inhomogeneous):
                tc_integrate(a, b)
        return
    product = a * b
    expected = {m: sum(ps, ES_ZERO) for m, ps in products.items()}
    assert product.terms == {m: c for m, c in expected.items() if not c.is_zero()}
    if len({expected[m].degree() for m in top if not expected[m].is_zero()}) > 1:
        for pairing in ((a, b), (product, None)):
            with pytest.raises((Inhomogeneous, UnknownMonomial)):
                tc_integrate(*pairing)
    else:
        assert _integral(a, b) == _integral(product)


@settings(max_examples=120, deadline=None, database=None)
@given(st.data())
def test_product_and_pairing_properties(data):
    factors = data.draw(st.lists(st.sampled_from(_DRAWN_FACTORS), min_size=1, max_size=2))
    base = BaseSpace(tuple(factors))
    s = data.draw(st.integers(0, base.dim))
    a, b, c = (data.draw(_drawn_classes(base, s)) for _ in range(3))
    product = a * b
    expected = {m: sum(ps, ES_ZERO) for m, ps in _termwise(base, a, b).items()}
    assert product.terms == {m: c for m, c in expected.items() if not c.is_zero()}
    assert product == b * a
    assert product * c == a * (b * c)
    assert a * (b + c) == product + a * c
    x = data.draw(_drawn_scalars(data.draw(st.integers(-1, 1))))
    assert a.scale(x).terms == {m: c * x for m, c in a.terms.items() if not x.is_zero()}
    assert a.scale(x) * b == product.scale(x)
    assert _integral(a, b) == _integral(product)
    for cls in (a, b, c, product, b + c, a.scale(x)):
        for coefficient in cls.terms.values():
            _assert_canonical(coefficient)
    if a.terms:  # one term of a one weight degree up, against b and a + b
        m = data.draw(st.sampled_from(sorted(a.terms)))
        shifted = TautClass(base, {**a.terms, m: a.terms[m] * A1})
        for partner in (b, a + b):
            _check_weight_degree_rule(base, shifted, partner)
