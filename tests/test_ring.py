import random
from fractions import Fraction

import pytest

from gwverify.errors import BaseMismatch, NonInvertible, ParseError
from gwverify.exprs import parse_class, parse_scalar
from gwverify.ring import (
    BaseSpace,
    DMFactor,
    PointFactor,
    ProjLineFactor,
    RubberFactor,
    TautClass,
    _label,
    hodge_twist_by_genus,
    tc_integrate,
    tc_invert,
)
from gwverify.scalars import ES_ONE, EquivariantScalar

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
