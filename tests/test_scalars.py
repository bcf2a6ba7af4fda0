import random
from fractions import Fraction

import pytest

from gwverify.errors import DenominatorVanishes, DivisionByZero, Inhomogeneous
from gwverify.exprs import parse_scalar
from gwverify.scalars import (
    ES_ONE,
    ES_ZERO,
    EquivariantScalar,
    WeightPoly,
    es_eval,
    poly_divexact,
    poly_gcd,
    rat_from_str,
    rat_to_str,
)

A1 = EquivariantScalar.weight(1)
A2 = EquivariantScalar.weight(2)


def const(p, q=1):
    return EquivariantScalar.from_rational(Fraction(p, q))


def test_rat_roundtrip():
    assert rat_to_str(Fraction(-37, 82944)) == "-37/82944"
    assert rat_to_str(Fraction(4)) == "4"
    assert rat_from_str("-97/193536") == Fraction(-97, 193536)


def test_poly_str_graded_lex():
    a1, a2 = WeightPoly.gen(1), WeightPoly.gen(2)
    p = a2 ** 3 + (a1 ** 2 * a2).scale(3) - a1 ** 3
    assert str(p) == "-a1^3 + 3*a1^2*a2 + a2^3"
    assert str(WeightPoly.const(Fraction(-5, 27648))) == "-5/27648"


def test_factor_cancellation():
    # (a1^2 - a2^2)/(a1 - a2) normalizes to a1 + a2
    num = A1 * A1 - A2 * A2
    den = A1 - A2
    assert num / den == A1 + A2


def test_absorbing_zero_and_identity():
    assert (A1 + A2) * ES_ZERO == ES_ZERO
    x = const(1, 82944) + const(7) * ES_ZERO
    assert x.is_constant() == Fraction(1, 82944)


def test_is_constant():
    assert ((A1**2 - A2**2) / (A1**2 - A2**2)).is_constant() == 1
    assert (A1 / A2).is_constant() is None
    assert ES_ZERO.is_constant() == 0


def test_eval():
    assert es_eval((A1 + A2) / (A1 - A2), [2, 1]) == 3
    assert es_eval(A2**6 / (A1**4 * (A1**2 - A2**2)), [1, 0]) == 0
    v = const(-1, 165888) * A2**6 / (A1**4 * (A1**2 - A2**2))
    assert es_eval(v, [2, 1]) == Fraction(-1, 165888) * Fraction(1, 48)
    assert es_eval(v, [2, 1]) == Fraction(-1, 7962624)
    with pytest.raises(DenominatorVanishes):
        es_eval(ES_ONE / (A1 - A2), [1, 1])


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ES_ONE / ES_ZERO


def test_canonical_den_positive_integer():
    v = ES_ONE / (A1.scale(Fraction(-1, 2)))
    # den scaled to primitive integer, positive lead
    assert str(v) == "(-2)/(a1)"
    w = (A1 - A2) / ((A2 - A1) * A1)
    assert w == -(ES_ONE / A1)


def test_serialization_golden():
    v = const(-1, 165888) * A2**6 / (A1**4 * (A1**2 - A2**2))
    assert str(v) == "(-1/165888*a2^6)/(a1^6 - a1^4*a2^2)"


def _random_form(rng, degree, nterms=4):
    t = {}
    for _ in range(rng.randint(1, nterms)):
        k = rng.randint(0, degree)
        t[(degree - k, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return WeightPoly(t)


def _random_scalar(rng, degree):
    """A random scalar of the given degree; num and den of random degrees."""
    d = rng.randint(max(0, -degree), 2)
    num = _random_form(rng, d + degree)
    den = WeightPoly.zero()
    while den.is_zero():
        den = _random_form(rng, d, nterms=2)
    return EquivariantScalar(num, den)


def test_gcd_recovers_common_factor():
    rng = random.Random(7)
    for _ in range(60):
        h = _random_form(rng, rng.randint(0, 2), nterms=3)
        if h.is_zero():
            continue
        p = _random_form(rng, rng.randint(0, 3)) * h
        q = _random_form(rng, rng.randint(0, 3)) * h
        if p.is_zero() or q.is_zero():
            continue
        g = poly_gcd(p, q)
        # h divides the gcd
        poly_divexact(g, poly_gcd(g, h))  # no raise
        assert poly_gcd(g, h) == poly_gcd(h, h)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        degree = rng.randint(-2, 2)
        a, b, c = (_random_scalar(rng, degree) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ES_ONE
        assert a - a == ES_ZERO


def test_canonicalization_idempotent():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_scalar(rng, rng.randint(-2, 2))
        again = EquivariantScalar(a.num, a.den)
        assert again.num == a.num and again.den == a.den


def test_eval_commutes_with_arithmetic():
    rng = random.Random(17)
    pts = [(Fraction(3), Fraction(1)), (Fraction(2), Fraction(-5)), (Fraction(7, 2), Fraction(1, 3))]
    for _ in range(25):
        degree = rng.randint(-2, 2)
        a, b = _random_scalar(rng, degree), _random_scalar(rng, degree)
        for w in pts:
            try:
                va, vb = a.eval_at(w), b.eval_at(w)
                assert (a * b).eval_at(w) == va * vb
                assert (a + b).eval_at(w) == va + vb
            except DenominatorVanishes:
                pass


def test_forms_are_homogeneous():
    a1, a2 = WeightPoly.gen(1), WeightPoly.gen(2)
    with pytest.raises(Inhomogeneous):
        WeightPoly({(1, 0): 1, (0, 0): 3})
    with pytest.raises(Inhomogeneous):
        a1 * a2 - a1
    # zero is a form of every degree, and products need no check
    assert (a1 - a1) + a2 == a2
    assert (a1 + a2) * (a1 - a2) == a1 ** 2 - a2 ** 2
    assert (a1 ** 2 * a2).degree() == 3


def test_scalar_sums_need_one_degree():
    with pytest.raises(Inhomogeneous, match="degree 1 and 0"):
        A1 + ES_ONE
    with pytest.raises(Inhomogeneous, match="degree -1 and 0"):
        ES_ONE / A2 - A1 / A2
    assert (A1 / A2 + ES_ONE).degree() == 0
    # products and quotients mix degrees freely
    assert (A1 * A1 / A2).degree() == 1
    with pytest.raises(Inhomogeneous):
        parse_scalar("a1 + 3")
    assert parse_scalar("(a1 + 3*a2)/a1") == ES_ONE + A2.scale(3) / A1


def test_gcd_splits_off_monomials():
    a1, a2 = WeightPoly.gen(1), WeightPoly.gen(2)
    f = a1 - a2.scale(2)
    assert poly_gcd(a1 ** 3 * a2 * f, a1 * a2 ** 2 * (a1 + a2)) == a1 * a2
    assert poly_gcd(a1 ** 2 * f * f, a2 * f) == f
    assert poly_gcd(a2 ** 4, (a1 + a2) * a2 ** 2) == a2 ** 2
    assert poly_divexact(a1 ** 3 * a2 * f, a1 * f) == a1 ** 2 * a2
    with pytest.raises(ArithmeticError):
        poly_divexact(a1 * f, a2)
    with pytest.raises(ArithmeticError):
        poly_divexact(a2 * f, a1 + a2)


def test_swap_weights():
    v = A1**2 / A2
    assert v.swap_weights() == A2**2 / A1
