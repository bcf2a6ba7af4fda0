import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwverify.errors import DenominatorVanishes, DivisionByZero, Inhomogeneous
from gwverify.exprs import parse_scalar
from gwverify.scalars import (
    DeltaPoly,
    ES_ONE,
    ES_ZERO,
    EquivariantScalar,
    WeightPoly,
    es_eval,
    es_sum,
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


# ---------------------------------------------------------------------------
# forms and scalars against a dict-of-Fraction reference
# ---------------------------------------------------------------------------

def _ref_add(t, u):
    out = dict(t)
    for e, c in u.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(t, u):
    out = {}
    for (a1, a2), c in t.items():
        for (b1, b2), d in u.items():
            e = (a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _ref_scale(t, k):
    return {e: c * k for e, c in t.items() if c * k}


def _ref_eval(t, w1, w2):
    return sum((c * w1**e1 * w2**e2 for (e1, e2), c in t.items()), Fraction(0))


def _ref_str(t):
    if not t:
        return "0"
    out = []
    for (e1, e2), c in sorted(t.items(), key=lambda ec: -ec[0][0]):
        mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in (("a1", e1), ("a2", e2)) if k)
        a = abs(c)
        num = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        body = num if not mono else mono if a == 1 else f"{num}*{mono}"
        if out:
            out.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out)


def _ref_form(rng, degree, nterms=4):
    t = {}
    for _ in range(rng.randint(1, nterms)):
        k = rng.randint(0, degree)
        t[(degree - k, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return {e: c for e, c in t.items() if c}


def _agrees(p, t):
    """The form p equals the reference t: text, equality, hash, values."""
    assert str(p) == _ref_str(t)
    assert p == WeightPoly(t) and hash(p) == hash(WeightPoly(t))
    for w in ((3, 1), (Fraction(-2, 3), Fraction(5, 7)), (0, 1)):
        assert p.eval_at(*w) == _ref_eval(t, *map(Fraction, w))


def _assert_canonical_form(p):
    """Content times a primitive integer row with a positive first entry."""
    if p.is_zero():
        assert p.row == () and p.c == 0
        return
    assert all(type(x) is int for x in p.row) and p.row[-1] != 0
    assert math.gcd(*p.row) == 1 and next(x for x in p.row if x) > 0
    assert isinstance(p.c, Fraction) and p.c != 0


def _assert_canonical(s):
    """The invariants of EquivariantScalar; returns s."""
    _assert_canonical_form(s.num)
    _assert_canonical_form(s.den)
    assert not s.den.is_zero() and s.den.c == 1
    if s.num.is_zero():
        assert s.den == WeightPoly.const(1)
    assert poly_gcd(s.num, s.den).degree() == 0
    return s


def test_forms_match_reference():
    rng = random.Random(23)
    for _ in range(150):
        d = rng.randint(0, 4)
        t, u = _ref_form(rng, d), _ref_form(rng, d)
        v = _ref_form(rng, rng.randint(0, 3))
        p, q, r = WeightPoly(t), WeightPoly(u), WeightPoly(v)
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        for form in (p, q, r):
            _assert_canonical_form(form)
        _agrees(p, t)
        _agrees(p + q, _ref_add(t, u))
        _agrees(p - q, _ref_add(t, _ref_scale(u, -1)))
        _agrees(-p, _ref_scale(t, -1))
        _agrees(p * r, _ref_mul(t, v))
        _agrees(p.scale(k), _ref_scale(t, k))
        _agrees(p.swap_weights(), {(e2, e1): c for (e1, e2), c in t.items()})
        for form in (p + q, p * r, p.scale(k), p.swap_weights()):
            _assert_canonical_form(form)
        assert (p == q) == (t == u)


def test_divexact_matches_reference():
    rng = random.Random(29)
    for _ in range(150):
        t = _ref_form(rng, rng.randint(0, 3))
        u = _ref_form(rng, rng.randint(0, 3))
        if not u:
            continue
        p, q = WeightPoly(t), WeightPoly(u)
        # exact: (p*q)/q == p
        _agrees(poly_divexact(p * q, q), t)
        # inexact: a linear form divides p only if p vanishes at its root
        x, y = rng.randint(-4, 4), rng.randint(1, 4)
        line = WeightPoly({(1, 0): x, (0, 1): y})
        root = (Fraction(y), Fraction(-x))
        if t and _ref_eval(t, *root) != 0:
            with pytest.raises(ArithmeticError):
                poly_divexact(p, line)
        else:
            assert poly_divexact(p, line) * line == p


def test_gcd_divides_and_leaves_coprime_cofactors():
    rng = random.Random(31)
    for _ in range(120):
        h = WeightPoly(_ref_form(rng, rng.randint(0, 2), nterms=3))
        p = WeightPoly(_ref_form(rng, rng.randint(0, 3))) * h
        q = WeightPoly(_ref_form(rng, rng.randint(0, 3))) * h
        if p.is_zero() or q.is_zero():
            continue
        g = poly_gcd(p, q)
        _assert_canonical_form(g)
        assert g.c == 1
        cp, cq = poly_divexact(p, g), poly_divexact(q, g)
        assert cp * g == p and cq * g == q
        assert poly_gcd(cp, cq) == WeightPoly.const(1)


def test_scalar_arithmetic_stays_canonical():
    rng = random.Random(37)
    for _ in range(80):
        degree = rng.randint(-2, 2)
        a, b = (_assert_canonical(_random_scalar(rng, degree)) for _ in range(2))
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        for s in (a + b, a - b, a * b, -a, a.scale(k), a.swap_weights(), a * const(3, 7)):
            _assert_canonical(s)
        if not b.is_zero():
            _assert_canonical(a / b)
        assert a * const(3, 7) == a.scale(Fraction(3, 7))
        assert hash(a * ES_ONE) == hash(a)


def test_ring_product_is_the_termwise_sum():
    from gwverify.ring import BaseSpace, DMFactor, ProjLineFactor, TautClass, _mono_ok

    base = BaseSpace((DMFactor(1, 2), ProjLineFactor()))
    gens = [
        TautClass.generator(base, 0, "psi", 1), TautClass.generator(base, 0, "psi", 2),
        TautClass.generator(base, 0, "lam", 1), TautClass.generator(base, 1, "x"),
    ]
    rng = random.Random(43)

    def random_class():
        # homogeneous of degree 0: a generator (degree 1) carries a degree -1 scalar
        out = TautClass.scalar(base, _random_scalar(rng, 0))
        for _ in range(rng.randint(1, 4)):
            mono = TautClass.one(base)
            for _ in range(rng.randint(1, 2)):
                mono = mono * rng.choice(gens)
            if not mono.is_zero():
                (m,) = mono.terms
                deg = -sum(f.degree(m[s:t]) for f, (s, t) in zip(base.factors, base.spans))
                out = out + mono.scale(_random_scalar(rng, deg))
        return out

    for _ in range(25):
        x, y = random_class(), random_class()
        expected = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                if _mono_ok(base, m):
                    expected[m] = expected.get(m, ES_ZERO) + c1 * c2
        expected = {m: c for m, c in expected.items() if not c.is_zero()}
        product = x * y
        assert product.terms == expected
        for c in product.terms.values():
            _assert_canonical(c)


def test_gcd_layer_hook_sees_calls(monkeypatch):
    # the benchmark's scalars.gcd layer wraps this module global; a fast
    # path that stops calling it would silently zero that layer
    from gwverify import scalars

    calls = []
    original = scalars.poly_gcd

    def counting(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(scalars, "poly_gcd", counting)
    ratio = (A1 * A1 - A2 * A2) / (A1 - A2.scale(3))
    assert calls and ratio.den == (A1 - A2.scale(3)).num


def test_delta_poly_edge_cases_raise():
    delta = DeltaPoly.delta()
    with pytest.raises(ValueError, match="negative power"):
        delta ** -1
    with pytest.raises(DivisionByZero):
        delta / 0
    assert delta ** 0 == 1 and (delta * 2) / 4 == delta / 2
    assert (delta + 1) ** 3 == DeltaPoly([1, 3, 3, 1])


def test_delta_poly_constant_hashes_like_its_fraction():
    for c in (Fraction(5), Fraction(-1, 3), Fraction(0)):
        assert DeltaPoly([c]) == c and hash(DeltaPoly([c])) == hash(c)
    assert {Fraction(5): 1}.get(DeltaPoly([5])) == 1
    assert {Fraction(1, 3): 1}.get(DeltaPoly([Fraction(2, 6)])) == 1
    assert {0: 1}.get(DeltaPoly([0, 0])) == 1


# -- DeltaPoly against plain Fraction lists, lowest power first ----------------

def _dp_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _dp_add(p, q):
    n = max(len(p), len(q))
    return _dp_trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _dp_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _dp_trim(out)


def _dp_eval(p, v):
    out = Fraction(0)
    for c in reversed(p):
        out = out * v + c
    return out


def _dp_str(p):
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = "delta" if i == 1 else f"delta^{i}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


_FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_COEFFS = st.lists(_FRACTIONS, max_size=5)


def _check_delta_poly(got, coeffs):
    """got is the canonical DeltaPoly of the Fraction list coeffs."""
    want = _dp_trim(coeffs)
    assert got.den > 0 and math.gcd(got.den, *got.row) == 1
    assert [Fraction(x, got.den) for x in got.row] == want
    assert got == DeltaPoly(want) and hash(got) == hash(DeltaPoly(want))
    assert str(got) == _dp_str(want)
    for v in (0, 1, -2, 7, Fraction(3, 5), Fraction(-7, 4)):
        assert got(v) == _dp_eval(want, Fraction(v))


@settings(max_examples=200, deadline=None, database=None)
@given(_COEFFS, _COEFFS, _FRACTIONS, st.integers(0, 3))
def test_delta_poly_matches_fraction_rows(p, q, c, n):
    P, Q = DeltaPoly(p), DeltaPoly(q)
    _check_delta_poly(P, p)
    _check_delta_poly(P + Q, _dp_add(p, q))
    _check_delta_poly(P - Q, _dp_add(p, [-x for x in q]))
    _check_delta_poly(-P, [-x for x in p])
    _check_delta_poly(P * Q, _dp_mul(p, q))
    _check_delta_poly(P * c, [x * c for x in p])
    _check_delta_poly(c * P, [x * c for x in p])
    _check_delta_poly(c + P, _dp_add(p, [c]))
    _check_delta_poly(c - P, _dp_add([c], [-x for x in p]))
    _check_delta_poly(P * c.numerator, [x * c.numerator for x in p])
    if c:
        _check_delta_poly(P / c, [x / c for x in p])
    power = [Fraction(1)]
    for _ in range(n):
        power = _dp_mul(power, p)
    _check_delta_poly(P**n, power)
    assert (P == c) == (_dp_trim(p) == _dp_trim([c]))


# ---------------------------------------------------------------------------
# evaluation and sums on integer rows, against Fraction references
# ---------------------------------------------------------------------------

def _ref_terms(p):
    """The monomials of a stored form as a dict of Fraction coefficients."""
    return {(p.d - k, k): p.c * x for k, x in enumerate(p.row) if x}


def _random_scalars(rng, count, degree, dens):
    """Scalars of one degree over denominators drawn from those of ``dens``
    with degree at least -degree."""
    dens = [den for den in dens if den.degree() + degree >= 0]
    out = []
    for _ in range(count):
        den = rng.choice(dens)
        num = WeightPoly.zero()
        while num.is_zero():
            num = WeightPoly(_ref_form(rng, den.degree() + degree))
        out.append(EquivariantScalar(num, den))
    return out


EVAL_WEIGHTS = [
    (3, 1),
    (-4, 7),
    (Fraction(-2), Fraction(-5, 3)),
    (Fraction(7, 2), Fraction(1, 3)),
    ("5/4", "-2"),
    (" 3 ", Fraction(-9, 4)),
    (0, 5),
    (Fraction(2, 3), 0),
    ("0", "0"),
    (1, 1),
    (2, -2),
]


def test_eval_matches_fraction_reference():
    rng = random.Random(46)
    a1, a2 = WeightPoly.gen(1), WeightPoly.gen(2)
    dens = [
        WeightPoly.const(1), a1, a2, a1 * a2, a1 - a2, a1 + a2, a1 ** 2 - a2 ** 2,
        (a1 + a2.scale(2)) * a1 ** 3, a1 ** 2 + a2 ** 2,
    ]
    poles = 0
    for degree in (-3, -1, 0, 1, 2):
        for s in _random_scalars(rng, 12, degree, dens):
            num, den = _ref_terms(s.num), _ref_terms(s.den)
            for w in EVAL_WEIGHTS:
                w1, w2 = map(Fraction, w)
                v = _ref_eval(den, w1, w2)
                if v == 0:
                    poles += 1
                    with pytest.raises(DenominatorVanishes) as info:
                        s.eval_at(w)
                    assert str(info.value) == f"denominator vanishes at ({w1}, {w2})"
                    continue
                got = s.eval_at(iter(w))
                assert type(got) is Fraction and got == _ref_eval(num, w1, w2) / v
                assert es_eval(s, list(w)) == got
    assert poles > 50
    # a constant has no pole, even at (0, 0)
    assert const(-5, 27648).eval_at(("0", 0)) == Fraction(-5, 27648)
    with pytest.raises(DenominatorVanishes, match=r"^denominator vanishes at \(-1/2, 1/2\)$"):
        (ES_ONE / (A1 + A2)).eval_at(["-0.5", Fraction(1, 2)])


def _fold(terms):
    return functools.reduce(operator.add, terms, ES_ZERO)


def test_es_sum_matches_the_pairwise_fold():
    rng = random.Random(146)
    a1, a2 = WeightPoly.gen(1), WeightPoly.gen(2)
    one = [WeightPoly.const(1)]
    shared = [a1 ** 2 * (a1 - a2)]
    distinct = [WeightPoly.const(1), a1, a2 ** 2, a1 - a2, a1 + a2, a1 * (a1 - a2), a1 ** 2 - a2 ** 2]
    assert es_sum([]) == ES_ZERO and es_sum(iter([])) == ES_ZERO
    for dens in (one, shared, distinct):
        for _ in range(40):
            degree = rng.randint(-max(den.degree() for den in dens), 2)
            terms = _random_scalars(rng, rng.randint(1, 5), degree, dens)
            if rng.random() < 0.3:  # a sum that cancels to 0
                terms += [-t for t in terms]
                rng.shuffle(terms)
            if rng.random() < 0.3:
                terms.insert(rng.randrange(len(terms) + 1), ES_ZERO)
            got = _assert_canonical(es_sum(iter(terms)))
            assert got == _fold(terms)
    assert es_sum([A1 / A2, ES_ZERO]) == A1 / A2
    assert es_sum([A1, -A1]) == ES_ZERO and es_sum([A1, -A1]).den == WeightPoly.const(1)


def test_es_sum_degree_is_fixed_by_the_first_nonzero_term():
    with pytest.raises(Inhomogeneous, match="^cannot add scalars of degree 1 and 0$"):
        es_sum([A1, ES_ONE])
    with pytest.raises(Inhomogeneous, match="^cannot add scalars of degree 0 and 1$"):
        es_sum([ES_ONE, A2 / ES_ONE])
    with pytest.raises(Inhomogeneous, match="^cannot add scalars of degree 1 and 0$"):
        es_sum([ES_ZERO, A1, A2, ES_ONE])
    with pytest.raises(Inhomogeneous, match="^cannot add scalars of degree -1 and 2$"):
        es_sum([ES_ONE / A1, A2 / (A1 * A2), A1**3 / A2])
    # the pairwise fold returned 1 here, since its partial sum A1 - A1 is 0;
    # the sum is checked term by term, whatever the partial sums come to
    assert _fold([A1, -A1, ES_ONE]) == ES_ONE
    with pytest.raises(Inhomogeneous, match="^cannot add scalars of degree 1 and 0$"):
        es_sum([A1, -A1, ES_ONE])
