import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gwverify.errors import (
    GwError,
    NoUnitExponent,
    NoZeroExponent,
    ResourceBound,
    UnstableInput,
    UnstableReduction,
)
from gwverify import psi
from gwverify.psi import (
    PsiKey,
    dilaton_reduce,
    dvv_expand,
    memoized_keys,
    psi_intersect,
    string_reduce,
)


def val(g, *exps):
    return psi_intersect(PsiKey(g, tuple(exps)))


# anchor values named in the build contract
ANCHORS = [
    ((0, (0, 0, 0)), Fraction(1)),
    ((1, (1,)), Fraction(1, 24)),           # psi_1 = lambda on the 1-pointed torus
    ((2, (4,)), Fraction(1, 1152)),
    ((3, (7,)), Fraction(1, 82944)),
    ((2, (3, 2)), Fraction(29, 5760)),
]


@pytest.mark.parametrize("key,expected", ANCHORS)
def test_anchor_values(key, expected):
    g, exps = key
    assert val(g, *exps) == expected


def test_more_known_values():
    # classical genus 0/1 values
    assert val(0, 1, 0, 0, 0) == 1
    assert val(0, 2, 0, 0, 0, 0) == 1
    assert val(0, 1, 1, 0, 0, 0) == 2
    assert val(1, 2, 0) == Fraction(1, 24)
    assert val(1, 1, 1) == Fraction(1, 24)
    assert val(1, 2, 1, 0) == Fraction(1, 12)
    # genus 2 column and friends
    assert val(2, 5, 0) == Fraction(1, 1152)
    assert val(2, 4, 1) == Fraction(1, 384)
    # genus 3 values
    assert val(3, 8, 0) == Fraction(1, 82944)
    assert val(3, 7, 1) == Fraction(5, 82944)
    # published two-point genus-3 values
    assert val(3, 6, 2) == Fraction(77, 414720)
    assert val(3, 5, 3) == Fraction(503, 1451520)
    assert val(3, 4, 4) == Fraction(607, 1451520)


def test_genus_zero_closed_form():
    # independent oracle: <tau_a1 ... tau_an>_0 = (n-3)! / prod(ai!)
    import math
    import random

    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(3, 8)
        dim = n - 3
        exps = [0] * n
        for _ in range(dim):
            exps[rng.randrange(n)] += 1
        expected = Fraction(math.factorial(n - 3))
        for a in exps:
            expected /= math.factorial(a)
        assert val(0, *exps) == expected


def test_dimension_gate():
    assert val(2, 3) == 0
    assert val(3, 6, 1) == 0
    assert val(1, 0) == 0
    # the recursion runs on ints; the public value is always a Fraction
    assert type(val(2, 3)) is Fraction
    assert type(val(2, 4)) is Fraction


def test_pointless_stable_key():
    # M-bar_3 is stable: a key without points is answered by the dimension gate
    key = PsiKey(3, ())
    assert psi_intersect(key) == 0 and type(psi_intersect(key)) is Fraction
    assert dvv_expand(key) == 0
    factor, reduced = dilaton_reduce(PsiKey(3, (1,)))
    assert reduced == key
    assert factor * psi_intersect(reduced) == val(3, 1)
    for g in (0, 1):
        with pytest.raises(UnstableInput):
            psi_intersect(PsiKey(g, ()))


def test_pointless_stable_key_cli(capsys):
    from gwverify.cli import main

    assert main(["psi", "--g", "3", "--exponents", ""]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_one_point_closed_form():
    # <tau_{3g-2}>_g = 1/(24^g g!): each genus step takes the nonseparating
    # DVV term, so this pins its coefficient at every genus of the box
    import math

    for g in range(1, 7):
        assert val(g, 3 * g - 2) == Fraction(1, 24**g * math.factorial(g)), g


def test_symmetry():
    rng = random.Random(3)
    for _ in range(20):
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        if 2 * g - 2 + n <= 0:
            continue
        dim = 3 * g - 3 + n
        exps = [0] * n
        for _ in range(dim):
            exps[rng.randrange(n)] += 1
        base = val(g, *exps)
        for perm in itertools.islice(itertools.permutations(exps), 6):
            assert val(g, *perm) == base


def test_errors():
    with pytest.raises(UnstableInput):
        psi_intersect(PsiKey(0, (0, 0)))
    with pytest.raises(ResourceBound):
        psi_intersect(PsiKey(7, (18,)))
    with pytest.raises(ResourceBound):
        psi_intersect(PsiKey(0, (0,) * 13))


def test_string_reduce():
    # (g=3, (0,8)) -> (g=3, (7))
    [(m, k)] = string_reduce(PsiKey(3, (0, 8)))
    assert m == 1 and k == PsiKey(3, (7,))
    assert psi_intersect(k) == Fraction(1, 82944)
    # (g=2, (0,5)) -> (g=2, (4))
    [(m, k)] = string_reduce(PsiKey(2, (0, 5)))
    assert m == 1 and k == PsiKey(2, (4,))
    # n = 4 genus 0 brute-force check of the string rule
    terms = string_reduce(PsiKey(0, (1, 0, 0, 0)))
    assert sum(m * psi_intersect(k) for m, k in terms) == val(0, 1, 0, 0, 0) == 1
    # points of one exponent lower to one key, counted by their multiplicity
    assert string_reduce(PsiKey(1, (2, 2, 0, 0))) == [(2, PsiKey(1, (2, 1, 0)))]
    terms = string_reduce(PsiKey(2, (4, 2, 2, 0, 0)))
    assert terms == [(1, PsiKey(2, (3, 2, 2, 0))), (2, PsiKey(2, (4, 2, 1, 0)))]
    assert sum(m * psi_intersect(k) for m, k in terms) == val(2, 4, 2, 2, 0, 0)
    with pytest.raises(NoZeroExponent):
        string_reduce(PsiKey(2, (4,)))


def test_dilaton_reduce():
    factor, k = dilaton_reduce(PsiKey(2, (1, 4)))
    assert factor == 3 and k == PsiKey(2, (4,))
    assert factor * psi_intersect(k) == Fraction(1, 384) == val(2, 4, 1)
    with pytest.raises(NoUnitExponent):
        dilaton_reduce(PsiKey(2, (4,)))
    # stripping the last point of a genus-3 curve gives the factor 4
    factor, k = dilaton_reduce(PsiKey(3, (1,)))
    assert factor == 4 and k == PsiKey(3, ())


def test_dilaton_stability_boundary():
    # the 1-pointed genus-1 value is a base case: reduction is unstable
    with pytest.raises(UnstableReduction):
        dilaton_reduce(PsiKey(1, (1,)))
    assert val(1, 1) == Fraction(1, 24)


def test_string_dilaton_closure_on_memoized_keys():
    # warm the cache with a spread of values
    for g in range(4):
        for n in range(1, 6):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for exps in itertools.combinations_with_replacement(range(dim + 1), n):
                if sum(exps) == dim:
                    val(g, *exps)
    # a Fraction in the memo would slow the recursion without changing a value
    assert all(type(v) is int for v in psi._MEMO.values())
    keys = memoized_keys()
    assert len(keys) > 50
    dvv_checked = 0
    for key in keys:
        if not key.is_stable() or sum(key.exponents) != key.dim:
            continue
        stored = psi_intersect(key)
        if 0 in key.exponents and 2 * key.genus - 2 + key.n - 1 > 0:
            assert sum(m * psi_intersect(k) for m, k in string_reduce(key)) == stored
        if 1 in key.exponents and 2 * key.genus - 2 + key.n - 1 > 0:
            factor, k = dilaton_reduce(key)
            assert factor * psi_intersect(k) == stored
        # the recursion took dilaton here, or DVV at its last point, which
        # holds the smallest exponent; DVV at the first point is independent
        # unless every exponent is the same (the two seeds take no DVV step)
        first, last = key.exponents[0], key.exponents[-1]
        if (1 in key.exponents or first != last) and 2 * key.genus - 2 + key.n - 1 > 0:
            assert dvv_expand(key) == stored
            dvv_checked += 1
    assert dvv_checked > 50


def _double_factorial(k):
    """(2k + 1)!!, with (-1)!! = 1."""
    return math.prod(range(1, 2 * k + 2, 2))


@functools.lru_cache(maxsize=None)
def _reference(g, exps):
    """<tau_exps>_g on Fractions by the DVV recursion at point 0, summed over
    every subset of the other points' indices, with the seeds <tau_0^3>_0 = 1
    and <tau_1>_1 = 1/24 and every unstable or unbalanced bracket 0:

    (2k+3)!! <tau_{k+1} tau_S>_g = sum_j (2k+2a_j+1)!!/(2a_j-1)!! <tau_{k+a_j} tau_{S-j}>_g
        + 1/2 sum_{r+s=k-1} (2r+1)!! (2s+1)!! [<tau_r tau_s tau_S>_{g-1}
            + sum_{g_1+g_2=g, I+J=S} <tau_r tau_I>_{g_1} <tau_s tau_J>_{g_2}].

    It shares no code with psi: no scaled integers, multisets or genus
    solve."""
    n = len(exps)
    if g < 0 or min(exps, default=0) < 0 or 2 * g - 2 + n <= 0 or sum(exps) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, exps) in ((0, (0, 0, 0)), (1, (1,))):
        return Fraction(1, 24**g)
    k, rest = exps[0] - 1, exps[1:]
    total = Fraction(0)
    for j, aj in enumerate(rest):
        merged = (k + aj,) + rest[:j] + rest[j + 1 :]
        total += Fraction(_double_factorial(k + aj), _double_factorial(aj - 1)) * _reference(g, merged)
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(_double_factorial(r) * _double_factorial(s), 2)
        total += weight * _reference(g - 1, (r, s) + rest)
        for mask in range(1 << len(rest)):
            left = tuple(a for i, a in enumerate(rest) if mask >> i & 1)
            right = tuple(a for i, a in enumerate(rest) if not mask >> i & 1)
            for g1 in range(g + 1):
                total += weight * _reference(g1, (r,) + left) * _reference(g - g1, (s,) + right)
    return total / _double_factorial(k + 1)


def test_reference_recursion():
    # every balanced key with g <= 3, n <= 5 against a plain recursion
    checked = 0
    for g in range(4):
        for n in range(1, 6):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for exps in itertools.combinations_with_replacement(range(dim, -1, -1), n):
                if sum(exps) == dim:
                    assert val(g, *exps) == _reference(g, exps), (g, exps)
                    checked += 1
    assert checked == 140


def _two_point_function(max_genus):
    """Coefficients of Dijkgraaf's two-point function, the n = 2 case of the
    Liu-Xu n-point function:

        F(x, y) = sum <tau_a tau_b>_g x^a y^b
                = (E - 1)/(x + y) + E sum_{k>=1} k!/((2k+1)! 2^k) (xy)^k (x+y)^(k-1),

    with E = exp((x^3 + y^3)/24).  Polynomials are {(i, j): coefficient},
    cut above total degree 3 max_genus - 1; x^3 + y^3 = (x + y)(x^2 - xy + y^2)
    makes the first term a polynomial."""
    import math

    top = 3 * max_genus - 1

    def mul(p, q):
        out = {}
        for (i, j), u in p.items():
            for (k, l), v in q.items():
                if i + j + k + l <= top:
                    out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
        return out

    def power(p, e):
        out = {(0, 0): Fraction(1)}
        for _ in range(e):
            out = mul(out, p)
        return out

    def add(acc, p, scale):
        for mono, c in p.items():
            acc[mono] = acc.get(mono, 0) + scale * c

    s = {(1, 0): 1, (0, 1): 1}
    q = {(2, 0): 1, (1, 1): -1, (0, 2): 1}
    e, series, f = {}, {}, {}
    for m in range(max_genus + 1):
        add(e, power({(3, 0): 1, (0, 3): 1}, m), Fraction(1, 24**m * math.factorial(m)))
    for k in range(1, max_genus + 1):
        add(f, mul(power(s, k - 1), power(q, k)), Fraction(1, 24**k * math.factorial(k)))
        add(series, mul({(k, k): 1}, power(s, k - 1)),
            Fraction(math.factorial(k), math.factorial(2 * k + 1) * 2**k))
    add(f, mul(e, series), 1)
    return f


def test_two_point_function():
    # an oracle that shares no code with the recursion
    f = _two_point_function(6)
    checked = 0
    for g in range(1, 7):
        for b in range((3 * g - 1) // 2 + 1):
            a = 3 * g - 1 - b
            assert val(g, a, b) == f.get((a, b), 0), (g, a, b)
            checked += 1
    assert checked == 33


# among the slowest keys of the MAX_GENUS x MAX_POINTS box when cold; most
# have many 2s, as a DVV step at a 2 has b = c = 0 and psi-free children
HEAVY_KEYS = [
    (6, (5,) + (2,) * 11),
    (6, (3, 3, 3) + (2,) * 9),
    (6, (4, 4, 3) + (2,) * 7),
    (6, (5, 5, 5, 4, 2, 2, 2, 2, 0, 0, 0, 0)),
    (6, (5, 4) + (2,) * 8),
    (6, (8, 3, 3) + (2,) * 6 + (1, 0, 0)),
    (6, (8, 5, 4, 3, 3, 2, 2, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("g,exps", HEAVY_KEYS)
def test_heaviest_cells_cold(g, exps):
    psi._MEMO.clear()
    key = PsiKey(g, exps)
    value = psi_intersect(key)
    assert value > 0
    # the DVV step holds on every point; the recursion took it at the last
    # point, the smallest exponent, so the points of every other exponent
    # are checks
    for point, a in enumerate(key.exponents):
        if point == 0 or a != key.exponents[point - 1]:
            assert dvv_expand(key, point) == value, point
    # a split of a genus outside [0, g] multiplies by a value of 0, so only
    # the memo shows one.  No key has more points plus genus than the query,
    # so no count of a packed key reaches 32 and carries into the next field
    for k in memoized_keys():
        assert 0 <= k.genus <= g and k.is_stable() and sum(k.exponents) == k.dim, k
        assert max(Counter(k.exponents).values(), default=0) <= k.n + k.genus <= g + len(exps), k


def test_packed_keys():
    rng = random.Random(45)
    for _ in range(200):
        g = rng.randint(0, 6)
        exps = tuple(sorted((rng.randint(0, 27) for _ in range(rng.randint(0, 12))), reverse=True))
        code = psi._encode(g, exps)
        assert code & psi._MASK == g and psi._exponents(code) == exps
        assert psi._runs(code) == sorted(Counter(exps).items())
    # the dilaton step reads g + n from the code modulo 31, so try it at
    # n + g = 31: <tau_1^28 tau_0^3>_0 = 28!, scaled by 2^29 3!!^28
    assert psi._norm(0, (1,) * 28 + (0,) * 3) == 2**29 * 3**28 * math.factorial(28)
    with pytest.raises(ResourceBound):
        psi._norm(0, (1,) * 29 + (0,) * 3)
    with pytest.raises(ResourceBound):
        psi._norm(30, (88, 0))
    keys = [(k.genus, k.exponents) for k in memoized_keys()]
    assert keys == sorted(set(keys))


def test_dvv_expand_refuses_the_seeds():
    # removing the point leaves (0, 2) or (1, 0), where the DVV step fails
    for key in (PsiKey(0, (0, 0, 0)), PsiKey(1, (1,))):
        with pytest.raises(UnstableReduction, match="removing a point"):
            dvv_expand(key)
    assert val(0, 0, 0, 0) == 1 and val(1, 1) == Fraction(1, 24)


def test_dvv_expand_refuses_a_point_out_of_range():
    key = PsiKey(2, (3, 2))
    assert dvv_expand(key, 0) == dvv_expand(key, 1) == val(2, 3, 2)
    for point in (-1, 2):
        with pytest.raises(GwError, match=rf"exponents=\(3, 2\)\) has no point with index {point}"):
            dvv_expand(key, point)
