"""Pure psi-class intersection numbers <psi_1^a1 ... psi_n^an> on the moduli
space of stable curves.

The recursion runs on scaled values M(g; a) = 2^(2g-2+n) 24^g
prod (2a_i+1)!! <prod tau_{a_i}>_g, seeded with M(0; 0,0,0) = 2 and
M(1; 1) = 6.  A key with a 1 exponent is reduced by the dilaton equation;
any other key by one step of the Virasoro/KdV recursion
(Dijkgraaf-Verlinde-Verlinde form) at its smallest exponent a: at a 0 the
step is the string equation (its merge sum alone), and otherwise its
boundary sum over b + c = a - 2 is short.  Only the separating splits whose
dimensions balance are built.  Against a key's scale, a term with one point
fewer and a separating product each carry 1/2, and the nonseparating term,
one genus lower and one point more, 1/48; so the coefficients are integers
(2 for dilaton and the DVV merge sum, 24 and 1 for the DVV's nonseparating
and separating terms), every M is an integer, and no step divides.  Only
``psi_intersect`` and ``dvv_expand`` build a Fraction.

Inside the recursion a key is one int, its code: the genus in the low 5
bits, and the number of points with exponent a in the 5-bit field at bit
5(a + 1).  Each child's code comes from its parent's by one or two integer
adds, so a step builds, slices and sorts no tuple.  A field holds at
most 31, and that bounds n + g: a step keeps the genus and drops a point,
lowers the genus by one and adds one point, or splits the key into two
sides of genus at most g with at most n points, so every key a query
reaches has n' + g' <= n + g, and neither a count nor the genus carries
into the next field.  ``_norm`` refuses a key with n + g > 31;
``check_bounds`` keeps queries at n + g <= 18.

This is an independent oracle: any correct pure-psi recursion is acceptable.
The DVV step holds at every point of every key but the two seeds, so
``dvv_expand`` at the first point double-checks every key with a 1 exponent
or with two distinct exponents, and ``string_reduce`` / ``dilaton_reduce``
state the two equations on keys for the Hodge oracle and the closure checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from ._record import Frozen, set_field
from .errors import (
    NoSuchPoint,
    NoUnitExponent,
    NoZeroExponent,
    ResourceBound,
    UnstableInput,
    UnstableReduction,
)

MAX_GENUS = 6
MAX_POINTS = 12


class PsiKey(Frozen):
    """A genus together with a sorted multiset of psi exponents."""

    __slots__ = _fields = ("genus", "exponents")

    def __init__(self, genus: int, exponents: tuple[int, ...]):
        exponents = tuple(sorted(exponents, reverse=True))
        if genus < 0 or any(a < 0 for a in exponents):
            raise ValueError("genus and exponents must be nonnegative")
        set_field(self, "genus", genus)
        set_field(self, "exponents", exponents)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def dim(self) -> int:
        return 3 * self.genus - 3 + self.n

    def is_stable(self) -> bool:
        return 2 * self.genus - 2 + self.n > 0


def check_bounds(g: int, n: int) -> None:
    """Reject an unstable (g, n) and one above the bounds, which the Hodge
    oracle shares."""
    if 2 * g - 2 + n <= 0:
        raise UnstableInput(f"(g, n) = ({g}, {n}) is unstable")
    if g > MAX_GENUS or n > MAX_POINTS:
        raise ResourceBound(
            f"inputs above g = {MAX_GENUS} or n = {MAX_POINTS} are rejected"
        )


# (2k+1)!! up to the largest exponent of a balanced key inside the bounds
_DFACT = tuple(prod(range(1, 2 * k + 2, 2)) for k in range(3 * MAX_GENUS - 2 + MAX_POINTS))


def _scale(g: int, exps: tuple[int, ...]) -> int:
    """2^(2g-2+n) 24^g prod (2a_i+1)!!, the ratio M(g; a) / <tau_a>_g."""
    out = (1 << 2 * g - 2 + len(exps)) * 24**g
    for a in exps:
        out *= _DFACT[a]
    return out


# code -> M(g; a), an int; values are deterministic, so unsynchronized
# concurrent writes are benign
_MEMO: dict[int, int] = {}

# a code is g + sum_i _UNIT[a_i]; _WIDTH bounds n + g (see the module
# docstring), so a balanced key's exponents are at most 3g - 3 + n <= 90
_BITS = 5
_MASK = _WIDTH = (1 << _BITS) - 1
_UNIT = tuple(1 << _BITS * (a + 1) for a in range(3 * _WIDTH - 2))
_BINOMIALS = tuple(tuple(comb(m, k) for k in range(m + 1)) for m in range(_WIDTH + 1))
_SEEDS = {3 * _UNIT[0]: 2, 1 + _UNIT[1]: 6}  # 2 * 24 * 3!! <tau_1>_1 = 6


def _encode(g: int, exps: tuple[int, ...] | list[int]) -> int:
    return g + sum(_UNIT[a] for a in exps)


def _runs(code: int) -> list[tuple[int, int]]:
    """(value, multiplicity) of each distinct exponent of a code, ascending."""
    runs = []
    code >>= _BITS
    a = 0
    while code:
        m = code & _MASK
        if m:
            runs.append((a, m))
        code >>= _BITS
        a += 1
    return runs


def _exponents(code: int) -> tuple[int, ...]:
    """The exponents of a code, descending."""
    return tuple(a for a, m in reversed(_runs(code)) for _ in range(m))


def _norm(g: int, exps: tuple[int, ...]) -> int:
    """M(g; a) = 2^(2g-2+n) 24^g prod (2a_i+1)!! <prod tau_{a_i}>_g for a
    stable key of matching dimension with n + g at most _WIDTH."""
    if g + len(exps) > _WIDTH:
        raise ResourceBound(f"psi keys with n + g above {_WIDTH} are rejected")
    code = _encode(g, exps)
    # every M is positive, so a memo miss is the only falsy lookup
    return _MEMO.get(code) or _step(code)


def _step(code: int) -> int:
    """M(g; a) for a code the memo lacks, stored in the memo, by one step:
    the seeds, else dilaton at an exponent-1 point, else DVV at the smallest
    exponent."""
    value = _SEEDS.get(code)
    if value is None:
        if code >> 2 * _BITS & _MASK:
            # dilaton: M(g; 1, A) = 6 (2g - 2 + |A|) M(g; A); removing the
            # point leaves (g, n - 1) stable, as only the seed (1; 1) could
            # fail that.  As 32 = 1 mod 31, code mod 31 is the sum of the
            # fields, g + n, which is at least 1 and at most _WIDTH = 31.
            g_plus_n = code % _MASK or _MASK
            child = code - _UNIT[1]
            value = 6 * (g_plus_n + (code & _MASK) - 3) * (_MEMO.get(child) or _step(child))
        else:
            # at a psi-free point DVV is the string equation: its merge sum
            # is 2 sum_j (2a_j + 1) M(g; A with a_j lowered), its boundary
            # sum empty; at any other smallest exponent a, the boundary sum
            # b + c = a - 2 is short
            low = code >> _BITS
            a1 = ((low & -low).bit_length() - 1) // _BITS
            value = _dvv(code - _UNIT[a1], a1)
    _MEMO[code] = value
    return value


def _dvv(rest: int, a1: int) -> int:
    """M(g; a1, A) by one DVV step on the point a1, given A's code ``rest``:

    M(g; a, A) = 2 sum_j (2a_j + 1) M(g; a + a_j - 1, A - a_j)
               + sum_{b + c = a - 2} [ 24 M(g - 1; b, c, A)
                   + sum_{I + J = A} M(g_1; b, I) M(g_2; c, J) ]

    Separating splits are sub-multisets I of A weighted by prod C(m_k, i_k).
    The dimension equation b + sum(I) = 3 g_1 - 2 + |I| fixes b by g_1, so
    each split solves for the genera 0 <= g_1 <= g that put b in [0, c].
    Both sides are then stable, as a side with a point and no negative
    exponent or dimension is.  The key must not be a seed."""
    get, unit = _MEMO.get, _UNIT
    g = rest & _MASK
    runs = _runs(rest)
    total = 0
    for aj, m in runs:
        if a1 + aj >= 1:
            child = rest - unit[aj] + unit[a1 + aj - 1]
            total += m * (2 * aj + 1) * (get(child) or _step(child))
    total *= 2
    if a1 < 2:
        return total
    # the boundary sum is symmetric under (b, I) <-> (c, J): take b <= c,
    # and count a b < c term twice
    top = a1 // 2 - 1
    if g:
        # (g - 1, n + 1) is unstable only at g = n = 1, the seed (1; 1)
        down = rest - 1
        for b in range(top + 1):
            c = a1 - 2 - b
            child = down + unit[b] + unit[c]
            term = 24 * (get(child) or _step(child))
            total += 2 * term if b < c else term
    # (sum(I) - |I|, code of I, weight) of every sub-multiset I
    splits = [(0, 0, 1)]
    for a, m in runs:
        u, d = unit[a], a - 1
        splits = [
            (e + d * k, i + u * k, w * c)
            for e, i, w in splits
            for k, c in enumerate(_BINOMIALS[m])
        ]
    for excess, left, weight in splits:
        # 0 <= b = 3 g_1 - 2 - excess <= top, with 0 <= g_1 <= g
        low = (excess + 4) // 3
        high = (top + 2 + excess) // 3
        if high > g:
            high = g
        if low > high:
            continue
        right = rest - left
        for g1 in range(low if low > 0 else 0, high + 1):
            b = 3 * g1 - 2 - excess
            c = a1 - 2 - b
            child = left + g1 + unit[b]
            term = weight * (get(child) or _step(child))
            child = right - g1 + unit[c]
            term *= get(child) or _step(child)
            total += 2 * term if b < c else term
    return total


def psi_intersect(key: PsiKey) -> Fraction:
    """Exact <psi^a> intersection number; 0 when the dimension balance fails."""
    check_bounds(key.genus, len(key.exponents))
    if sum(key.exponents) != key.dim:
        return Fraction(0)
    g, exps = key.genus, key.exponents
    return Fraction(_norm(g, exps), _scale(g, exps))


def dvv_expand(key: PsiKey, point: int = 0) -> Fraction:
    """<psi^a> by one DVV step on the point with index ``point`` of the sorted
    exponents, with the smaller values from the memo (evaluated if missing).

    The step holds at every point of every key except the two seeds
    <tau_0^3>_0 and <tau_1>_1, where removing the point leaves an unstable
    space, so those raise ``UnstableReduction``.  The recursion takes it only
    on keys it cannot reduce by dilaton, at the smallest exponent, so at a
    point of any other exponent it is an independent check of the
    recursion.  A key off its dimension is 0 without a step; on any other
    key, an index outside ``0 .. n - 1`` raises ``NoSuchPoint``."""
    check_bounds(key.genus, len(key.exponents))
    if sum(key.exponents) != key.dim:
        return Fraction(0)
    if not 0 <= point < key.n:
        raise NoSuchPoint(f"{key} has no point with index {point}")
    g, exps = key.genus, key.exponents
    if not (2 * g - 3 + len(exps) > 0):
        raise UnstableReduction(f"removing a point from {key} is unstable")
    a1 = exps[point]
    return Fraction(_dvv(_encode(g, exps) - _UNIT[a1], a1), _scale(g, exps))


def string_reduce(key: PsiKey) -> list[tuple[int, PsiKey]]:
    """String equation: remove a psi-exponent-0 point, lowering one exponent.

    <tau_0 prod tau_{a_j}> = sum_j <tau_{a_j - 1} prod_{l != j} tau_{a_l}>;
    terms with a_j = 0 drop out.  Returns one (multiplicity, reduced key) pair
    for each distinct nonzero exponent, largest first, as the points with
    equal exponents lower to the same key.
    """
    check_bounds(key.genus, len(key.exponents))
    if 0 not in key.exponents:
        raise NoZeroExponent(f"{key} has no psi-free marked point")
    rest = list(key.exponents)
    rest.remove(0)
    if not (2 * key.genus - 2 + len(rest) > 0):
        raise UnstableReduction(f"removing a point from {key} is unstable")
    code = _encode(key.genus, rest)
    return [
        (m, PsiKey(key.genus, _exponents(code - _UNIT[aj] + _UNIT[aj - 1])))
        for aj, m in reversed(_runs(code))
        if aj >= 1
    ]


def dilaton_reduce(key: PsiKey) -> tuple[int, PsiKey]:
    """Dilaton equation: strip a psi-exponent-1 point and scale by 2g - 2 + n.

    Returns (factor, reduced key) with factor = 2g - 2 + (n - 1).
    """
    check_bounds(key.genus, len(key.exponents))
    if 1 not in key.exponents:
        raise NoUnitExponent(f"{key} has no psi-exponent-1 marked point")
    rest = list(key.exponents)
    rest.remove(1)
    if not (2 * key.genus - 2 + len(rest) > 0):
        raise UnstableReduction(f"removing a point from {key} is unstable")
    return 2 * key.genus - 2 + len(rest), PsiKey(key.genus, tuple(rest))


def memoized_keys() -> list[PsiKey]:
    """Keys evaluated so far, for the string/dilaton closure property tests."""
    keys = sorted((code & _MASK, _exponents(code)) for code in _MEMO)
    return [PsiKey(g, exps) for g, exps in keys]
