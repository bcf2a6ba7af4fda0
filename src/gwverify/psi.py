"""Pure psi-class intersection numbers <psi_1^a1 ... psi_n^an> on the moduli
space of stable curves.

The recursion runs on scaled values M(g; a) = 2^(2g-2+n) 24^g
prod (2a_i+1)!! <prod tau_{a_i}>_g, seeded with M(0; 0,0,0) = 2 and
M(1; 1) = 6.  A key with a 1 exponent is reduced by the dilaton equation;
any other key by one step of the Virasoro/KdV recursion
(Dijkgraaf-Verlinde-Verlinde form) at its last point, which holds its
smallest exponent a: at a 0 the step is the string equation (its merge sum
alone), and otherwise its boundary sum over b + c = a - 2 is short.  Only
the separating splits whose dimensions balance are built.  Against a key's
scale, a term with one point fewer and a separating product each carry 1/2,
and the nonseparating term, one genus lower and one point more, 1/48; so the
coefficients are integers (2 for dilaton and the DVV merge sum, 24 and 1 for
the DVV's nonseparating and separating terms), every M is an integer, and no
step divides.  Only ``psi_intersect`` and ``dvv_expand`` build a Fraction.
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


# (g, exponents) -> M(g; a), an int; values are deterministic, so
# unsynchronized concurrent writes are benign
_MEMO: dict[tuple[int, tuple[int, ...]], int] = {}


def _norm(g: int, exps: tuple[int, ...]) -> int:
    """M(g; a) = 2^(2g-2+n) 24^g prod (2a_i+1)!! <prod tau_{a_i}>_g for a
    stable key of matching dimension with descending exponents."""
    value = _MEMO.get((g, exps))
    if value is None:
        value = _MEMO[(g, exps)] = _recurse_uncached(g, exps)
    return value


def _recurse_uncached(g: int, exps: tuple[int, ...]) -> int:
    """M(g; a) by one step: the seeds, else dilaton at an exponent-1 point,
    else DVV at the last point, which holds the smallest exponent."""
    if g == 0 and exps == (0, 0, 0):
        return 2
    if g == 1 and exps == (1,):
        return 6  # 2 * 24 * 3!! <tau_1>_1
    n = len(exps)
    if 1 in exps:
        # dilaton: M(g; 1, A) = 6 (2g - 2 + |A|) M(g; A); removing the point
        # leaves (g, n - 1) stable, as only the seed (1; 1) could fail that
        i = exps.index(1)
        return 6 * (2 * g - 3 + n) * _norm(g, exps[:i] + exps[i + 1 :])
    # at a psi-free point DVV is the string equation: its merge sum is
    # 2 sum_j (2a_j + 1) M(g; A with a_j lowered), its boundary sum empty;
    # at any other smallest exponent a, the boundary sum b + c = a - 2 is short
    return _dvv(g, exps, n - 1)


def _runs(exps: tuple[int, ...]):
    """(index of the last copy, multiplicity, value) of each distinct value
    of a descending tuple."""
    start = 0
    for i, a in enumerate(exps):
        if i + 1 == len(exps) or exps[i + 1] != a:
            yield i, i + 1 - start, a
            start = i + 1


def _dvv(g: int, exps: tuple[int, ...], point: int) -> int:
    """M(g; a) by one DVV step on the given point (an index into exps):

    M(g; a, A) = 2 sum_j (2a_j + 1) M(g; a + a_j - 1, A - a_j)
               + sum_{b + c = a - 2} [ 24 M(g - 1; b, c, A)
                   + sum_{I + J = A} M(g_1; b, I) M(g_2; c, J) ]

    Separating splits are sub-multisets I of A weighted by prod C(m_k, i_k).
    The dimension equation b + sum(I) = 3 g_1 - 2 + |I| fixes b by g_1, so
    each split solves for the genera 0 <= g_1 <= g that put b in [0, c], and
    builds I and J only when there is one.  Both sides are then stable, as a
    side with a point and no negative exponent or dimension is."""
    a1, rest = exps[point], exps[:point] + exps[point + 1 :]
    runs = list(_runs(rest))
    total = 0
    for i, m, aj in runs:
        if a1 + aj >= 1:
            # i ends aj's run, so only the left neighbour can be out of order
            merged = rest[:i] + (a1 + aj - 1,) + rest[i + 1 :]
            if i and merged[i - 1] < merged[i]:
                merged = tuple(sorted(merged, reverse=True))
            total += m * (2 * aj + 1) * _norm(g, merged)
    total *= 2
    if a1 < 2:
        return total
    # the boundary sum is symmetric under (b, I) <-> (c, J): take b <= c,
    # and count a b < c term twice
    top = a1 // 2 - 1
    if g >= 1 and 2 * g - 2 + len(rest) > 0:
        for b in range(top + 1):
            c = a1 - 2 - b
            term = 24 * _norm(g - 1, tuple(sorted((b, c) + rest, reverse=True)))
            total += 2 * term if b < c else term
    # (sum(I) - |I|, multiplicities) of every sub-multiset I, one run at a time
    splits = [(0, ())]
    for _, m, a in runs:
        splits = [(e + (a - 1) * k, ks + (k,)) for e, ks in splits for k in range(m + 1)]
    for excess, counts in splits:
        # 0 <= b = 3 g_1 - 2 - excess <= top, with 0 <= g_1 <= g
        low = max((excess + 4) // 3, 0)
        high = min((top + 2 + excess) // 3, g)
        if low > high:
            continue
        left, right, weight = (), (), 1
        for (_, m, a), k in zip(runs, counts):
            left += (a,) * k
            right += (a,) * (m - k)
            weight *= comb(m, k)
        for g1 in range(low, high + 1):
            b = 3 * g1 - 2 - excess
            c = a1 - 2 - b
            term = (
                weight
                * _norm(g1, tuple(sorted((b,) + left, reverse=True)))
                * _norm(g - g1, tuple(sorted((c,) + right, reverse=True)))
            )
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
    <tau_0^3>_0 and <tau_1>_1.  The recursion takes it only on keys it
    cannot reduce by dilaton, at the last point, so at a point of any other
    exponent it is an independent check of the recursion."""
    check_bounds(key.genus, len(key.exponents))
    if sum(key.exponents) != key.dim:
        return Fraction(0)
    g, exps = key.genus, key.exponents
    return Fraction(_dvv(g, exps, point), _scale(g, exps))


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
    return [
        (m, PsiKey(key.genus, tuple(rest[:i] + [aj - 1] + rest[i + 1 :])))
        for i, m, aj in _runs(tuple(rest))
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
    return [PsiKey(g, exps) for (g, exps) in sorted(_MEMO)]
