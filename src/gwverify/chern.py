"""Chern-class calculus for projective spaces and hypersurfaces, Euler
characteristics, log-tangent pairings, the genus-1 degree-0 invariants, and
the genus-3 Hodge-bundle contraction used for the degree-correction term.

The hypersurface degree may be symbolic: a :class:`DeltaPoly` (from
``scalars``) in the degree symbol, so the identity checks run as polynomial
identities rather than per-degree samples.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Union

from ._record import Frozen, set_field
from .errors import InclusionUndeclared, InternalMismatch, ResourceBound
from .hodge import HodgeMonomial, hodge_intersect
from .scalars import DeltaPoly

Coeff = Union[Fraction, DeltaPoly]

MAX_DIM = 6  # ambient projective spaces are P1..P6


class ChernData(Frozen):
    """Total Chern class of a space with monogenerated cohomology.

    ``total_chern[i]`` is the coefficient of x^i; ``degree_map`` is the value
    of <x^dim>, so a Chern number such as <c1 c2, V> on a threefold is
    ``c(1) * c(2) * degree_map``.  ``divisor_multiple`` is set when the space
    was built as a divisor of class (multiple * x) in an ambient space.
    """

    __slots__ = _fields = ("name", "dim", "total_chern", "degree_map", "divisor_multiple")

    def __init__(
        self,
        name: str,
        dim: int,
        total_chern: tuple,
        degree_map: Coeff,
        divisor_multiple: Optional[Coeff] = None,
    ):
        set_field(self, "name", name)
        set_field(self, "dim", dim)
        set_field(self, "total_chern", total_chern)
        set_field(self, "degree_map", degree_map)
        set_field(self, "divisor_multiple", divisor_multiple)

    def c(self, i: int):
        if i < 0:
            return Fraction(0)
        return self.total_chern[i] if i <= self.dim else Fraction(0)


def _check_dim(n: int) -> None:
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    if n > MAX_DIM:
        raise ResourceBound(f"projective spaces are bounded by dimension {MAX_DIM}, got {n}")


def projective_space(n: int) -> ChernData:
    _check_dim(n)
    c = tuple(Fraction(comb(n + 1, i)) for i in range(n + 1))
    return ChernData(name=f"P{n}", dim=n, total_chern=c, degree_map=Fraction(1))


def hypersurface(n: int, delta) -> ChernData:
    """Degree-delta hypersurface in n-dimensional projective space.

    The degree may be an integer or the symbolic generator; n = 1 gives the
    dimension-0 case (delta points on the line).
    """
    _check_dim(n)
    if isinstance(delta, int):
        delta = Fraction(delta)
    # c(V) = c(P^n) / (1 + delta x), one degree at a time:
    # c_i = C(n+1, i) - delta c_{i-1}, starting from c_{-1} = 0
    c, prev = [], Fraction(0)
    for i in range(n):
        prev = comb(n + 1, i) - delta * prev
        c.append(prev)
    return ChernData(
        name=f"V{delta}(P{n})", dim=n - 1, total_chern=tuple(c), degree_map=delta,
        divisor_multiple=delta,
    )


def euler_char(g: ChernData) -> Coeff:
    """Top Chern number <c_dim>."""
    return g.c(g.dim) * g.degree_map


def log_tangent_pairing(X: ChernData, V: ChernData, k: int) -> Coeff:
    """<alpha c_k of the log-tangent bundle, X> with alpha the complementary
    power of x.

    Computed along both routes (the alternating expansion of
    c(X)(1 + PD(V))^{-1} restricted term by term, and the difference of the
    X- and V-pairings) and asserted equal.
    """
    if V.divisor_multiple is None:
        raise InclusionUndeclared(f"{V.name} carries no divisor class in {X.name}")
    delta = V.divisor_multiple
    # route 1: <alpha c_k(X), X> - <alpha|_V c_{k-1}(V), V>
    direct = X.c(k) * X.degree_map - V.c(k - 1) * V.degree_map
    # route 2: alternating expansion, each correction term paired on V
    expansion = X.c(k) * X.degree_map
    for i in range(k):
        term = X.c(k - 1 - i) * (delta**i) * V.degree_map
        expansion = expansion - (Fraction(-1) ** i) * term
    if direct != expansion:
        raise InternalMismatch(
            f"log-tangent routes disagree on {X.name}/{V.name}, k={k}: "
            f"{direct} vs {expansion}"
        )
    return direct


def gw_genus1_deg0(X: ChernData, V: ChernData | None, insertion) -> Coeff:
    """Genus-1 degree-0 invariants: chi(X)/2 for the point-of-moduli
    insertion, -<alpha c_{n-1}(X)>/24 for a two-form alpha = a*x; relative
    versions subtract the V-term."""
    if insertion == "j":
        value = euler_char(X) * Fraction(1, 2)
        if V is not None:
            value = value - euler_char(V) * Fraction(1, 2)
        return value
    kind, a = insertion
    if kind != "alpha":
        raise ValueError(f"unknown insertion {insertion!r}")
    n = X.dim
    value = -Fraction(1, 24) * a * X.c(n - 1) * X.degree_map
    if V is not None:
        value = value + Fraction(1, 24) * a * V.c(n - 2) * V.degree_map
    return value


def genus1_consistency_j(X: ChernData, V: ChernData) -> tuple:
    """Both sides of the degeneration consistency for the j-insertion:
    chi(X)/2 against the relative invariant plus the bundle term chi(V)/2,
    using chi of the projectivized bundle = 2 chi(V)."""
    absolute = euler_char(X) * Fraction(1, 2)
    relative = gw_genus1_deg0(X, V, "j")
    chi_bundle = 2 * euler_char(V)  # chi of the P1-bundle over V
    bundle_term = (chi_bundle - euler_char(V)) * Fraction(1, 2)
    return absolute, relative + bundle_term


def genus1_consistency_alpha(X: ChernData, V: ChernData) -> tuple:
    """Both sides of the degeneration consistency for the two-form insertion
    alpha = x; the bundle side uses <pullback(alpha|_V) c_{n-1} of the
    bundle> = 2 <alpha|_V c_{n-2}(V), V>."""
    absolute = gw_genus1_deg0(X, None, ("alpha", 1))
    relative = gw_genus1_deg0(X, V, ("alpha", 1))
    pairing_V = V.c(V.dim - 1) * V.degree_map
    bundle_term = -Fraction(1, 24) * (2 * pairing_V - pairing_V)
    return absolute, relative + bundle_term


# ---------------------------------------------------------------------------
# the genus-3 Hodge contraction
# ---------------------------------------------------------------------------

def _lam(e1: int, e2: int, e3: int) -> Fraction:
    return hodge_intersect(HodgeMonomial(3, 0, (), (e1, e2, e3)))


def hodge_contraction_genus3(V: ChernData) -> Coeff:
    """<e(E3* x TV), unpointed genus-3 moduli x V> for a threefold V:
    lambda-ladder coefficients are c1c2 - 3c3, c3, and c1^3 - 3c1c2 + 3c3."""
    if V.dim != 3:
        raise ValueError("the genus-3 contraction needs a threefold")
    c1, c2, c3, deg = V.c(1), V.c(2), V.c(3), V.degree_map
    c1c2 = c1 * c2 * deg
    c3top = c3 * deg
    c1cube = c1 * c1 * c1 * deg
    return (
        _lam(1, 1, 1) * (c1c2 - 3 * c3top)
        + _lam(0, 3, 0) * c3top
        + _lam(0, 0, 2) * (c1cube - 3 * c1c2 + 3 * c3top)
    )


def degree_correction_genus3(V: ChernData, multiplier=Fraction(4)) -> Coeff:
    """The genus-3 fiber-class relative degree: the Hodge contraction times
    the degree-4 push-forward factor; equals <c1c2 - c3, V>/362880."""
    return hodge_contraction_genus3(V) * multiplier


def c1c2_minus_c3(V: ChernData) -> Coeff:
    """<c1c2 - c3, V>; zero unless V is a threefold."""
    if V.dim != 3:
        return Fraction(0)
    return (V.c(1) * V.c(2) - V.c(3)) * V.degree_map
