"""Mixed psi/lambda intersection numbers for genus <= 3, and the table-backed
oracle for the degree-1 rubber integrals.

Evaluation pipeline: the dimension gate; then the first table-free route
that answers the monomial (:func:`_table_free`: the pure-psi recursion
without lambda, the lambda_g formula with lambda_g alone, the one-point
series of :mod:`gwverify.closedform` with another single lambda_j on
DM(g, 1)); any other is stripped of marked points (string for exponent 0,
dilaton for exponent 1, by ``psi.string_reduce`` and ``psi.dilaton_reduce``),
rewritten by the Mumford relations and looked up in the table.  A residual
monomial that no route and no table row answers raises
:class:`UnknownMonomial`; values are never invented.

Relations used (all exact consequences of c(E)c(E*) = 1 plus the vanishing
of the top Hodge class squared):
  genus 1:  lambda^2 = 0
  genus 2:  lambda_1^2 = 2 lambda_2,  lambda_2^2 = 0
  genus 3:  lambda_1^2 = 2 lambda_2,  lambda_2^2 = 2 lambda_1 lambda_3,
            lambda_3^2 = 0
:func:`rewrite_lambda` is the only place they are written.  It normalises
queries and the keys of both tables alike (a row's value is divided by the
rewrite coefficient when its table is read), and
``ring.mumford_product_check`` reduces the twisted product with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._data import json_int, load_json, require
from .closedform import lambda_g_constant, multinomial, one_point_series
from .errors import (
    GenusOutOfRange,
    SchemaError,
    UnknownMonomial,
    UnknownRubberKey,
    UnstableInput,
)
from .psi import PsiKey, check_bounds, dilaton_reduce, psi_intersect, string_reduce
from .scalars import rat_from_str

LamTuple = tuple[int, ...]

MAX_GENUS = 3  # the lambda relations and both tables stop here; every genus cap reads it

# b_g of the lambda_g formula, and the one-point series of closedform, by genus
_LAMBDA_G = tuple(lambda_g_constant(g) for g in range(MAX_GENUS + 1))
_ONE_POINT = one_point_series(MAX_GENUS)


@dataclass(frozen=True)
class HodgeMonomial:
    """psi_1^{a_1}...psi_n^{a_n} lambda_1^{e_1}...lambda_g^{e_g} on DM(g, n)."""

    g: int
    n: int
    psi: tuple[int, ...]
    lam: tuple[int, ...]

    def __post_init__(self):
        if len(self.psi) != self.n or len(self.lam) != self.g:
            raise ValueError("exponent vectors must match (g, n)")
        if any(a < 0 for a in self.psi) or any(e < 0 for e in self.lam):
            raise ValueError("exponents must be nonnegative")
        if 2 * self.g - 2 + self.n <= 0:
            raise UnstableInput(f"(g, n) = ({self.g}, {self.n}) is unstable")

    @property
    def dim(self) -> int:
        return 3 * self.g - 3 + self.n

    @property
    def degree(self) -> int:
        return sum(self.psi) + sum((i + 1) * e for i, e in enumerate(self.lam))


@dataclass(frozen=True)
class RubberKey:
    """A monomial in the target psi-class and lambda-classes on a degree-1
    rubber space with the ((1),(1)) contact pattern."""

    g: int
    psi: int
    lam: tuple[int, ...]
    n: int = 0  # extra marked points; only used in genus 0

    def __post_init__(self):
        check_rubber(self.g, self.n)
        if len(self.lam) != self.g:
            raise ValueError("lambda exponent vector must have length g")

    @property
    def dim(self) -> int:
        return self.n - 1 if self.g == 0 else 2 * self.g - 1

    @property
    def degree(self) -> int:
        return self.psi + sum((i + 1) * e for i, e in enumerate(self.lam))


# ---------------------------------------------------------------------------
# relation rewriting
# ---------------------------------------------------------------------------

def rewrite_lambda(g: int, lam: LamTuple) -> tuple[int, LamTuple] | None:
    """Normal form of a lambda-monomial under the Mumford relations.

    Returns (coeff, tuple), the coefficient a power of 2, or None when the
    monomial rewrites to zero.  Genus 0 monomials are already normal.
    """
    if g > MAX_GENUS or g < 0:
        raise GenusOutOfRange(f"relations implemented for genus <= {MAX_GENUS}, got {g}")
    coeff = 1
    lam = tuple(lam)
    while True:
        if g == 1 and lam[0] >= 2:
            return None
        if g == 2:
            e1, e2 = lam
            if e1 >= 2:
                coeff *= 2
                lam = (e1 - 2, e2 + 1)
                continue
            if e2 >= 2:
                return None
        if g == 3:
            e1, e2, e3 = lam
            if e1 >= 2:
                coeff *= 2
                lam = (e1 - 2, e2 + 1, e3)
                continue
            if e2 >= 2:
                coeff *= 2
                lam = (e1 + 1, e2 - 2, e3 + 1)
                continue
            if e3 >= 2:
                return None
        return coeff, lam


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# file name -> {(g, n, psi, normal lambda form): value}, each read on first use
_TABLES: dict[str, dict[tuple, Fraction]] = {}

# what a key missing from each table raises, and what its message calls a row
_MISSING = {
    "dm_intersections.json": (UnknownMonomial, "table entry"),
    "rubber.json": (UnknownRubberKey, "rubber entry"),
}


def _table(name: str) -> dict[tuple, Fraction]:
    """Table ``name`` keyed by (g, n, psi, normal lambda form), each value
    divided by its rewrite coefficient.  A rubber row's psi is the target's
    exponent, a DM row's one exponent per point (stored descending).  A row
    that is not an object of JSON integers and a string value, a row in the
    relation ideal with a nonzero value, a DM row whose value is not its
    table-free route's (:func:`_table_free`), or two rows that disagree after
    normalisation, is a SchemaError naming the file and the entries.
    """
    table = _TABLES.get(name)
    if table is not None:
        return table
    payload, where = load_json("tables", name)
    require(payload, dict, where, "a table")
    table, origin = {}, {}
    for i, entry in enumerate(require(payload.get("entries"), list, where, "entries")):
        loc = f"{where}: entries[{i}]"
        require(entry, dict, loc, "a row")
        value = require(entry.get("value"), str, loc, "value")
        try:
            g, n, psi = json_int(entry["g"], "g"), json_int(entry.get("n", 0), "n"), entry["psi"]
            if name == "rubber.json":
                psi = json_int(psi, "psi")
            else:
                psi = tuple(sorted((json_int(a, "psi") for a in psi), reverse=True))
            lam = tuple(json_int(e, "lambda") for e in entry["lambda"])
            value = rat_from_str(value)
            if len(lam) != g or isinstance(psi, tuple) and len(psi) != n:
                raise ValueError("exponent vectors do not match (g, n)")
            normal = rewrite_lambda(g, lam)
            route = _table_free(g, psi, lam) if name == "dm_intersections.json" else None
            if route is not None and value != route[1]:
                shown = f"with lambda={list(lam)}" if any(lam) else "without lambda"
                raise ValueError(
                    f"psi={list(psi)} {shown} has value {value}, "
                    f"but {route[0]} gives {route[1]}"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{loc}: {exc}") from exc
        if normal is None:
            if value != 0:
                raise SchemaError(
                    f"{loc}: lambda={list(lam)} lies in the relation ideal "
                    f"but has value {value}"
                )
            continue
        coeff, lt = normal
        key = (g, n, psi, lt)
        value /= coeff
        if table.setdefault(key, value) != value:
            raise SchemaError(
                f"{loc}: lambda={list(lam)} normalises to lambda={list(lt)}, "
                f"where entries[{origin[key]}] gives a different value"
            )
        origin.setdefault(key, i)
    _TABLES[name] = table
    return table


def _table_free(g: int, psi: tuple[int, ...], lam: LamTuple) -> tuple[str, Fraction] | None:
    """The table-free route that answers a top-degree monomial, and its
    value, or None when none does; queries and DM rows both ask here."""
    if not any(lam):
        return "the psi recursion", psi_intersect(PsiKey(g, psi))
    if 1 not in lam or lam.count(0) != g - 1:
        return None  # not a single lambda_j
    j = lam.index(1) + 1
    if j == g:
        # lambda_g has degree g < 3g - 3 on DM(g, 0) for g >= 2, and DM(1, 0)
        # is unstable, so a top-degree key here has n >= 1: sum(a) = 2g - 3 + n
        return "the lambda_g formula", multinomial(psi) * _LAMBDA_G[g]
    if len(psi) == 1:
        return "the one-point series", _ONE_POINT[g][g - j]
    return None


def _lookup(name: str, g: int, n: int, psi: tuple[int, ...] | int, lam: LamTuple) -> Fraction:
    """A top-degree monomial's value from table ``name``: 0 in the relation
    ideal, else the rewrite coefficient times the normal form's entry."""
    table = _table(name)
    normal = rewrite_lambda(g, lam)
    if normal is None:
        return Fraction(0)
    coeff, lt = normal
    value = table.get((g, n, psi, lt))
    if value is None:
        error, what = _MISSING[name]
        shown = list(psi) if isinstance(psi, tuple) else psi
        raise error(f"no {what} for g={g}, n={n}, psi={shown}, lambda={list(lt)}")
    return coeff * value


def reset_tables() -> None:
    """Drop cached tables (used after changing GWVERIFY_DATA_DIR)."""
    _TABLES.clear()
    _HODGE_MEMO.clear()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# values are deterministic, so unsynchronized concurrent writes are benign
_HODGE_MEMO: dict[tuple, Fraction] = {}


def check_dm(g: int, n: int) -> None:
    """Reject a DM(g, n) that :func:`hodge_intersect` cannot integrate over:
    a negative entry, g above MAX_GENUS, or a (g, n) that check_bounds rejects."""
    if g < 0 or n < 0:
        raise ValueError(f"(g, n) = ({g}, {n}) has a negative entry")
    if g > MAX_GENUS:
        raise GenusOutOfRange(f"hodge oracle covers genus <= {MAX_GENUS}, got {g}")
    check_bounds(g, n)


def check_rubber(g: int, n: int) -> None:
    """Reject a rubber space that :func:`rubber_intersect` cannot integrate
    over: g outside 0..MAX_GENUS, a negative n, or g = 0 with n < 3."""
    if not 0 <= g <= MAX_GENUS:
        raise GenusOutOfRange(f"rubber genus {g} not supported")
    if n < 0:
        raise ValueError(f"rubber point count must be nonnegative, got {n}")
    if g == 0 and n < 3:
        raise UnknownRubberKey(f"genus-0 rubber needs n >= 3, got n={n}")


def hodge_intersect(m: HodgeMonomial) -> Fraction:
    """Exact value of a mixed psi/lambda monomial against DM(g, n),
    g <= MAX_GENUS; n has the psi recursion's bound."""
    check_dm(m.g, m.n)
    if m.degree != m.dim:
        return Fraction(0)
    return _eval(m.g, tuple(sorted(m.psi, reverse=True)), m.lam)


def _eval(g: int, psi: tuple[int, ...], lam: LamTuple) -> Fraction:
    key = (g, psi, lam)
    cached = _HODGE_MEMO.get(key)
    if cached is not None:
        return cached
    value = _eval_uncached(g, psi, lam)
    _HODGE_MEMO[key] = value
    return value


def _eval_uncached(g: int, psi: tuple[int, ...], lam: LamTuple) -> Fraction:
    route = _table_free(g, psi, lam)
    if route is not None:
        return route[1]
    n = len(psi)
    # strip marked points while the reduction stays stable; lambda pulls back
    # under forgetting a point, so it rides along unchanged
    if 2 * g - 2 + (n - 1) > 0:
        key = PsiKey(g, psi)
        if 0 in psi:
            terms = string_reduce(key)
            return sum((m * _eval(g, k.exponents, lam) for m, k in terms), Fraction(0))
        if 1 in psi:
            factor, reduced = dilaton_reduce(key)
            return factor * _eval(g, reduced.exponents, lam)
    return _lookup("dm_intersections.json", g, n, psi, lam)


def rubber_intersect(key: RubberKey) -> Fraction:
    """Table-backed rubber integral; unknown top-degree keys are an error."""
    if key.degree != key.dim:
        return Fraction(0)
    if key.g >= 1 and key.psi >= key.g:
        return Fraction(0)  # psi^g annihilates the genus-g rubber class
    return _lookup("rubber.json", key.g, key.n, key.psi, key.lam)
