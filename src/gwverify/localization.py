"""Equivariant localization evaluator.

Fixed loci are data, not code: each shipped diagram file describes the fixed
loci of one localization computation (base space, insertion, obstruction
euler class, deformation euler class, multiplicity), with expressions in the
class mini-grammar.  A locus contribution is

    multiplicity * integral(insertion * obstruction / deformation)

evaluated as one top-degree pairing with no inverse class.  Write the
deformation D = a0 - N, with a0 its scalar part and N nilpotent, and let K
be the base dimension minus the lowest degree of insertion * obstruction.
Then 1/D = sum_k N^k / a0^(k+1), and N^k with k > K pairs to 0, so

    integral(I * O / D) = tc_integrate(I * O, sum_{k<=K} N^k a0^(K-k)) / a0^(K+1)

The series is built by Horner in N; it keeps D's coefficients, which are
polynomials in every shipped diagram, so its products take no gcd, and the
one division by a0^(K+1) is the only reduction.

A problem total is the sum over non-vanishing loci, times a declared
symmetry multiplier, plus the declared weight-swapped copy when present.
Totals must be weight-independent rationals.

A locus whose reduction to smaller moduli is spelled out in the file (the
boundary-constraint push-forwards of the genus-2 computation) carries a
``terms`` list instead of a single expression triple; its contribution is
the sum of the term contributions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from ._data import load_json, read_json
from .errors import (
    BaseMismatch,
    DenominatorVanishes,
    ExpectationMismatch,
    Inhomogeneous,
    NonConstantSum,
    NonInvertibleDeformation,
    ParseError,
    SchemaError,
)
from .exprs import parse_class
from .ring import (
    BaseSpace,
    DMFactor,
    PointFactor,
    ProjLineFactor,
    RubberFactor,
    TautClass,
    tc_integrate,
)
from .scalars import ES_ONE, ES_ZERO, EquivariantScalar, rat_from_str

BUILTIN_ALIASES = {
    "fig7": "fig7",
    "lemma4.3": "fig7",
    "fig10": "fig10",
    "lemma4.5": "fig10",
    "fig8-absolute": "fig8_absolute",
    "fig8-relative": "fig8_relative",
    "p4-absolute": "fig11_absolute",
    "p4-relative-delta1": "fig11_relative",
}


@dataclass(frozen=True)
class LocusTerm:
    base: BaseSpace
    multiplicity: Fraction
    insertion: TautClass
    obstruction: TautClass
    deformation: TautClass


@dataclass(frozen=True, eq=False)
class FixedLocusSpec:
    label: str
    source: str = ""
    vanishes: Optional[str] = None
    terms: tuple[LocusTerm, ...] = ()


@dataclass(frozen=True)
class LocalizationProblem:
    label: str
    loci: tuple[FixedLocusSpec, ...]  # in label order: the order of sums and reports
    symmetry_multiplier: Fraction = Fraction(1)
    weight_swap: bool = False
    expected: Optional[Fraction] = None
    source: str = ""


def _term_contribution(term: LocusTerm) -> EquivariantScalar:
    a0 = term.deformation.scalar_part()
    if a0.is_zero():
        raise NonInvertibleDeformation("class has no invertible degree-0 part")
    base = term.base
    numerator = term.insertion * term.obstruction
    # N^k pairs only with the numerator's terms of degree at most dim - k
    top = base.dim - min(numerator.degree_parts(), default=base.dim)
    nilpotent = TautClass.scalar(base, a0) - term.deformation
    series, a0_power = TautClass.one(base), ES_ONE  # by Horner in N
    for _ in range(top):
        a0_power = a0_power * a0
        series = series * nilpotent + TautClass.scalar(base, a0_power)
    paired = tc_integrate(numerator, series) / (a0_power * a0)
    return paired.scale(term.multiplicity)


# contributions cached per spec object (specs compare by identity); an
# entry goes when its spec is collected
_CONTRIB_CACHE: weakref.WeakKeyDictionary[FixedLocusSpec, EquivariantScalar] = (
    weakref.WeakKeyDictionary()
)


def locus_contribution(spec: FixedLocusSpec) -> EquivariantScalar:
    """The exact contribution of one non-vanishing fixed locus."""
    if spec.vanishes is not None:
        raise ValueError(f"locus {spec.label!r} is tagged vanishing: {spec.vanishes}")
    cached = _CONTRIB_CACHE.get(spec)
    if cached is not None:
        return cached
    total = ES_ZERO
    try:
        for term in spec.terms:
            total = total + _term_contribution(term)
    except Inhomogeneous as exc:
        raise SchemaError(f"locus {spec.label!r}: {exc}") from exc
    _CONTRIB_CACHE[spec] = total
    return total


def problem_total(problem: LocalizationProblem) -> Fraction:
    """Sum the problem's loci; the result must be a weight-free rational."""
    total = problem_symbolic_total(problem)
    value = total.is_constant()
    if value is None:
        raise NonConstantSum(
            f"problem {problem.label!r}: weight symbols survive in {total}"
        )
    if problem.expected is not None and value != problem.expected:
        raise ExpectationMismatch(
            f"problem {problem.label!r}: computed {value}, expected {problem.expected}"
        )
    return value


def problem_symbolic_total(problem: LocalizationProblem) -> EquivariantScalar:
    """The total before the constancy assertion (for numeric spot checks)."""
    total = ES_ZERO
    for spec in problem.loci:
        if spec.vanishes is not None:
            continue
        total = total + locus_contribution(spec)
    total = total.scale(problem.symmetry_multiplier)
    if problem.weight_swap:
        total = total + total.swap_weights()
    return total


def problem_numeric_total(problem: LocalizationProblem, weights) -> Fraction:
    """The total at numeric weights ``(w1, w2)``, summed locus by locus.

    Each contribution is evaluated at the weights, and at the swapped
    weights too when the problem declares a weight swap, so the sum checks
    weight independence without the symbolic cancellation.  A contribution
    with a pole at the weights raises :class:`DenominatorVanishes` naming
    its locus.
    """
    w1, w2 = (Fraction(w) for w in weights)
    points = [(w1, w2), (w2, w1)] if problem.weight_swap else [(w1, w2)]
    total = Fraction(0)
    for spec in problem.loci:
        if spec.vanishes is not None:
            continue
        contribution = locus_contribution(spec)
        for point in points:
            try:
                total += contribution.eval_at(point)
            except DenominatorVanishes as exc:
                raise DenominatorVanishes(f"locus {spec.label!r}: {exc}") from None
    return total * problem.symmetry_multiplier


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def _parse_factor(raw: dict, where: str):
    kind = raw.get("kind")
    try:
        if kind == "dm":
            return DMFactor(int(raw["g"]), int(raw["n"]))
        if kind == "p1":
            return ProjLineFactor()
        if kind == "point":
            return PointFactor()
        if kind == "rubber":
            return RubberFactor(int(raw["g"]), int(raw.get("n", 0)))
    except (LookupError, TypeError, ValueError) as exc:  # or a factor the oracles reject
        raise SchemaError(f"{where}: bad factor {raw!r} ({exc})") from exc
    raise SchemaError(f"{where}: unknown factor kind {kind!r}")


def _parse_term(raw: dict, where: str) -> LocusTerm:
    factors = raw.get("base")
    if not isinstance(factors, list) or not factors:
        raise SchemaError(f"{where}: missing or empty base")
    base = BaseSpace(tuple(_parse_factor(f, where) for f in factors))
    try:
        mult = rat_from_str(str(raw.get("multiplicity", "1")))
    except ValueError as exc:
        raise SchemaError(f"{where}: bad multiplicity ({exc})") from exc
    out = {}
    for name in ("insertion", "obstruction", "deformation"):
        try:
            out[name] = parse_class(str(raw.get(name, "1")), base)
        except (ParseError, BaseMismatch, Inhomogeneous) as exc:
            raise SchemaError(f"{where}: bad {name} expression: {exc}") from exc
    return LocusTerm(
        base=base,
        multiplicity=mult,
        insertion=out["insertion"],
        obstruction=out["obstruction"],
        deformation=out["deformation"],
    )


def _parse_locus(raw: dict, where: str) -> FixedLocusSpec:
    label = raw.get("label")
    if not label:
        raise SchemaError(f"{where}: locus without a label")
    where = f"{where} locus {label!r}"
    vanishes = raw.get("vanishes")
    if vanishes is not None:
        return FixedLocusSpec(label=label, source=str(raw.get("source", "")), vanishes=str(vanishes))
    if "terms" in raw:
        if any(k in raw for k in ("insertion", "obstruction", "deformation")):
            raise SchemaError(f"{where}: give either expression fields or terms, not both")
        terms = tuple(_parse_term(t, f"{where} term {i}") for i, t in enumerate(raw["terms"]))
        if not terms:
            raise SchemaError(f"{where}: empty terms list")
    else:
        terms = (_parse_term(raw, where),)
    for i, term in enumerate(terms):
        if term.deformation.scalar_part().is_zero():
            raise SchemaError(
                f"{where} term {i}: deformation has no invertible scalar part"
            )
    return FixedLocusSpec(label=label, source=str(raw.get("source", "")), terms=terms)


def parse_problem(payload: dict, where: str) -> LocalizationProblem:
    version = payload.get("schema_version", 1)
    if version != 1:
        raise SchemaError(f"{where}: unsupported schema_version {version!r}")
    label = payload.get("label")
    if not label:
        raise SchemaError(f"{where}: missing problem label")
    raw_loci = payload.get("loci")
    if not isinstance(raw_loci, list) or not raw_loci:
        raise SchemaError(f"{where}: a problem needs at least one locus")
    loci = tuple(sorted((_parse_locus(raw, where) for raw in raw_loci), key=lambda s: s.label))
    try:
        mult = rat_from_str(str(payload.get("symmetry_multiplier", "1")))
    except ValueError as exc:
        raise SchemaError(f"{where}: bad symmetry_multiplier ({exc})") from exc
    expected = payload.get("expected")
    return LocalizationProblem(
        label=label,
        loci=loci,
        symmetry_multiplier=mult,
        weight_swap=bool(payload.get("weight_swap", False)),
        expected=None if expected is None else rat_from_str(str(expected)),
        source=str(payload.get("source", "")),
    )


def load_problem(path: str | Path) -> LocalizationProblem:
    """Load a diagram file from an explicit path."""
    path = Path(path)
    return parse_problem(read_json(path, "diagram file"), str(path))


_PROBLEM_CACHE: dict[str, LocalizationProblem] = {}


def builtin_problem(name: str) -> LocalizationProblem:
    """Load one of the shipped diagram files by its public name."""
    stem = BUILTIN_ALIASES.get(name)
    if stem is None:
        raise SchemaError(
            f"unknown builtin problem {name!r}; known: {sorted(BUILTIN_ALIASES)}"
        )
    cached = _PROBLEM_CACHE.get(stem)
    if cached is not None:
        return cached
    payload, where = load_json("diagrams", f"{stem}.json")
    problem = parse_problem(payload, where)
    _PROBLEM_CACHE[stem] = problem
    return problem


def reset_problems() -> None:
    """Drop cached problems (used after changing GWVERIFY_DATA_DIR)."""
    _PROBLEM_CACHE.clear()
    _CONTRIB_CACHE.clear()


def resolve_problem(spec: str) -> LocalizationProblem:
    """Accept either a builtin name or a filesystem path."""
    if spec in BUILTIN_ALIASES:
        return builtin_problem(spec)
    return load_problem(spec)
