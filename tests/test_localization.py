import gc
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gwverify.errors import (
    ExpectationMismatch,
    Inhomogeneous,
    NonConstantSum,
    SchemaError,
)
from gwverify import localization
from gwverify.exprs import parse_scalar
from gwverify.localization import (
    BUILTIN_ALIASES,
    FixedLocusSpec,
    builtin_problem,
    load_problem,
    locus_contribution,
    parse_problem,
    problem_symbolic_total,
    problem_total,
    resolve_problem,
)
from gwverify.ring import _mono_degrees, tc_integrate, tc_invert
from gwverify.scalars import ES_ZERO, es_eval


def locus(problem, label):
    [spec] = [s for s in problem.loci if s.label == label]
    return spec


# -- problem totals ------------------------------------------------------------

def test_fig7_total_is_one():
    assert problem_total(builtin_problem("fig7")) == 1
    assert problem_total(builtin_problem("lemma4.3")) == 1


def test_fig10_total_is_four():
    assert problem_total(builtin_problem("lemma4.5")) == 4


def test_fig8_pair():
    assert problem_total(builtin_problem("fig8-absolute")) == Fraction(1, 240)
    assert problem_total(builtin_problem("fig8-relative")) == Fraction(19, 5760)


def test_p4_absolute_total():
    assert problem_total(builtin_problem("p4-absolute")) == Fraction(-37, 82944)


def test_p4_relative_total():
    assert problem_total(builtin_problem("p4-relative-delta1")) == Fraction(-97, 193536)


def test_identity_bridge_delta1():
    # relative total + correction = absolute total at delta = 1
    assert Fraction(19, 5760) + Fraction(1, 1152) == Fraction(1, 240)


def test_sum_check_absolute_p4():
    s = (
        Fraction(5, 165888)
        + Fraction(5, 27648)
        - Fraction(1, 11520)
        - Fraction(1, 2880)
    )
    assert 2 * s == Fraction(-37, 82944)


def test_totals_match_the_pairwise_fold():
    # problem_symbolic_total and locus_contribution add over one lcm of the
    # denominators; a fold of `+` over the same scalars is the reference
    from gwverify.localization import _term_contribution
    from gwverify.selftest import criterion_6_per_locus_goldens

    printed = {
        "fig7": 1,
        "fig10": 4,
        "fig8-absolute": Fraction(1, 240),
        "fig8-relative": Fraction(19, 5760),
        "p4-absolute": Fraction(-37, 82944),
        "p4-relative-delta1": Fraction(-97, 193536),
    }
    terms = 0
    for name, value in printed.items():
        problem = builtin_problem(name)
        total = ES_ZERO
        for spec in problem.loci:
            if spec.vanishes is None:
                contribution = ES_ZERO
                for term in spec.terms:
                    contribution = contribution + _term_contribution(term)
                    terms += 1
                assert locus_contribution(spec) == contribution, (name, spec.label)
                total = total + contribution
        total = total.scale(problem.symmetry_multiplier)
        if problem.weight_swap:
            total = total + total.swap_weights()
        assert problem_symbolic_total(problem) == total == value, name
        assert problem_total(problem) == value
    assert terms == 18
    assert criterion_6_per_locus_goldens() == (True, "8 equalities hold exactly")


def test_mixed_degree_terms_after_a_cancelling_pair_are_schema_error():
    # the first nonzero term fixes the weight degree: terms of degree 1 that
    # cancel, then one of degree 0, fail even though the partial sum is 0
    def term(insertion):
        return {"base": [{"kind": "point"}], "insertion": insertion}

    problem = parse_problem(
        {
            "label": "mixed",
            "loci": [{"label": "pt", "terms": [term("a1"), term("-a1"), term("1")]}],
        },
        "test",
    )
    with pytest.raises(
        SchemaError, match="^test locus 'pt': cannot add scalars of degree 1 and 0$"
    ) as info:
        problem_total(problem)
    assert isinstance(info.value.__cause__, Inhomogeneous)


# -- per-locus goldens ----------------------------------------------------------

def test_fig8_locus_goldens():
    p = builtin_problem("fig8-absolute")
    assert locus_contribution(locus(p, "genus2-at-p1")) == Fraction(4, 480) - Fraction(29, 5760)
    assert locus_contribution(locus(p, "genus2-at-p1")) == Fraction(19, 5760)
    assert locus_contribution(locus(p, "genus2-at-p2")) == Fraction(1, 1152)
    rel = builtin_problem("fig8-relative")
    assert locus_contribution(locus(rel, "genus2-at-p2")).is_zero()


def test_p4_absolute_locus_goldens():
    p = builtin_problem("p4-absolute")
    expected = {
        "genus3-at-p1": Fraction(5, 165888),
        "genus2-at-p1-genus1-below": Fraction(5, 27648),
        "genus1-at-p1-genus2-below": Fraction(-1, 11520),
        "genus3-below": Fraction(-1, 2880),
    }
    for label, value in expected.items():
        assert locus_contribution(locus(p, label)) == value


def test_p4_relative_locus_goldens_symbolic():
    p = builtin_problem("p4-relative-delta1")
    printed = {
        "genus3-at-p1": "-1/2 * 1/82944 * a2^6/(a1^4*(a1^2-a2^2))",
        "genus2-at-p1-genus1-rubber": "-1/2 * 1/27648 * a2^4*(5*a1^2-a2^2)/(a1^4*(a1^2-a2^2))",
        "genus1-at-p1-genus2-rubber": "-1/2 * 1/138240 * a2^2*(89*a1^4-46*a1^2*a2^2+5*a2^4)/(a1^4*(a1^2-a2^2))",
        "genus3-rubber": "-1/2 * 1/2903040 * (1747*a1^6-1577*a1^4*a2^2+441*a1^2*a2^4-35*a2^6)/(a1^4*(a1^2-a2^2))",
    }
    for label, text in printed.items():
        assert locus_contribution(locus(p, label)) == parse_scalar(text)


def test_p4_relative_halfsum_matches_paper():
    # the sum over the four loci, doubled, before the weight swap
    p = builtin_problem("p4-relative-delta1")
    half = sum(
        (locus_contribution(s) for s in p.loci if s.vanishes is None),
        start=parse_scalar("0"),
    ).scale(2)
    printed = parse_scalar(
        "-1/2903040 * (1747*a1^6 + 292*a1^4*a2^2)/(a1^4*(a1^2-a2^2))"
    )
    assert half == printed


# -- contributions against the inverse route -------------------------------------

def _inverse_route(term):
    """The contribution through the inverse class: the full product
    I * O * D^-1, then its top degree."""
    integrand = term.insertion * term.obstruction * tc_invert(term.deformation)
    return tc_integrate(integrand).scale(term.multiplicity)


def test_contributions_match_the_inverse_route():
    checked = 0
    for stem in sorted(set(BUILTIN_ALIASES.values())):
        name = next(n for n, s in BUILTIN_ALIASES.items() if s == stem)
        for spec in builtin_problem(name).loci:
            if spec.vanishes is not None:
                continue
            expected = ES_ZERO
            for i, term in enumerate(spec.terms):
                one = FixedLocusSpec(label=f"{spec.label} term {i}", terms=(term,))
                assert locus_contribution(one) == _inverse_route(term), (name, one.label)
                expected = expected + _inverse_route(term)
                checked += 1
            assert locus_contribution(spec) == expected, (name, spec.label)
    assert checked == 18  # the terms of the 14 non-vanishing loci


def test_contribution_with_denominators_matches_the_inverse_route(tmp_path):
    # coefficients with denominators other than 1, a rational multiplicity
    # and a ring-element twist weight
    payload = {
        "label": "user",
        "loci": [
            {
                "label": "divided",
                "base": [{"kind": "dm", "g": 1, "n": 1}, {"kind": "p1"}],
                "multiplicity": "3/7",
                "insertion": "a1*psi[0,1]/(a1-a2) + x[1]",
                "obstruction": "hodgetwist(1; a1 + x[1], a2)",
                "deformation": "(a1 - psi[0,1])*(a1+a2)/(a1-a2) + x[1]",
            }
        ],
    }
    path = tmp_path / "user.json"
    path.write_text(json.dumps(payload))
    (spec,) = load_problem(path).loci
    (term,) = spec.terms
    contribution = locus_contribution(spec)
    assert contribution == _inverse_route(term)
    assert contribution == parse_scalar("3/7 * (3*a2^2 - a1^2)/(24*(a1+a2)^2)")


# -- weight independence ----------------------------------------------------------

@pytest.mark.parametrize("name", ["fig7", "fig10", "fig8-absolute", "fig8-relative", "p4-absolute", "p4-relative-delta1"])
def test_weight_independence_spot_checks(name):
    problem = builtin_problem(name)
    symbolic = problem_symbolic_total(problem)
    constant = symbolic.is_constant()
    assert constant is not None
    rng = random.Random(hash(name) & 0xFFFF)
    done = 0
    while done < 3:
        w = (Fraction(rng.randint(1, 40)), Fraction(rng.randint(1, 40)))
        if w[0] in (w[1], -w[1]) or w[0] == 2 * w[1] or w[1] == 2 * w[0] or 0 in w:
            continue
        assert es_eval(symbolic, w) == constant
        done += 1


# -- loading and schema ------------------------------------------------------------

def test_resolve_by_path(tmp_path):
    payload = {
        "label": "toy",
        "expected": "1",
        "loci": [
            {
                "label": "only",
                "base": [{"kind": "point"}],
                "insertion": "1",
                "obstruction": "a1-a2",
                "deformation": "a1-a2",
            }
        ],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    assert problem_total(resolve_problem(str(path))) == 1


def test_empty_loci_is_schema_error():
    with pytest.raises(SchemaError):
        parse_problem({"label": "bad", "loci": []}, "test")


def test_terms_and_expressions_are_exclusive():
    with pytest.raises(SchemaError):
        parse_problem(
            {
                "label": "bad",
                "loci": [
                    {
                        "label": "only",
                        "insertion": "1",
                        "terms": [{"base": [{"kind": "point"}]}],
                    }
                ],
            },
            "test",
        )


def test_bad_expression_reports_location():
    with pytest.raises(SchemaError, match="locus 'only'"):
        parse_problem(
            {
                "label": "bad",
                "loci": [
                    {
                        "label": "only",
                        "base": [{"kind": "point"}],
                        "obstruction": "x[0]",
                        "deformation": "1",
                    }
                ],
            },
            "test",
        )


def test_unsupported_schema_version():
    with pytest.raises(SchemaError, match="schema_version"):
        parse_problem({"schema_version": 99, "label": "bad", "loci": []}, "test")


def test_expectation_mismatch(tmp_path):
    payload = {
        "label": "toy",
        "expected": "2",
        "loci": [
            {"label": "only", "base": [{"kind": "point"}], "obstruction": "1", "deformation": "1"}
        ],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ExpectationMismatch):
        problem_total(load_problem(str(path)))


def test_nonconstant_sum(tmp_path):
    payload = {
        "label": "toy",
        "loci": [
            {"label": "only", "base": [{"kind": "point"}], "obstruction": "a1", "deformation": "a2"}
        ],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(NonConstantSum):
        problem_total(load_problem(str(path)))


def test_vanishing_tags_in_shipped_files():
    fig7 = builtin_problem("fig7")
    tags = {s.label: s.vanishes for s in fig7.loci}
    assert tags["split-genus-1-1"] == "killed by st*sigma"
    assert tags["genus2-in-rubber"] == "dimension"
    fig10 = builtin_problem("fig10")
    assert sum(1 for s in fig10.loci if s.vanishes is not None) == 3
    with pytest.raises(ValueError):
        locus_contribution(locus(fig7, "split-genus-1-1"))


def test_inhomogeneous_expression_is_schema_error():
    with pytest.raises(SchemaError, match="locus 'only': bad insertion expression") as info:
        parse_problem(
            {
                "label": "bad",
                "loci": [
                    {
                        "label": "only",
                        "base": [{"kind": "point"}],
                        "insertion": "a1 + 1",
                        "deformation": "a1",
                    }
                ],
            },
            "test",
        )
    assert isinstance(info.value.__cause__, Inhomogeneous)


def test_inhomogeneous_integrand_names_the_locus():
    # each field parses, but the product mixes a1 and 1 on x[0]*x[1]
    problem = parse_problem(
        {
            "label": "bad",
            "loci": [
                {
                    "label": "square",
                    "base": [{"kind": "p1"}, {"kind": "p1"}],
                    "insertion": "a1*x[0] + x[1]",
                    "obstruction": "x[0] + x[1]",
                }
            ],
        },
        "test",
    )
    with pytest.raises(SchemaError, match="locus 'square'"):
        problem_total(problem)


def test_shipped_fields_are_homogeneous():
    # every term of a field has one weight degree plus monomial degree, so no
    # product or pairing of the shipped diagrams mixes weight degrees; that is
    # why diagrams get no load-time check, and one that mixes them fails
    # through the ring's own rule
    fields = 0
    for name in sorted({stem: name for name, stem in BUILTIN_ALIASES.items()}.values()):
        for spec in builtin_problem(name).loci:
            for term in spec.terms:
                for cls in (term.insertion, term.obstruction, term.deformation):
                    degrees = {
                        c.degree() + sum(_mono_degrees(term.base, m))
                        for m, c in cls.terms.items()
                    }
                    assert len(degrees) <= 1, (name, spec.label, degrees)
                    fields += 1
    assert fields == 54


def test_exponent_above_the_bound_is_schema_error():
    def problem(insertion):
        locus = {"label": "pt", "base": [{"kind": "point"}], "insertion": insertion}
        return parse_problem({"label": "power", "loci": [locus]}, "test")

    assert problem_total(problem("(a1+a2)^64/(a1+a2)^64")) == 1
    with pytest.raises(SchemaError, match="locus 'pt': bad insertion expression: exponent 65"):
        problem("(a1+a2)^65")
    # a literal longer than the interpreter converts to int is rejected the same way
    for insertion in ("a1*" + "9" * 5000 + "/a1", "a1^" + "9" * 5000):
        with pytest.raises(
            SchemaError,
            match="locus 'pt': bad insertion expression: integer literal of 5000 digits "
            "at position 3 is too long",
        ):
            problem(insertion)


def test_deformation_must_be_invertible():
    with pytest.raises(SchemaError):
        parse_problem(
            {
                "label": "bad",
                "loci": [
                    {
                        "label": "only",
                        "base": [{"kind": "p1"}],
                        "obstruction": "1",
                        "deformation": "x[0]",
                    }
                ],
            },
            "test",
        )


def test_contribution_cache_drops_collected_specs():
    path = Path(localization.__file__).parent / "data" / "diagrams" / "fig11_relative.json"
    gc.collect()
    before = len(localization._CONTRIB_CACHE)
    kept = load_problem(path)
    problem_total(kept)
    alive = len(localization._CONTRIB_CACHE)
    assert alive > before
    for _ in range(10):
        problem_total(load_problem(path))
    gc.collect()
    assert len(localization._CONTRIB_CACHE) == alive
    del kept
    gc.collect()
    assert len(localization._CONTRIB_CACHE) == before
