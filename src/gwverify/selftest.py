"""The acceptance suite: every contract-level criterion as a named check.

Each check returns (ok, detail).  The CLI selftest command and the pytest
acceptance module both run exactly these.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chern import (
    c1c2_minus_c3,
    degree_correction_genus3,
    genus1_consistency_alpha,
    genus1_consistency_j,
    hypersurface,
    log_tangent_pairing,
    projective_space,
)
from .exprs import parse_class, parse_scalar
from .hodge import HodgeMonomial, hodge_intersect
from .localization import (
    builtin_problem,
    locus_contribution,
    problem_numeric_total,
    problem_total,
)
from .psi import PsiKey, psi_intersect
from .reports import VerificationReport
from .ring import (
    BaseSpace,
    DMFactor,
    ProjLineFactor,
    TautClass,
    mumford_product_check,
    tc_invert,
)
from .scalars import EquivariantScalar
from .sumformula import (
    DELTA,
    GENUS3_CORRECTION,
    GUARANTEED,
    NOT_GUARANTEED,
    assemble_example,
    example_graphs,
    surviving_graphs,
    thm1_verdict,
)


def _check_all(pairs) -> tuple[bool, str]:
    bad = [f"{label}: got {got}, want {want}" for label, got, want in pairs if got != want]
    if bad:
        return False, "; ".join(bad)
    return True, f"{len(list(pairs))} equalities hold exactly"


def criterion_1_psi_oracle():
    """psi-oracle reproduces the anchor intersection numbers"""
    pairs = [
        ("<psi^4> genus 2", psi_intersect(PsiKey(2, (4,))), Fraction(1, 1152)),
        ("<psi^7> genus 3", psi_intersect(PsiKey(3, (7,))), Fraction(1, 82944)),
        ("<psi^3 psi^2> genus 2", psi_intersect(PsiKey(2, (3, 2))), Fraction(29, 5760)),
        ("<psi> genus 1", psi_intersect(PsiKey(1, (1,))), Fraction(1, 24)),
    ]
    return _check_all(pairs)


# Table 1: the genus-3 lambda integrals over the unpointed moduli space,
# keyed by the exponents (e1, e2, e3) of lam1, lam2, lam3.
TABLE1 = {
    (6, 0, 0): Fraction(1, 90720),
    (4, 1, 0): Fraction(1, 181440),
    (3, 0, 1): Fraction(1, 725760),
    (2, 2, 0): Fraction(1, 362880),
    (1, 1, 1): Fraction(1, 1451520),
    (0, 3, 0): Fraction(1, 725760),
    (0, 0, 2): Fraction(0),
}


def criterion_2_table_chains():
    """lambda-relation rewrite chains reproduce the genus-3 table row"""
    def lam(*e):
        return hodge_intersect(HodgeMonomial(3, 0, (), tuple(e)))

    pairs = [(f"lam{e}", lam(*e), v) for e, v in TABLE1.items()] + [
        ("chain lam1^6 = 2 lam1^4 lam2", lam(6, 0, 0), 2 * lam(4, 1, 0)),
        ("chain = 4 lam1^2 lam2^2", lam(6, 0, 0), 4 * lam(2, 2, 0)),
        ("chain = 8 lam1^3 lam3", lam(6, 0, 0), 8 * lam(3, 0, 1)),
        ("lam2^3 = 2 lam1 lam2 lam3", lam(0, 3, 0), 2 * lam(1, 1, 1)),
    ]
    return _check_all(pairs)


def criterion_3_dilaton_bridge():
    """every psi^1 lambda-entry equals four times the unpointed value"""
    pairs = [
        (f"psi lam{e}", hodge_intersect(HodgeMonomial(3, 1, (1,), e)), 4 * v)
        for e, v in TABLE1.items()
    ]
    return _check_all(pairs)


def criterion_4_mumford_products():
    """rank-2 and rank-3 twist products collapse to +-w^(2g)"""
    w = EquivariantScalar.weight(1) - EquivariantScalar.weight(2)
    pairs = [
        ("genus 2 collapse", mumford_product_check(2, w), True),
        ("genus 3 collapse", mumford_product_check(3, w), True),
        ("genus 1 collapse", mumford_product_check(1, w), True),
    ]
    return _check_all(pairs)


def criterion_5_localization_totals():
    """localization problem totals are the printed weight-free rationals"""
    pairs = [
        ("normalization problem", problem_total(builtin_problem("fig7")), Fraction(1)),
        ("push-forward degree problem", problem_total(builtin_problem("fig10")), Fraction(4)),
        ("genus-2 absolute", problem_total(builtin_problem("fig8-absolute")), Fraction(1, 240)),
        ("genus-2 relative", problem_total(builtin_problem("fig8-relative")), Fraction(19, 5760)),
        ("genus-3 absolute x2", problem_total(builtin_problem("p4-absolute")), Fraction(-37, 82944)),
        ("genus-3 relative with swap", problem_total(builtin_problem("p4-relative-delta1")), Fraction(-97, 193536)),
    ]
    return _check_all(pairs)


def criterion_6_per_locus_goldens():
    """per-locus contributions match the displayed values and functions"""
    absolute = {s.label: s for s in builtin_problem("p4-absolute").loci}
    relative = {s.label: s for s in builtin_problem("p4-relative-delta1").loci}
    pairs = [
        ("(4.33)", locus_contribution(absolute["genus3-at-p1"]), parse_scalar("5/165888")),
        ("(4.34)", locus_contribution(absolute["genus2-at-p1-genus1-below"]), parse_scalar("5/27648")),
        ("(4.35)", locus_contribution(absolute["genus1-at-p1-genus2-below"]), parse_scalar("-1/11520")),
        ("(4.36)", locus_contribution(absolute["genus3-below"]), parse_scalar("-1/2880")),
        (
            "(4.38)",
            locus_contribution(relative["genus3-at-p1"]),
            parse_scalar("-1/2 * 1/82944 * a2^6/(a1^4*(a1^2-a2^2))"),
        ),
        (
            "(4.39)",
            locus_contribution(relative["genus2-at-p1-genus1-rubber"]),
            parse_scalar("-1/2 * 1/27648 * a2^4*(5*a1^2-a2^2)/(a1^4*(a1^2-a2^2))"),
        ),
        (
            "(4.41)",
            locus_contribution(relative["genus1-at-p1-genus2-rubber"]),
            parse_scalar("-1/2 * 1/138240 * a2^2*(89*a1^4-46*a1^2*a2^2+5*a2^4)/(a1^4*(a1^2-a2^2))"),
        ),
        (
            "(4.42)",
            locus_contribution(relative["genus3-rubber"]),
            parse_scalar("-1/2 * 1/2903040 * (1747*a1^6-1577*a1^4*a2^2+441*a1^2*a2^4-35*a2^6)/(a1^4*(a1^2-a2^2))"),
        ),
    ]
    return _check_all(pairs)


def criterion_7_identity_assembly():
    """both degree identities hold symbolically and at degrees 1..10"""
    for example in (2, 3):
        report = assemble_example(example, "symbolic")
        if report.status != "PASS":
            return False, f"example {example}: {report.to_text()}"
    # delta = 1 cross-matches between assembly and localization
    pairs = [
        (
            "genus-2 delta=1",
            Fraction(1, 240) - Fraction(1, 1152),
            problem_total(builtin_problem("fig8-relative")),
        ),
        (
            "genus-3 delta=1",
            Fraction(-37, 82944) - Fraction(4, 72576),
            problem_total(builtin_problem("p4-relative-delta1")),
        ),
    ]
    return _check_all(pairs)


def criterion_8_degree_correction_pipeline():
    """the Hodge contraction times the degree-4 factor is <c1c2-c3>/362880"""
    V = hypersurface(4, DELTA)
    corr = degree_correction_genus3(V, multiplier=problem_total(builtin_problem("fig10")))
    pairs = [
        ("symbolic product", corr * 362880, c1c2_minus_c3(V)),
        ("closed form", corr, GENUS3_CORRECTION),
    ]
    return _check_all(pairs)


def criterion_9_genus1_consistency():
    """the genus-1 degree-0 consistency identities hold on the grid"""
    for n in (2, 3, 4):
        X = projective_space(n)
        for d in range(1, 6):
            V = hypersurface(n, d)
            lhs, rhs = genus1_consistency_j(X, V)
            if lhs != rhs:
                return False, f"j-identity fails at n={n}, delta={d}"
            lhs, rhs = genus1_consistency_alpha(X, V)
            if lhs != rhs:
                return False, f"alpha-identity fails at n={n}, delta={d}"
            for k in range(n + 1):
                log_tangent_pairing(X, V, k)  # raises on route mismatch
    return True, "identities and dual-route pairings hold for n=2..4, delta=1..5"


def criterion_10_graph_counts():
    """surviving graph counts match the figures: 1+delta and 2"""
    counts = {}
    for example_id, delta in [(2, d) for d in range(1, 8)] + [(3, 5)]:
        surviving = [graph for graph, keep in example_graphs(example_id, delta) if keep]
        if surviving_graphs(example_id, delta) != surviving:
            return False, f"example {example_id}, degree {delta}: pruned and filtered graphs differ"
        counts[example_id, delta] = len(surviving)
    for delta in range(1, 8):
        if counts[2, delta] != 1 + delta:
            return False, f"degree {delta}: {counts[2, delta]} graphs survive"
    if counts[3, 5] != 2:
        return False, f"hypersurface case: {counts[3, 5]} graphs survive"
    return True, "counts are 1+delta (delta <= 7) and 2"


def criterion_11_verdict_grid():
    """the guarantee verdict reproduces the theorem on the whole grid"""
    for n in range(1, 7):
        for g in range(5):
            for kappa in (True, False):
                for a_zero in (True, False):
                    v = thm1_verdict(n, g, a_zero, kappa)
                    in_18 = (not (g == 1 and a_zero)) and (n - 5) * g * (g - 1) >= 0
                    if (v.status == GUARANTEED) != in_18:
                        return False, f"wrong guarantee at n={n}, g={g}"
                    if v.status == NOT_GUARANTEED:
                        regime = {
                            1: a_zero,
                            2: (not kappa) and 1 <= n <= 4 and g >= 2,
                            3: kappa and n == 4 and g >= 3,
                        }[v.counter_example]
                        if not regime:
                            return False, f"bad pointer at n={n}, g={g}, kappa={kappa}, A0={a_zero}"
    return True, "verdicts and counter-example pointers correct on the 120-cell grid"


def criterion_12_property_suites():
    """unit-inverse and numeric weight checks"""
    # unit-inverse identity on random truncated classes
    rng = random.Random(2024)
    base = BaseSpace((DMFactor(2, 2), ProjLineFactor()))
    gens = [
        parse_class(s, base)
        for s in ("psi[0,1]", "psi[0,2]", "lam[0,1]", "lam[0,2]", "x[1]")
    ]
    for _ in range(10):
        cls = TautClass.scalar(base, EquivariantScalar.weight(1).scale(rng.randint(1, 5)))
        for gcls in gens:
            cls = cls + gcls.scale(Fraction(rng.randint(-3, 3)))
        if cls * tc_invert(cls) != TautClass.one(base):
            return False, "unit-inverse identity fails"

    # numeric weight-independence spot checks
    for name in ("fig7", "fig10", "fig8-absolute", "fig8-relative", "p4-absolute", "p4-relative-delta1"):
        problem = builtin_problem(name)
        constant = problem_total(problem)
        done = 0
        while done < 3:
            w = (Fraction(rng.randint(1, 50)), Fraction(rng.randint(1, 50)))
            if w[0] in (w[1], -w[1]) or 0 in w:
                continue
            if problem_numeric_total(problem, w) != constant:
                return False, f"{name}: numeric evaluation at {w} disagrees"
            done += 1
    return True, "unit-inverse and numeric weights all pass"


CRITERIA = [
    ("1 psi oracle anchors", criterion_1_psi_oracle),
    ("2 table rewrite chains", criterion_2_table_chains),
    ("3 dilaton bridge", criterion_3_dilaton_bridge),
    ("4 mumford products", criterion_4_mumford_products),
    ("5 localization totals", criterion_5_localization_totals),
    ("6 per-locus goldens", criterion_6_per_locus_goldens),
    ("7 identity assembly", criterion_7_identity_assembly),
    ("8 degree-correction pipeline", criterion_8_degree_correction_pipeline),
    ("9 genus-1 consistency grid", criterion_9_genus1_consistency),
    ("10 graph counts", criterion_10_graph_counts),
    ("11 verdict grid", criterion_11_verdict_grid),
    ("12 property suites", criterion_12_property_suites),
]


def run_selftest() -> VerificationReport:
    report = VerificationReport(command="selftest")
    for label, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # data corruption, schema errors, bugs
            report.error = f"{label}: {type(exc).__name__}: {exc}"
            report.add(label, "error", str(exc), expected="pass")
            break
        report.add(label, "pass" if ok else detail, fn.__doc__ or "", expected="pass")
    return report
