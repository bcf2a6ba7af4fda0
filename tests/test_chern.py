import random
from fractions import Fraction

import pytest

from gwverify.chern import (
    DeltaPoly,
    c1c2_minus_c3,
    degree_correction_genus3,
    euler_char,
    genus1_consistency_alpha,
    genus1_consistency_j,
    gw_genus1_deg0,
    hodge_contraction_genus3,
    hypersurface,
    log_tangent_pairing,
    projective_space,
)
from gwverify.errors import InclusionUndeclared

DELTA = DeltaPoly.delta()


def test_projective_space():
    p4 = projective_space(4)
    assert p4.c(4) == 5 and euler_char(p4) == 5
    assert euler_char(projective_space(1)) == 2
    assert euler_char(projective_space(3)) == 4
    assert projective_space(2).c(1) == 3


def test_hypersurface_basics():
    # a degree-1 hypersurface of P4 is P3
    v1 = hypersurface(4, 1)
    p3 = projective_space(3)
    assert v1.total_chern == p3.total_chern
    assert euler_char(v1) == 4
    # quintic threefold oracle
    assert euler_char(hypersurface(4, 5)) == -200
    # plane curves: chi = delta(3 - delta)
    for d in range(1, 6):
        assert euler_char(hypersurface(2, d)) == d * (3 - d)
    # delta points on the line
    assert euler_char(hypersurface(1, 7)) == 7


def test_hypersurface_symbolic():
    v = hypersurface(4, DELTA)
    assert c1c2_minus_c3(v) == DeltaPoly([0, 40, -25, 5])
    assert c1c2_minus_c3(v)(1) == 5 * (1 - 5 + 8)


def test_adjunction_consistency():
    # c(V) * (1 + delta x) agrees with c(X) restricted, in every degree <= dim V,
    # at numeric degrees and as a polynomial identity in delta
    for n in range(1, 7):
        for d in [DELTA, *range(1, 6)]:
            X, V = projective_space(n), hypersurface(n, d)
            assert V.dim == n - 1 and len(V.total_chern) == n
            for i in range(V.dim + 1):
                assert V.c(i) + d * V.c(i - 1) == X.c(i)


def test_euler_char_p1_bundle_identity():
    # the P1-bundle over V has chi = 2 chi(V); exercised through the j-consistency
    lhs, rhs = genus1_consistency_j(projective_space(4), hypersurface(4, 5))
    assert lhs == rhs


def test_log_tangent_pairing():
    # X = P1, V = delta points, k = 1: chi(X) - chi(V) = 2 - delta
    for d in range(1, 8):
        assert log_tangent_pairing(projective_space(1), hypersurface(1, d), 1) == 2 - d
    # X = P4, V = V1 = P3, k = 4: chi(P4) - chi(P3) = 1
    assert log_tangent_pairing(projective_space(4), hypersurface(4, 1), 4) == 1
    # k = 0 edge: <alpha, X> unchanged
    X = projective_space(3)
    assert log_tangent_pairing(X, hypersurface(3, 2), 0) == X.c(0)


def test_log_tangent_dual_routes_grid():
    # the expansion route and the difference route agree on the whole grid
    for n in (2, 3, 4):
        X = projective_space(n)
        for d in range(1, 6):
            V = hypersurface(n, d)
            for k in range(n + 1):
                log_tangent_pairing(X, V, k)  # raises InternalMismatch on failure


def test_inclusion_undeclared():
    with pytest.raises(InclusionUndeclared):
        log_tangent_pairing(projective_space(4), projective_space(3), 4)


def test_gw10_values():
    p4 = projective_space(4)
    v1 = hypersurface(4, 1)
    assert gw_genus1_deg0(p4, None, "j") == Fraction(5, 2)
    assert gw_genus1_deg0(p4, v1, "j") == Fraction(1, 2)
    # alpha insertion: -<x c_3(P4)>/24 = -10/24
    assert gw_genus1_deg0(p4, None, ("alpha", 1)) == -Fraction(10, 24)


def test_genus1_consistency_identities():
    # both degeneration identities hold exactly on the acceptance grid
    for n in (2, 3, 4):
        X = projective_space(n)
        for d in range(1, 6):
            V = hypersurface(n, d)
            lhs, rhs = genus1_consistency_j(X, V)
            assert lhs == rhs
            lhs, rhs = genus1_consistency_alpha(X, V)
            assert lhs == rhs


def test_hodge_contraction_reduces_to_c1c2_minus_c3():
    # the three-term lambda ladder collapses to <c1c2 - c3>/1451520
    v = hypersurface(4, DELTA)
    assert hodge_contraction_genus3(v) * 1451520 == c1c2_minus_c3(v)
    assert degree_correction_genus3(v) * 362880 == c1c2_minus_c3(v)


def test_degree_correction_symbolic_and_numeric():
    v = hypersurface(4, DELTA)
    corr = degree_correction_genus3(v)
    assert corr == DeltaPoly([0, Fraction(8, 72576), Fraction(-5, 72576), Fraction(1, 72576)])
    for d in range(1, 11):
        vd = hypersurface(4, d)
        expect = Fraction(d * (d * d - 5 * d + 8), 72576)
        assert degree_correction_genus3(vd) == expect == corr(d)


def test_contraction_formula_against_root_expansion():
    # derived oracle: expand prod_j (f_j^3 - f_j^2 l1 + f_j l2 - l3) over
    # explicit Chern roots and compare the three symmetric-function
    # coefficients with the ladder formula, at random rational roots
    from gwverify.hodge import HodgeMonomial, hodge_intersect

    lam = {
        (1, 1, 1): hodge_intersect(HodgeMonomial(3, 0, (), (1, 1, 1))),
        (0, 3, 0): hodge_intersect(HodgeMonomial(3, 0, (), (0, 3, 0))),
        (0, 0, 2): hodge_intersect(HodgeMonomial(3, 0, (), (0, 0, 2))),
    }
    rng = random.Random(31)
    for _ in range(25):
        f = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        c1 = sum(f)
        c2 = f[0] * f[1] + f[0] * f[2] + f[1] * f[2]
        c3 = f[0] * f[1] * f[2]
        # brute-force coefficient of each top lambda-monomial
        from itertools import product as iproduct

        total = {}
        for picks in iproduct(range(4), repeat=3):
            weight = Fraction(1)
            lam_exp = [0, 0, 0]
            for root, i in zip(f, picks):
                if i == 0:
                    weight *= root**3
                elif i == 1:
                    weight *= -(root**2)
                    lam_exp[0] += 1
                elif i == 2:
                    weight *= root
                    lam_exp[1] += 1
                else:
                    weight *= -1
                    lam_exp[2] += 1
            key = tuple(lam_exp)
            total[key] = total.get(key, Fraction(0)) + weight
        brute = sum(
            coeff * hodge_intersect(HodgeMonomial(3, 0, (), key))
            for key, coeff in total.items()
            if sum((i + 1) * e for i, e in enumerate(key)) == 6
        )
        ladder = (
            lam[(1, 1, 1)] * (c1 * c2 - 3 * c3)
            + lam[(0, 3, 0)] * c3
            + lam[(0, 0, 2)] * (c1**3 - 3 * c1 * c2 + 3 * c3)
        )
        assert brute == ladder


def test_deltapoly_str():
    assert str(DeltaPoly([0, Fraction(8, 72576), Fraction(-5, 72576), Fraction(1, 72576)])) == (
        "1/9072*delta - 5/72576*delta^2 + 1/72576*delta^3"
    )
