from fractions import Fraction
from math import factorial

from gwverify.closedform import bernoulli, lambda_g_constant, multinomial, one_point_series
from gwverify.hodge import HodgeMonomial, hodge_intersect


def test_bernoulli_numbers():
    typed = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0,
             Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730)]
    assert [bernoulli(n) for n in range(13)] == typed


def test_multinomial():
    assert multinomial(()) == 1
    assert multinomial((3, 2)) == 10
    assert multinomial((0, 2, 1, 1, 0)) == 12


def test_one_point_series_agrees_with_the_oracle():
    # all 9 keys with 1 <= g <= 3; 8 are dm_intersections.json rows, and
    # psi_1 on DM(1, 1) is the psi recursion's
    for g, column in enumerate(one_point_series(3)[1:], start=1):
        for i, value in enumerate(column):
            lam = tuple(int(j == g - i) for j in range(1, g + 1))
            assert hodge_intersect(HodgeMonomial(g, 1, (2 * g - 2 + i,), lam)) == value


def test_one_point_series_at_genus_4():
    assert one_point_series(4)[4] == (
        Fraction(127, 154828800),
        Fraction(13, 6220800),
        Fraction(1357, 696729600),
        Fraction(1, 1244160),
        Fraction(1, 7962624),
    )


def test_one_point_series_columns():
    # i = g is the one-point form <tau_{3g-2}>_g = 1/(24^g g!), i = 0 is b_g
    columns = one_point_series(7)
    assert columns[:4] == one_point_series(3)
    for g, column in enumerate(columns):
        assert len(column) == g + 1
        assert column[g] == Fraction(1, 24**g * factorial(g))
        assert column[0] == lambda_g_constant(g)
    assert [lambda_g_constant(g) for g in range(4)] == [
        1, Fraction(1, 24), Fraction(7, 5760), Fraction(31, 967680)
    ]
