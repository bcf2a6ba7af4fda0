"""Closed forms for Hodge integrals, from the Bernoulli numbers alone.

They read no table and run no recursion, so they are a route to Hodge
integrals that shares nothing with the psi recursion, the Mumford relations
or ``dm_intersections.json`` (Faber-Pandharipande, "Hodge integrals and
Gromov-Witten theory", 2000):

  the lambda_g formula   int_{DM(g, n)} psi^a lambda_g = multinom(2g-3+n; a) b_g,
                         with sum_g b_g t^(2g) = (t/2)/sin(t/2);
  the one-point series   1 + sum_{g>=1} sum_{i=0..g} t^(2g) k^i
                             int_{DM(g, 1)} psi_1^(2g-2+i) lambda_{g-i}
                         = ((t/2)/sin(t/2))^(k+1),
                         with log((t/2)/sin(t/2)) = sum_{m>=1} |B_2m| t^(2m) / (2m (2m)!).

Column i = 0 of the series is b_g and column i = g the one-point form
1/(24^g g!).  The module imports nothing but :mod:`fractions`, so it can be
read and checked on its own.
"""

from __future__ import annotations

from fractions import Fraction


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n, n >= 0, with B_1 = -1/2 (Akiyama-Tanigawa)."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return -row[0] if n == 1 else row[0]  # the algorithm gives B_1 = +1/2


def _factorial(n: int) -> int:
    out = 1
    for j in range(2, n + 1):
        out *= j
    return out


def multinomial(parts) -> int:
    """(sum parts)! / prod(part!), built one binomial step at a time so each
    partial quotient is an integer."""
    out, total = 1, 0
    for a in parts:
        for j in range(1, a + 1):
            total += 1
            out = out * total // j
    return out


def lambda_g_constant(g: int) -> Fraction:
    """b_g = [t^(2g)] (t/2)/sin(t/2) = (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!),
    the value of lambda_g on DM(g, 1) with psi_1^(2g-2)."""
    if g == 0:
        return Fraction(1)
    half = 2 ** (2 * g - 1)
    return (half - 1) * abs(bernoulli(2 * g)) / (half * _factorial(2 * g))


def one_point_series(max_genus: int) -> tuple[tuple[Fraction, ...], ...]:
    """For g = 0..max_genus, the coefficients [t^(2g) k^i] of
    ((t/2)/sin(t/2))^(k+1) for i = 0..g: for g >= 1 the integrals of
    psi_1^(2g-2+i) lambda_{g-i} over DM(g, 1), lambda_0 = 1.

    With L = log((t/2)/sin(t/2)) from the Bernoulli numbers, the power is
    exp(L) exp(kL), so column i is exp(L) L^i / i!.  Each series is a list of
    its coefficients of t^0, t^2, ..., t^(2 max_genus); exp(L) is built by
    m p_m = sum_{j=1..m} j l_j p_{m-j}, not from :func:`lambda_g_constant`.
    """
    log = [Fraction(0)] + [
        abs(bernoulli(2 * m)) / (2 * m * _factorial(2 * m)) for m in range(1, max_genus + 1)
    ]
    term = [Fraction(1)]  # exp(L), then exp(L) L^i / i!
    for m in range(1, max_genus + 1):
        term.append(sum(j * log[j] * term[m - j] for j in range(1, m + 1)) / m)
    columns = [[] for _ in range(max_genus + 1)]
    for i in range(max_genus + 1):
        if i:
            term = [
                sum((term[j] * log[m - j] for j in range(m)), Fraction(0)) / i
                for m in range(max_genus + 1)
            ]
        for g in range(i, max_genus + 1):
            columns[g].append(term[g])
    return tuple(map(tuple, columns))
