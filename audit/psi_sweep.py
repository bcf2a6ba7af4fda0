"""Full-bound psi sweep: every balanced key inside ``psi.MAX_GENUS`` and
``psi.MAX_POINTS``, evaluated in one memo, then checked by the equations the
recursion did not use on it:

- the DVV step at every distinct exponent but the one the recursion stepped
  on (a key with a 1 exponent took dilaton, so there every distinct
  exponent is a check; any other key took DVV at its smallest exponent);
- the string equation where an exponent is 0;
- the dilaton equation where an exponent is 1.

The two seeds, where removing a point leaves an unstable space, have no
check.  Standard library only; it writes nothing.  Run from a checkout:

    python3 audit/psi_sweep.py

Exit status 0 when every check agrees, 1 naming the first key and point
that disagree.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gwverify.psi import (  # noqa: E402
    MAX_GENUS,
    MAX_POINTS,
    PsiKey,
    dilaton_reduce,
    dvv_expand,
    psi_intersect,
    string_reduce,
)


def _partitions(total: int, parts: int, top: int):
    """Descending tuples of ``parts`` nonnegative ints at most ``top`` that
    sum to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, top), -1, -1):
        if first * parts < total:
            break
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def balanced_keys() -> list[PsiKey]:
    keys = []
    for g in range(MAX_GENUS + 1):
        for n in range(1, MAX_POINTS + 1):
            if 2 * g - 2 + n > 0:
                dim = 3 * g - 3 + n
                keys += [PsiKey(g, exps) for exps in _partitions(dim, n, dim)]
    return keys


def checks(key: PsiKey):
    """(point, equation, value) of every check of one key, the point an
    index into its sorted exponents."""
    exps = key.exponents
    if 2 * key.genus - 3 + key.n <= 0:
        return
    for point, a in enumerate(exps):
        # the first point of each run of equal exponents
        if point and exps[point - 1] == a:
            continue
        if a == exps[-1] and 1 not in exps:
            continue
        yield point, "DVV", dvv_expand(key, point)
    if 0 in exps:
        yield exps.index(0), "string", sum(m * psi_intersect(k) for m, k in string_reduce(key))
    if 1 in exps:
        factor, reduced = dilaton_reduce(key)
        yield exps.index(1), "dilaton", factor * psi_intersect(reduced)


def main() -> int:
    start = perf_counter()
    keys = balanced_keys()
    values = [psi_intersect(key) for key in keys]
    evaluated = perf_counter() - start
    count = 0
    for key, value in zip(keys, values):
        for point, equation, other in checks(key):
            count += 1
            if other != value:
                print(
                    f"psi sweep: {key}: {equation} at point {point} gives {other}, "
                    f"the recursion {value}"
                )
                return 1
    print(
        f"psi sweep: {len(keys)} keys evaluated in {evaluated:.1f} s, "
        f"{count} checks agree in {perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
