import itertools
import json
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from gwverify import hodge, ring
from gwverify.errors import (
    GenusOutOfRange,
    SchemaError,
    UnknownMonomial,
    UnknownRubberKey,
    UnstableInput,
)
from gwverify.hodge import (
    HodgeMonomial,
    RubberKey,
    hodge_intersect,
    rewrite_lambda,
    rubber_intersect,
)
from gwverify.psi import PsiKey, psi_intersect
from gwverify.ring import TautClass, mumford_product_check
from gwverify.scalars import EquivariantScalar

A1 = EquivariantScalar.weight(1)
A2 = EquivariantScalar.weight(2)


def H(g, psi, lam):
    return HodgeMonomial(g, len(psi), tuple(psi), tuple(lam))


def hval(g, psi, lam):
    return hodge_intersect(H(g, psi, lam))


# -- relations ---------------------------------------------------------------

def test_rewrite_chain_genus3():
    # lambda_1^6 -> 2 lambda_1^4 lambda_2 -> 4 lambda_1^2 lambda_2^2 -> 8 lambda_1^3 lambda_3
    assert hval(3, [], [6, 0, 0]) == Fraction(1, 90720)
    assert hval(3, [], [4, 1, 0]) == Fraction(1, 181440)
    assert hval(3, [], [2, 2, 0]) == Fraction(1, 362880)
    assert hval(3, [], [3, 0, 1]) == Fraction(1, 725760)
    assert Fraction(1, 90720) == 2 * Fraction(1, 181440) == 4 * Fraction(1, 362880) == 8 * Fraction(1, 725760)
    # lambda_2^3 -> 2 lambda_1 lambda_2 lambda_3
    assert hval(3, [], [0, 3, 0]) == Fraction(1, 725760) == 2 * Fraction(1, 1451520)
    # lambda_3^2 = 0
    assert hval(3, [], [0, 0, 2]) == 0
    assert rewrite_lambda(3, (0, 0, 2)) is None


def test_rewrite_genus1_and_2():
    assert rewrite_lambda(1, (2,)) is None
    assert rewrite_lambda(2, (2, 0)) == (2, (0, 1))
    assert rewrite_lambda(2, (0, 2)) is None
    with pytest.raises(GenusOutOfRange):
        rewrite_lambda(4, (0, 0, 0, 0))


def test_rewrite_confluence_random():
    # applying the rules in any admissible order gives the same normal form
    rules = {
        3: [
            (lambda l: l[0] >= 2, lambda l: (Fraction(2), (l[0] - 2, l[1] + 1, l[2]))),
            (lambda l: l[1] >= 2, lambda l: (Fraction(2), (l[0] + 1, l[1] - 2, l[2] + 1))),
            (lambda l: l[2] >= 2, lambda l: (None, None)),
        ],
        2: [
            (lambda l: l[0] >= 2, lambda l: (Fraction(2), (l[0] - 2, l[1] + 1))),
            (lambda l: l[1] >= 2, lambda l: (None, None)),
        ],
        1: [(lambda l: l[0] >= 2, lambda l: (None, None))],
    }
    rng = random.Random(23)
    keys = [lam for g in (1, 2, 3) for lam in itertools.product(range(6), repeat=g)]
    assert len(keys) == 258
    for lam in keys:
        g = len(lam)
        for _ in range(4):
            coeff = Fraction(1)
            cur = lam
            while True:
                applicable = [r for r in rules[g] if r[0](cur)]
                if not applicable:
                    random_nf = (coeff, cur)
                    break
                cond, act = rng.choice(applicable)
                c, new = act(cur)
                if c is None:
                    random_nf = None
                    break
                coeff *= c
                cur = new
            assert rewrite_lambda(g, lam) == random_nf, lam


def test_relation_rewrite_monomial():
    c, lam = rewrite_lambda(3, H(3, [1], [6, 0, 0]).lam)
    assert c == 16 and lam == (1, 1, 1)


# -- table-backed values -------------------------------------------------------

def test_table_anchor_values():
    assert hval(2, [], [3, 0]) == Fraction(1, 2880)
    assert hval(2, [3], [1, 0]) == Fraction(1, 480)
    assert hval(3, [6], [1, 0, 0]) == Fraction(7, 138240)
    assert hval(1, [0], [1]) == Fraction(1, 24)


def test_dilaton_bridge_table3_vs_table1():
    # one-point genus-3 monomials with a single psi reduce by the dilaton
    # factor 2g - 2 = 4 to the unpointed entries
    pairs = [
        ([6, 0, 0], Fraction(1, 90720)),
        ([4, 1, 0], Fraction(1, 181440)),
        ([3, 0, 1], Fraction(1, 725760)),
        ([2, 2, 0], Fraction(1, 362880)),
        ([1, 1, 1], Fraction(1, 1451520)),
        ([0, 3, 0], Fraction(1, 725760)),
        ([0, 0, 2], Fraction(0)),
    ]
    for lam, t1 in pairs:
        assert hval(3, [1], lam) == 4 * t1


def test_dilaton_and_string_stripping():
    # <psi_1 lambda_1 lambda_2> via dilaton = 2 <lambda_1 lambda_2>
    assert hval(2, [1], [1, 1]) == Fraction(1, 2880)
    # <psi_2^5> on the 2-pointed genus-2 space via string
    assert hval(2, [0, 5], [0, 0]) == Fraction(1, 1152)
    assert hval(3, [0, 8], [0, 0, 0]) == Fraction(1, 82944)
    # mixed string with lambda present
    assert hval(1, [0, 1], [1]) == Fraction(1, 24)


def test_an_unstable_space_is_rejected():
    # lambda_1 on DM(1, 0): the lambda_g formula relies on n >= 1
    with pytest.raises(UnstableInput):
        HodgeMonomial(1, 0, (), (1,))


def test_dimension_gate_and_unknown():
    assert hval(3, [0], [7, 0, 0]) == 0  # degree mismatch
    with pytest.raises(UnknownMonomial):
        hval(2, [2, 2], [1, 0])  # balanced, residual, not in tables


def test_agrees_with_psi_recursion():
    for g, psi in [(2, (4,)), (2, (3, 2)), (3, (7,)), (1, (1,)), (0, (0, 0, 0))]:
        assert hval(g, list(psi), [0] * g) == psi_intersect(PsiKey(g, psi))


def test_agrees_with_psi_recursion_sweep():
    # every balanced pure-psi monomial with few points dispatches identically
    import itertools

    for g in range(4):
        for n in range(1, 4):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for psi in itertools.combinations_with_replacement(range(dim + 1), n):
                if sum(psi) != dim:
                    continue
                assert hval(g, list(psi), [0] * g) == psi_intersect(PsiKey(g, psi))


def test_every_table_entry_rederives_through_the_pipeline():
    # evaluating each shipped monomial must reproduce its stored value:
    # normal forms by lookup, non-normal ones through the relations, pure-psi
    # columns through the independent recursion, strippable ones through
    # string/dilaton
    path = Path(hodge.__file__).parent / "data" / "tables" / "dm_intersections.json"
    entries = json.loads(path.read_text())["entries"]
    assert len(entries) == 32
    for e in entries:
        m = HodgeMonomial(e["g"], e["n"], tuple(e["psi"]), tuple(e["lambda"]))
        assert hodge_intersect(m) == Fraction(e["value"])


def _top_degree_keys(max_genus, max_points):
    """(g, n, descending psi, lambda) of every top-degree monomial."""
    import itertools

    for g in range(max_genus + 1):
        for n in range(max_points + 1):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for lam in itertools.product(*(range(dim // i + 1) for i in range(1, g + 1))):
                rest = dim - sum(i * e for i, e in enumerate(lam, start=1))
                for psi in itertools.combinations_with_replacement(range(rest, -1, -1), n):
                    if sum(psi) == rest:
                        yield g, n, psi, lam


def test_every_key_next_to_an_unstable_space_is_table_free():
    # _eval_uncached strips a point without checking that the result is
    # stable; that is safe because every top-degree key with 2g - 2 + n = 1
    # (DM(0, 3), and psi or lambda_1 on DM(1, 1)) has a table-free route
    keys = [key for key in _top_degree_keys(1, 3) if 2 * key[0] - 2 + key[1] == 1]
    assert len(keys) == 3
    for g, _, psi, lam in keys:
        assert hodge._table_free(g, psi, lam) is not None, (g, psi, lam)


def test_every_lambda_g_key_is_the_lambda_g_formula():
    # int psi^a lambda_g = multinom(2g-3+n; a) b_g, b_g typed from
    # (t/2)/sin(t/2) = 1 + t^2/24 + 7t^4/5760 + 31t^6/967680 + ...
    from math import factorial, prod

    b = {1: Fraction(1, 24), 2: Fraction(7, 5760), 3: Fraction(31, 967680)}
    hodge._HODGE_MEMO.clear()
    keys = [k for k in _top_degree_keys(3, 6) if k[0] and k[3] == (0,) * (k[0] - 1) + (1,)]
    assert len(keys) == 122
    for g, n, psi, lam in keys:
        multinomial = factorial(sum(psi)) // prod(factorial(a) for a in psi)
        assert hodge_intersect(HodgeMonomial(g, n, psi, lam)) == multinomial * b[g]


def test_every_top_degree_key_is_pinned():
    # sha256 over the value or the error of every top-degree monomial with
    # g <= 3 and n <= 6, from an empty memo: pins the lambda_g formula, the
    # string/dilaton stripping, the relations and the table lookup together
    import hashlib

    hodge._HODGE_MEMO.clear()
    lines = []
    for g, n, psi, lam in _top_degree_keys(3, 6):
        try:
            outcome = str(hodge_intersect(HodgeMonomial(g, n, psi, lam)))
        except UnknownMonomial as exc:
            outcome = f"UnknownMonomial: {exc}"
        lines.append(f"{g} {n} {list(psi)} {list(lam)} {outcome}\n")
    assert len(lines) == 2159
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "7bd66c5261f4cece1c5f25f853279151ab80680f76c7e9e84204a4baf85a6b04"


# -- mumford products ----------------------------------------------------------

def test_mumford_products():
    w = A1 - A2
    assert mumford_product_check(2, w)
    assert mumford_product_check(3, w)
    assert mumford_product_check(1, w)
    assert mumford_product_check(2, A1)
    assert mumford_product_check(3, A1)


def test_mumford_check_runs_the_ring_twist(monkeypatch):
    # a twist that leaves out lambda_g no longer collapses to +-w^(2g)
    real_twist = ring.hodge_twist

    def twist_without_top(base, factor, weights):
        out = TautClass.one(base)
        _, lam_g = base.spans[factor]  # lambda_g is the factor's last slot
        for w in weights:
            side = real_twist(base, factor, [w])
            side = TautClass(base, {m: c for m, c in side.terms.items() if m[lam_g - 1] == 0})
            out = out * side
        return out

    w = A1 - A2
    monkeypatch.setattr(ring, "hodge_twist", twist_without_top)
    assert not mumford_product_check(2, w)
    assert not mumford_product_check(3, w)


# -- rubber oracle ---------------------------------------------------------------

def test_rubber_values():
    assert rubber_intersect(RubberKey(2, 0, (3, 0))) == Fraction(1, 1440)
    assert rubber_intersect(RubberKey(2, 1, (2, 0))) == Fraction(1, 576)
    assert rubber_intersect(RubberKey(3, 2, (0, 0, 1))) == Fraction(1, 82944)
    assert rubber_intersect(RubberKey(3, 2, (3, 0, 0))) == Fraction(1, 13824)
    assert rubber_intersect(RubberKey(1, 0, (1,))) == Fraction(1, 24)
    assert rubber_intersect(RubberKey(0, 2, (), n=3)) == 1


def test_rubber_psi_vanishing_and_gate():
    assert rubber_intersect(RubberKey(2, 3, (0, 0))) == 0   # psi^2 kills it
    assert rubber_intersect(RubberKey(1, 1, (0,))) == 0
    assert rubber_intersect(RubberKey(2, 0, (1, 0))) == 0   # degree < dim
    assert rubber_intersect(RubberKey(3, 2, (0, 1, 1))) == 0  # degree 7 != 5


def test_rubber_normalization_routes_to_table():
    # lambda_1 lambda_2 -> lambda_1^3 / 2 on the genus-2 rubber
    assert rubber_intersect(RubberKey(2, 0, (1, 1))) == Fraction(1, 2880)
    # psi lambda_2 -> psi lambda_1^2 / 2
    assert rubber_intersect(RubberKey(2, 1, (0, 1))) == Fraction(1, 1152)
    # lambda_1^2 lambda_3 -> lambda_1^5 / 8 on the genus-3 rubber
    assert rubber_intersect(RubberKey(3, 0, (2, 0, 1))) == Fraction(1, 11340) / 8


def test_rubber_table_consistency_with_hodge_oracle():
    # the shipped values re-derive from their defining identities
    assert rubber_intersect(RubberKey(2, 0, (3, 0))) == 2 * hval(2, [], [3, 0])
    assert rubber_intersect(RubberKey(2, 1, (2, 0))) == hval(1, [0], [1]) ** 2
    assert rubber_intersect(RubberKey(3, 0, (5, 0, 0))) == hval(3, [2], [5, 0, 0]) - hval(3, [1], [6, 0, 0])
    assert rubber_intersect(RubberKey(3, 1, (4, 0, 0))) == 8 * hval(1, [0], [1]) * hval(2, [], [3, 0])
    assert rubber_intersect(RubberKey(3, 2, (3, 0, 0))) == hval(1, [0], [1]) ** 3
    assert rubber_intersect(RubberKey(3, 2, (0, 0, 1))) == hval(1, [0], [1]) ** 3 / 6


def test_rubber_unknown_key():
    # the genus 1..3 tables are closed under normalization; only unlisted
    # genus-0 point counts can be unknown
    with pytest.raises(UnknownRubberKey):
        rubber_intersect(RubberKey(0, 11, (), n=12))
    with pytest.raises(UnknownRubberKey):
        rubber_intersect(RubberKey(0, 1, (), n=2))
    # normalization routes an off-table monomial into the table
    assert rubber_intersect(RubberKey(3, 1, (1, 0, 1))) == Fraction(1, 8) * Fraction(1, 8640)


def _table_copy(tmp_path, monkeypatch, name, *extra):
    """A data root whose table ``name`` has the given entries appended."""
    data = tmp_path / "data"
    shutil.copytree(Path(hodge.__file__).parent / "data", data)
    table = data / "tables" / name
    payload = json.loads(table.read_text())
    payload["entries"].extend(extra)
    table.write_text(json.dumps(payload))
    monkeypatch.setenv("GWVERIFY_DATA_DIR", str(data))
    hodge.reset_tables()
    return len(payload["entries"]) - len(extra)


@pytest.fixture
def restore_tables():
    yield
    hodge.reset_tables()


def test_rubber_keys_are_normalised_on_load(tmp_path, monkeypatch, restore_tables):
    # lambda_1 lambda_2 = lambda_1^3 / 2, and lambda_2^2 = 0 on the genus-2 rubber
    _table_copy(
        tmp_path,
        monkeypatch,
        "rubber.json",
        {"g": 2, "n": 0, "psi": 0, "lambda": [1, 1], "value": "1/2880"},
        {"g": 2, "n": 0, "psi": 0, "lambda": [0, 2], "value": "0"},
    )
    table = hodge._table("rubber.json")
    # the shipped lambda_1^3 entry 1/1440 is stored on its normal form
    assert table[(2, 0, 0, (1, 1))] == Fraction(1, 2880)
    assert (2, 0, 0, (3, 0)) not in table and (2, 0, 0, (0, 2)) not in table
    assert rubber_intersect(RubberKey(2, 0, (3, 0))) == Fraction(1, 1440)


def test_rubber_entry_in_the_relation_ideal_is_a_schema_error(
    tmp_path, monkeypatch, restore_tables
):
    first = _table_copy(
        tmp_path,
        monkeypatch,
        "rubber.json",
        {"g": 2, "n": 0, "psi": 0, "lambda": [0, 2], "value": "1/5"},
    )
    with pytest.raises(SchemaError, match=rf"rubber\.json: entries\[{first}\]: .*relation ideal"):
        rubber_intersect(RubberKey(2, 0, (3, 0)))


def test_rubber_entries_that_disagree_are_a_schema_error(
    tmp_path, monkeypatch, restore_tables
):
    # lambda_1 lambda_2 normalises onto the lambda_1^3 entry, at half its value
    first = _table_copy(
        tmp_path,
        monkeypatch,
        "rubber.json",
        {"g": 2, "n": 0, "psi": 0, "lambda": [1, 1], "value": "1/1440"},
    )
    with pytest.raises(SchemaError, match=rf"rubber\.json: entries\[{first}\]: .*entries\[9\]"):
        rubber_intersect(RubberKey(2, 0, (3, 0)))


def test_dm_rows_that_disagree_are_a_schema_error(tmp_path, monkeypatch, restore_tables):
    # lambda_1^4 lambda_2 = 8 lambda_1 lambda_2 lambda_3; the first row on that
    # normal form is lambda_1^6 = 1/90720 (entries[3]), which gives 8/181440
    first = _table_copy(
        tmp_path,
        monkeypatch,
        "dm_intersections.json",
        {"g": 3, "n": 0, "psi": [], "lambda": [4, 1, 0], "value": "1/181441"},
    )
    with pytest.raises(
        SchemaError, match=rf"dm_intersections\.json: entries\[{first}\]: .*entries\[3\]"
    ):
        hval(3, [], [1, 1, 1])


def test_dm_row_in_the_relation_ideal_is_a_schema_error(tmp_path, monkeypatch, restore_tables):
    first = _table_copy(
        tmp_path,
        monkeypatch,
        "dm_intersections.json",
        {"g": 3, "n": 0, "psi": [], "lambda": [0, 0, 2], "value": "1/5"},
    )
    with pytest.raises(
        SchemaError, match=rf"dm_intersections\.json: entries\[{first}\]: .*relation ideal"
    ):
        hval(3, [], [1, 1, 1])


def test_each_table_is_read_on_first_use(tmp_path, monkeypatch, restore_tables):
    _table_copy(tmp_path, monkeypatch, "rubber.json")
    tables = tmp_path / "data" / "tables"
    (tables / "rubber.json").unlink()
    assert hval(3, [], [6, 0, 0]) == Fraction(1, 90720)
    (tables / "dm_intersections.json").unlink()
    (tables / "rubber.json").write_text(
        (Path(hodge.__file__).parent / "data" / "tables" / "rubber.json").read_text()
    )
    hodge.reset_tables()
    assert rubber_intersect(RubberKey(2, 0, (3, 0))) == Fraction(1, 1440)
    # a lambda_g key, and a single-lambda_j key on DM(g, 1), reads no table
    assert hval(3, [3, 2], [0, 0, 1]) == Fraction(31, 96768)
    assert hval(3, [6], [1, 0, 0]) == Fraction(7, 138240)
    assert hval(2, [3], [1, 0]) == Fraction(1, 480)


@pytest.mark.parametrize(
    "name, row, query",
    [
        (
            "dm_intersections.json",
            {"g": 1, "n": 1, "psi": 1, "lambda": [0], "value": "1/24"},
            lambda: hval(3, [], [1, 1, 1]),
        ),
        (
            "rubber.json",
            {"g": 1, "n": 0, "psi": [0], "lambda": [1], "value": "1/24"},
            lambda: rubber_intersect(RubberKey(2, 0, (3, 0))),
        ),
    ],
)
def test_a_row_with_the_other_tables_psi_is_a_schema_error(
    tmp_path, monkeypatch, restore_tables, name, row, query
):
    first = _table_copy(tmp_path, monkeypatch, name, row)
    with pytest.raises(SchemaError, match=rf"{name}: entries\[{first}\]"):
        query()


def _rows(*rows):
    """A reshape that appends ``rows`` to the table's entries."""
    return lambda payload: {**payload, "entries": payload["entries"] + list(rows)}


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda payload: payload["entries"], r": a table must be an object, not an array"),
        (lambda payload: {**payload, "entries": {}}, r": entries must be an array, not an object"),
        (_rows(1), r": entries\[32\]: a row must be an object, not a number"),
        (
            _rows({"g": 1, "n": 1, "psi": [0], "lambda": [1], "value": 0.5}),
            r": entries\[32\]: value must be a string, not a number",
        ),
        # int() would read these as DM(2, 1) and psi_1^4
        (
            _rows({"g": 2.9, "n": 1, "psi": [4], "lambda": [0, 0], "value": "1/1152"}),
            r": entries\[32\]: g must be an integer, not 2\.9",
        ),
        (
            _rows({"g": 2, "n": 1, "psi": ["4"], "lambda": [0, 0], "value": "1/1152"}),
            r": entries\[32\]: psi must be an integer, not a string",
        ),
    ],
)
def test_a_table_of_the_wrong_shape_is_a_schema_error(
    tmp_path, monkeypatch, restore_tables, reshape, message
):
    _table_copy(tmp_path, monkeypatch, "dm_intersections.json")
    table = tmp_path / "data" / "tables" / "dm_intersections.json"
    table.write_text(json.dumps(reshape(json.loads(table.read_text()))))
    with pytest.raises(SchemaError, match=rf"dm_intersections\.json{message}"):
        hval(2, [], [3, 0])


def test_a_pure_psi_row_off_the_recursion_is_a_schema_error(
    tmp_path, monkeypatch, restore_tables
):
    # no query reads psi_1^4 on DM(2, 1), so only the load compares it
    _table_copy(tmp_path, monkeypatch, "dm_intersections.json")
    table = tmp_path / "data" / "tables" / "dm_intersections.json"
    payload = json.loads(table.read_text())
    (i,) = (i for i, e in enumerate(payload["entries"]) if e["psi"] == [4] and e["g"] == 2)
    payload["entries"][i]["value"] = "1/576"
    table.write_text(json.dumps(payload))
    with pytest.raises(
        SchemaError,
        match=rf"entries\[{i}\]: psi=\[4\] without lambda has value 1/576, "
        r"but the psi recursion gives 1/1152",
    ):
        hval(2, [], [3, 0])


@pytest.mark.parametrize(
    "g, psi, lam, route, right",
    [
        (2, [3], [1, 0], "the one-point series", "1/480"),
        (3, [4], [0, 0, 1], "the lambda_g formula", "31/967680"),
    ],
)
def test_a_single_lambda_row_off_its_closed_form_is_a_schema_error(
    tmp_path, monkeypatch, restore_tables, g, psi, lam, route, right
):
    # each doubled row passes the other load checks, as no other row shares
    # its normal form; tests/test_cli.py doubles psi_1^6 lambda_1 on DM(3, 1)
    _table_copy(tmp_path, monkeypatch, "dm_intersections.json")
    table = tmp_path / "data" / "tables" / "dm_intersections.json"
    payload = json.loads(table.read_text())
    entries = payload["entries"]
    (i,) = (i for i, e in enumerate(entries) if (e["g"], e["psi"], e["lambda"]) == (g, psi, lam))
    doubled = 2 * Fraction(payload["entries"][i]["value"])
    payload["entries"][i]["value"] = str(doubled)
    table.write_text(json.dumps(payload))
    with pytest.raises(
        SchemaError,
        match=rf"entries\[{i}\]: psi={re.escape(str(psi))} with lambda={re.escape(str(lam))} "
        rf"has value {doubled}, but {route} gives {right}",
    ):
        hval(2, [], [3, 0])
