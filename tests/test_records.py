"""The package's record types: construction, equality, hashing, repr,
immutability and the messages that embed a record's repr."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from gwverify.chern import ChernData
from gwverify.errors import NoZeroExponent, UnstableReduction
from gwverify.hodge import HodgeMonomial, RubberKey
from gwverify.localization import FixedLocusSpec, LocalizationProblem, LocusTerm
from gwverify.psi import PsiKey, dilaton_reduce, string_reduce
from gwverify.reports import ReportItem, VerificationReport
from gwverify.ring import (
    BaseSpace,
    DMFactor,
    PointFactor,
    ProjLineFactor,
    RubberFactor,
    TautClass,
)
from gwverify.sumformula import BipartiteGraph, GraphVertex, Verdict

_BASE = BaseSpace((DMFactor(1, 1), ProjLineFactor()))
_ONE = TautClass.one(_BASE)
_SPEC = FixedLocusSpec("a")
_V = GraphVertex(1, 2, 1)

# (class, positional arguments, every field after construction, defaults included)
RECORDS = [
    (PsiKey, (2, (0, 3)), {"genus": 2, "exponents": (3, 0)}),
    (HodgeMonomial, (2, 1, (3,), (1, 0)), {"g": 2, "n": 1, "psi": (3,), "lam": (1, 0)}),
    (RubberKey, (1, 1, (0,)), {"g": 1, "psi": 1, "lam": (0,), "n": 0}),
    (DMFactor, (1, 2), {"g": 1, "n": 2}),
    (ProjLineFactor, (), {}),
    (PointFactor, (), {}),
    (RubberFactor, (2,), {"g": 2, "n": 0}),
    (BaseSpace, ((DMFactor(1, 1),),), {"factors": (DMFactor(1, 1),)}),
    (
        LocusTerm,
        (_BASE, Fraction(1, 2), _ONE, _ONE, _ONE),
        {"base": _BASE, "multiplicity": Fraction(1, 2), "insertion": _ONE,
         "obstruction": _ONE, "deformation": _ONE},
    ),
    (
        FixedLocusSpec,
        ("a",),
        {"label": "a", "source": "", "vanishes": None, "terms": (), "where": ""},
    ),
    (
        LocalizationProblem,
        ("p", (_SPEC,)),
        {"label": "p", "loci": (_SPEC,), "symmetry_multiplier": Fraction(1),
         "weight_swap": False, "expected": None, "source": ""},
    ),
    (
        ChernData,
        ("P1", 1, (Fraction(1), Fraction(2)), Fraction(1)),
        {"name": "P1", "dim": 1, "total_chern": (Fraction(1), Fraction(2)),
         "degree_map": Fraction(1), "divisor_multiple": None},
    ),
    (GraphVertex, (0, 1, 2), {"genus": 0, "degree": 1, "marks": 2, "component": 0}),
    (BipartiteGraph, (None, (_V,), ((2,),)), {"x_vertex": None, "v_vertices": (_V,), "labels": ((2,),)}),
    (Verdict, ("guaranteed",), {"status": "guaranteed", "counter_example": None}),
    (ReportItem, ("x", "1"), {"label": "x", "value": "1", "citation": "", "expected": None}),
    (VerificationReport, ("cmd",), {"command": "cmd", "items": [], "error": None}),
]

FROZEN = [cls for cls, _, _ in RECORDS if cls not in (ReportItem, VerificationReport)]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_positional_and_keyword_construction(cls, args, fields):
    names = list(fields)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    every_field = cls(**fields)
    for record in (by_position, by_keyword, every_field):
        assert {name: getattr(record, name) for name in names} == fields
    if cls is not FixedLocusSpec:
        assert by_position == by_keyword == every_field
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]} if names else {"extra": 1})


def test_reprs_in_field_order():
    assert repr(PsiKey(2, (1, 3))) == "PsiKey(genus=2, exponents=(3, 1))"
    assert repr(HodgeMonomial(3, 2, (2, 1), (1, 0, 1))) == (
        "HodgeMonomial(g=3, n=2, psi=(2, 1), lam=(1, 0, 1))"
    )
    assert repr(GraphVertex(1, 2, 3)) == "GraphVertex(genus=1, degree=2, marks=3, component=0)"
    assert repr(Verdict("not_guaranteed", 2)) == "Verdict(status='not_guaranteed', counter_example=2)"
    assert str(Verdict("not_guaranteed", 2)) == "not_guaranteed (see Example 2)"
    assert repr(ProjLineFactor()) == "ProjLineFactor()"
    # spans and dims are derived, so they stay out of the repr
    assert repr(BaseSpace((DMFactor(1, 1), PointFactor()))) == (
        "BaseSpace(factors=(DMFactor(g=1, n=1), PointFactor()))"
    )
    assert repr(ReportItem("x", "1")) == "ReportItem(label='x', value='1', citation='', expected=None)"


def test_reduction_messages_show_the_key():
    with pytest.raises(NoZeroExponent) as exc:
        string_reduce(PsiKey(1, (1,)))
    assert str(exc.value) == "PsiKey(genus=1, exponents=(1,)) has no psi-free marked point"
    with pytest.raises(UnstableReduction) as exc:
        string_reduce(PsiKey(0, (0, 0, 0)))
    assert str(exc.value) == "removing a point from PsiKey(genus=0, exponents=(0, 0, 0)) is unstable"
    with pytest.raises(UnstableReduction) as exc:
        dilaton_reduce(PsiKey(1, (1,)))
    assert str(exc.value) == "removing a point from PsiKey(genus=1, exponents=(1,)) is unstable"


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_equal_records_are_equal_and_hash_equal(cls, args, fields):
    a, b = cls(*args), cls(*args)
    if cls is FixedLocusSpec:
        return  # compares by identity, below
    assert a == b and not a != b
    if cls is LocusTerm:
        return  # frozen, but its TautClass fields are unhashable
    if cls in FROZEN:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_equality_needs_the_same_class():
    assert ProjLineFactor() != PointFactor()
    assert DMFactor(1, 1) != RubberFactor(1)
    assert DMFactor(2, 1) != RubberFactor(2, 1)
    assert GraphVertex(0, 1, 2) != (0, 1, 2, 0)
    assert PsiKey(1, (1,)) != HodgeMonomial(1, 1, (1,), (0,))
    assert Verdict("guaranteed") != "guaranteed"


def test_base_space_compares_factors_only():
    a = BaseSpace((DMFactor(2, 1), ProjLineFactor()))
    b = BaseSpace((DMFactor(2, 1), ProjLineFactor()))
    assert a == b and hash(a) == hash(b)
    assert a.spans == ((0, 3), (3, 4)) and a.dims == (4, 1)
    assert a != BaseSpace((DMFactor(2, 1),))
    assert DMFactor(2, 1).degree((1, 1, 1)) == 4


def test_locus_specs_compare_by_identity_and_key_a_weak_dictionary():
    a, b = FixedLocusSpec("a", "src"), FixedLocusSpec("a", "src")
    assert a != b and a == a
    cache = weakref.WeakKeyDictionary()
    cache[a], cache[b] = 1, 2
    assert (cache[a], cache[b], len(cache)) == (1, 2, 2)
    del b
    gc.collect()
    assert list(cache.values()) == [1]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_frozen_records_refuse_assignment(cls, args, fields):
    record = cls(*args)
    name = next(iter(fields), "anything")
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert {n: getattr(record, n) for n in fields} == fields
    else:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_copy_and_pickle(cls, args, fields):
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        # repr, since specs and classes inside some records do not compare across copies
        assert type(clone) is cls and repr(clone) == repr(record)


def test_report_add_mutates_and_items_are_not_shared():
    first, second = VerificationReport("a"), VerificationReport("b")
    first.add("x", 1, "cite", expected=1)
    assert first.items == [ReportItem("x", "1", "cite", "1")]
    assert second.items == [] and first.status == "PASS"
    first.add("y", Fraction(1, 2), expected="1/3")
    assert first.items[1].ok is False and first.status == "FAIL"
    first.error = "boom"
    assert first.status == "ERROR"
