import random
from collections import Counter
from itertools import product

import pytest

from gwverify import sumformula
from gwverify.errors import ContactMismatch, ResourceBound
from gwverify.sumformula import (
    GUARANTEED,
    GUARANTEED_PRIMARY_ONLY,
    NOT_GUARANTEED,
    BipartiteGraph,
    GraphVertex,
    assemble_example,
    enumerate_graphs,
    example_graphs,
    surviving_graphs,
    thm1_verdict,
    vanishing_filter,
    vir_dim,
)


# -- dimensions -----------------------------------------------------------------

def test_vir_dim_absolute():
    # the projective-line genus-2 setting: dimension 12 over the reals
    assert vir_dim(n=1, g=2, k=2, c1A=2) == 12
    # genus-1 degree-0 with one point
    assert vir_dim(n=7, g=1, k=1, c1A=0) == 2


def test_vir_dim_relative_all_ones():
    assert vir_dim(4, 3, 1, 5, s=[1] * 6, AdotV=6) == vir_dim(4, 3, 1, 5, AdotV=6)
    with pytest.raises(ContactMismatch):
        vir_dim(4, 3, 1, 5, s=[2, 1], AdotV=6)
    with pytest.raises(ContactMismatch, match=r"^contact orders must be positive, got \(3, 0\)$"):
        vir_dim(4, 3, 1, 5, s=(3, 0), AdotV=3)


def test_vir_dim_all_ones_property():
    for n in range(1, 6):
        for g in range(4):
            for AdotV in range(5):
                ones = vir_dim(n, g, 2, 3, s=[1] * AdotV if AdotV else [], AdotV=AdotV)
                assert ones == vir_dim(n, g, 2, 3, AdotV=AdotV)


# -- verdicts ----------------------------------------------------------------------

def test_thm1_verdict_spec_examples():
    assert thm1_verdict(5, 3, A_is_zero=False, kappa_trivial=True).status == GUARANTEED
    v = thm1_verdict(4, 3, A_is_zero=False, kappa_trivial=True)
    assert v.status == NOT_GUARANTEED and v.counter_example == 3
    v = thm1_verdict(1, 2, A_is_zero=False, kappa_trivial=False)
    assert v.status == NOT_GUARANTEED and v.counter_example == 2
    v = thm1_verdict(3, 1, A_is_zero=True, kappa_trivial=True)
    assert v.status == NOT_GUARANTEED and v.counter_example == 1


def test_thm1_verdict_grid():
    for n in range(1, 7):
        for g in range(5):
            for kappa in (True, False):
                for a_zero in (True, False):
                    v = thm1_verdict(n, g, a_zero, kappa)
                    in_18 = (not (g == 1 and a_zero)) and (n - 5) * g * (g - 1) >= 0
                    assert (v.status == GUARANTEED) == in_18
                    if v.status == GUARANTEED_PRIMARY_ONLY:
                        assert kappa and not a_zero and (g == 2 or n != 4)
                    if v.status == NOT_GUARANTEED:
                        assert v.counter_example in (1, 2, 3)
                        if v.counter_example == 1:
                            assert a_zero
                        elif v.counter_example == 2:
                            assert not kappa and 1 <= n <= 4 and g >= 2
                        else:
                            assert kappa and n == 4 and g >= 3


def test_thm1_monotone_in_n():
    # raising n from 4 to 5+ never demotes a trivial-kappa nonzero-A setting
    for g in range(5):
        v4 = thm1_verdict(4, g, A_is_zero=False, kappa_trivial=True)
        for n in (5, 6):
            vn = thm1_verdict(n, g, A_is_zero=False, kappa_trivial=True)
            if v4.status == GUARANTEED:
                assert vn.status == GUARANTEED


# -- graph enumeration ---------------------------------------------------------------

def test_example2_graph_counts():
    for delta in range(1, 13):
        graphs = enumerate_graphs(2, delta, 2, delta)
        # genus budget 2 over the X-vertex and the delta V-vertices:
        # all on X; one V-vertex with 1 or 2; two V-vertices with 1 each
        expected_total = 1 + 2 * delta + delta * (delta - 1) // 2
        assert len(graphs) == expected_total
        surviving = [g for g in graphs if vanishing_filter(g, 1, False, 2)]
        assert len(surviving) == 1 + delta


def test_example3_graph_counts():
    for delta in range(1, 6):
        graphs = enumerate_graphs(3, delta, 1, 1)
        surviving = [g for g in graphs if vanishing_filter(g, 4, True, 3)]
        assert len(surviving) == 2
        # the two survivors: all-basic with X-genus 3, and one genus-3 vertex
        genera = sorted(max((v.genus for v in g.v_vertices), default=0) for g in surviving)
        assert genera == [0, 3]


def test_example_graphs_flag_the_survivors():
    for example, delta, total, surviving in ((2, 3, 10, 4), (3, 5, 147, 2)):
        rows = example_graphs(example, delta)
        assert len(rows) == total
        assert sum(keep for _, keep in rows) == surviving
    with pytest.raises(ValueError):
        example_graphs(1, 3)


def test_example3_graph_totals():
    totals = [len(enumerate_graphs(3, d, 1, 1)) for d in range(1, 13)]
    assert totals == [4, 13, 32, 73, 147, 287, 521, 922, 1563, 2592, 4172, 6602]


def _compositions(total):
    """Ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _brute_force_keys(g, AdotV, k, components):
    """Every graph as an isomorphism-invariant key, from ordered tuples of
    V-vertex decorations (genus, d, labels), one tuple per divisor component."""
    weights = [1] * AdotV if components > 1 else [AdotV]
    per_component = []
    for comp, w in enumerate(weights, start=1):
        tag = comp if components > 1 else 0
        per_component.append([
            tuple((tag, d, ls) for d, ls in zip(loads, labels))
            for loads in _compositions(w)
            for labels in product(*({tuple(sorted(c, reverse=True)) for c in _compositions(d)} for d in loads))
        ])
    keys = set()
    for parts in product(*per_component):
        vertices = [v for part in parts for v in part]
        loops = sum(len(ls) - 1 for _, _, ls in vertices)
        for genera in product(range(g + 1), repeat=len(vertices)):
            x_genus = g - loops - sum(genera)
            if x_genus < 0:
                continue
            decorations = Counter(
                (GraphVertex(gv, d, 0, comp), ls) for (comp, d, ls), gv in zip(vertices, genera)
            )
            keys.add((GraphVertex(x_genus, 1, k), frozenset(decorations.items())))
    return keys


def test_enumeration_matches_brute_force():
    for g in range(4):
        for AdotV in range(1, 7):
            for components in (1, AdotV):
                graphs = enumerate_graphs(g, AdotV, 1, components)
                keys = [
                    (gr.x_vertex, frozenset(Counter(zip(gr.v_vertices, gr.labels)).items()))
                    for gr in graphs
                ]
                assert len(set(keys)) == len(keys), (g, AdotV, components)  # no graph twice
                assert set(keys) == _brute_force_keys(g, AdotV, 1, components), (g, AdotV, components)


def test_v_vertices_come_in_canonical_order():
    # the order the reports print: components ascending; within one,
    # (degree, labels) descending, and genus not decreasing along a run of
    # equal (component, degree, labels); each label tuple descending
    for g in range(4):
        for AdotV in range(9):
            for components in sorted({1, AdotV}):
                for k in range(3):
                    for graph in enumerate_graphs(g, AdotV, k, components):
                        rows = [
                            (v.component, v.degree, ls, v.genus)
                            for v, ls in zip(graph.v_vertices, graph.labels)
                        ]
                        for (c, d, ls, gv), (c2, d2, ls2, gv2) in zip(rows, rows[1:]):
                            assert c <= c2, graph
                            if c == c2:
                                assert (d, ls) >= (d2, ls2), graph
                                assert (d, ls) != (d2, ls2) or gv <= gv2, graph
                        assert all(list(ls) == sorted(ls, reverse=True) for ls in graph.labels)


def test_graphs_come_in_describe_order():
    # the enumerator sorts on tuples of describe fragments; over all 17,382
    # graphs of examples 2 and 3 that is the order of the report text
    checked = 0
    for example in (2, 3):
        for delta in range(1, 13):
            graphs = [graph for graph, _ in example_graphs(example, delta)]
            assert graphs == sorted(graphs, key=BipartiteGraph.describe), (example, delta)
            checked += len(graphs)
    assert checked == 17382


def test_surviving_graphs_match_the_filter():
    for example in (2, 3):
        for delta in range(1, 13):
            pruned = [g.describe() for g in surviving_graphs(example, delta)]
            filtered = [g.describe() for g, keep in example_graphs(example, delta) if keep]
            assert pruned == filtered, (example, delta)


def test_pruned_enumeration_matches_the_filter_under_random_predicates():
    rng = random.Random(20)
    for g in range(4):
        for AdotV in range(9):
            for components in sorted({1, AdotV}):
                for k in range(3):
                    # a random but fixed subset of the vertex decorations
                    share, salt, drawn = rng.choice((0.3, 0.6, 0.9)), rng.random(), {}

                    def keep(vertex, labels):
                        key = (vertex, labels)
                        if key not in drawn:
                            drawn[key] = random.Random(repr((salt, key))).random() < share
                        return drawn[key]

                    full = enumerate_graphs(g, AdotV, k, components)
                    filtered = [gr for gr in full if all(map(keep, gr.v_vertices, gr.labels))]
                    pruned = enumerate_graphs(g, AdotV, k, components, keep=keep)
                    assert pruned == filtered, (g, AdotV, components, k)


def test_assembly_builds_only_the_surviving_graphs(monkeypatch):
    # the assembly must not fall back to enumerating every graph and filtering
    built = []
    enumerate_all = sumformula.enumerate_graphs

    def counting(*args, **kwargs):
        graphs = enumerate_all(*args, **kwargs)
        built.extend(graphs)
        return graphs

    monkeypatch.setattr(sumformula, "enumerate_graphs", counting)
    assert assemble_example(3, 12).status == "PASS"
    assert 0 < len(built) <= 2


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        enumerate_graphs(1, -1, 0, 1)


def test_genus_zero_graphs_are_trees():
    graphs = enumerate_graphs(0, 3, 2, 1)
    for g in graphs:
        assert g.graph_genus == 0 or not vanishing_filter(g, 4, True, 0)
        assert all(v.genus == 0 for v in g.v_vertices)


def test_degree_zero_one_vertex_graphs():
    graphs = enumerate_graphs(1, 0, 1, 1)
    assert len(graphs) == 2
    sides = sorted(("V" if g.v_vertices else "X") for g in graphs)
    assert sides == ["V", "X"]


def test_resource_bound():
    with pytest.raises(ResourceBound):
        enumerate_graphs(4, 1, 0, 1)
    with pytest.raises(ResourceBound):
        enumerate_graphs(2, 13, 0, 1)


def test_filter_rejects_wrong_shapes():
    # a genus-0 vertex with a label-2 edge never contributes
    g = BipartiteGraph(
        GraphVertex(3, 1, 1),
        (GraphVertex(0, 2, 0),),
        ((2,),),
    )
    g.validate(3, 2, 1)
    assert not vanishing_filter(g, 4, True, 3)
    # a top-genus vertex with two edges is rejected
    g2 = BipartiteGraph(
        GraphVertex(1, 1, 1),
        (GraphVertex(3, 2, 0),),
        ((1, 1),),
    )
    # genus budget: 1 + 3 + g_graph(= 2 - 2 + 1 = 1) ... validate against g = 5 is
    # out of enumeration bounds, but the filter is a pure predicate
    assert not vanishing_filter(g2, 4, True, 3)
    # genus-1 vertex under the lemma hypotheses is rejected
    g3 = BipartiteGraph(
        GraphVertex(2, 1, 2),
        (GraphVertex(1, 1, 0),),
        ((1,),),
    )
    assert not vanishing_filter(g3, 1, False, 2)


def test_vertex_rule_and_verdict_disagree_in_one_cell():
    # the single-edge, label-1 top-genus vertex is admitted exactly where the
    # verdict is not_guaranteed, except at n = 4, g = 2 with trivial kappa:
    # there the vertex rule admits it but the verdict is primary-only
    disagree = []
    for n in range(1, 8):
        for g in range(1, 5):
            for kappa in (True, False):
                vertex = GraphVertex(g, 1, 0)
                admitted = sumformula.vertex_contributes(vertex, (1,), n, kappa, g)
                verdict = thm1_verdict(n, g, A_is_zero=False, kappa_trivial=kappa)
                if admitted != (verdict.status == NOT_GUARANTEED):
                    disagree.append((n, g, kappa, verdict.status))
    assert disagree == [(4, 2, True, GUARANTEED_PRIMARY_ONLY)]


# -- assemblies ------------------------------------------------------------------------

def test_example1_report():
    for n in (2, 3, 4):
        for delta in range(1, 6):
            report = assemble_example(1, delta, n=n)
            assert report.status == "PASS", report.to_text()


def test_example1_symbolic_report():
    # the consistency identities also hold with a symbolic degree
    for n in (2, 3, 4):
        report = assemble_example(1, "symbolic", n=n)
        assert report.status == "PASS", report.to_text()


def test_example1_empty_divisor_degenerates():
    # degree 0 models the empty divisor: relative equals absolute
    report = assemble_example(1, 0, n=4)
    assert report.status == "PASS"
    values = {i.label: i.value for i in report.items}
    assert values["absolute j-invariant chi(X)/2"] == values[
        "relative j-invariant (chi(X)-chi(V))/2"
    ]


def test_example2_symbolic_report():
    report = assemble_example(2, "symbolic")
    assert report.status == "PASS", report.to_text()


def test_example2_numeric_reports():
    for delta in range(1, 8):
        report = assemble_example(2, delta)
        assert report.status == "PASS", report.to_text()


def test_example3_symbolic_report():
    report = assemble_example(3, "symbolic")
    assert report.status == "PASS", report.to_text()


def test_example3_numeric_reports():
    for delta in (1, 2, 5):
        report = assemble_example(3, delta)
        assert report.status == "PASS", report.to_text()


def test_example3_numeric_identity_is_checked():
    # at a numeric degree the implied relative invariant is compared with
    # (1.14) at that degree, as example 2 compares it with (1.13)
    label = "implied relative invariant / delta!"
    for delta in range(1, 13):
        report = assemble_example(3, delta)
        (item,) = [i for i in report.items if i.label == label]
        assert item.ok is True, report.to_text()


def _all_partitions(total, max_part=None):
    """Every partition of total, descending: the reference for the bounded
    generator."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part or total), 0, -1):
        for rest in _all_partitions(total - first, first):
            yield (first,) + rest


def test_bounded_partitions_match_the_filtered_full_list():
    for total in range(13):
        for k in range(1, 5):
            expected = [ls for ls in _all_partitions(total) if len(ls) <= k]
            assert list(sumformula._partitions(total, max_len=k)) == expected, (total, k)
