"""Degeneration-graph combinatorics and the end-to-end identity assemblies.

Covers the decorated bipartite graphs of a symplectic-sum decomposition,
the vanishing filter that reduces them to the contributing ones, expected
dimensions, the guarantee verdict with counter-example pointers, and the
three worked examples assembled from the other modules.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._record import Frozen, set_field
from .chern import (
    degree_correction_genus3,
    euler_char,
    genus1_consistency_alpha,
    genus1_consistency_j,
    gw_genus1_deg0,
    hypersurface,
    projective_space,
)
from .errors import ContactMismatch, ResourceBound
from .hodge import HodgeMonomial, hodge_intersect
from .localization import builtin_problem, problem_total
from .reports import VerificationReport
from .scalars import DeltaPoly, rat_to_str

MAX_GRAPH_GENUS = 3
MAX_GRAPH_WEIGHT = 12


class GraphVertex(Frozen):
    """``degree`` is the homology degree for the X side, the fiber degree
    for the V side; ``component`` is the connected component of the divisor
    (V side)."""

    __slots__ = _fields = ("genus", "degree", "marks", "component")

    def __init__(self, genus: int, degree: int, marks: int, component: int = 0):
        set_field(self, "genus", genus)
        set_field(self, "degree", degree)
        set_field(self, "marks", marks)
        set_field(self, "component", component)


class BipartiteGraph(Frozen):
    """One decorated degeneration graph: at most one X-vertex joined to
    V-vertices by edges with positive contact labels (grouped per V-vertex,
    each group sorted descending).  A degree-0 configuration that sinks
    entirely into the divisor has no X-vertex at all."""

    __slots__ = _fields = ("x_vertex", "v_vertices", "labels")

    def __init__(
        self,
        x_vertex: Optional[GraphVertex],
        v_vertices: tuple[GraphVertex, ...],
        labels: tuple[tuple[int, ...], ...],
    ):
        set_field(self, "x_vertex", x_vertex)
        set_field(self, "v_vertices", v_vertices)
        set_field(self, "labels", labels)

    @property
    def edge_count(self) -> int:
        return sum(len(ls) for ls in self.labels)

    @property
    def vertex_count(self) -> int:
        return (1 if self.x_vertex else 0) + len(self.v_vertices)

    @property
    def graph_genus(self) -> int:
        return self.edge_count - self.vertex_count + 1

    @property
    def total_genus(self) -> int:
        x_genus = self.x_vertex.genus if self.x_vertex else 0
        return x_genus + sum(v.genus for v in self.v_vertices) + self.graph_genus

    def validate(self, g: int, AdotV: int, k: int) -> None:
        if self.total_genus != g:
            raise ValueError(f"genus budget violated: {self.total_genus} != {g}")
        x_marks = self.x_vertex.marks if self.x_vertex else 0
        if x_marks + sum(v.marks for v in self.v_vertices) != k:
            raise ValueError("marked points not conserved")
        if sum(sum(ls) for ls in self.labels) != AdotV:
            raise ValueError("edge labels do not sum to the intersection number")
        for v, ls in zip(self.v_vertices, self.labels):
            if sum(ls) != v.degree:
                raise ValueError("fiber degree does not match incident labels")
            if any(s < 1 for s in ls):
                raise ValueError("edge labels must be positive")

    def describe(self) -> str:
        bits = []
        if self.x_vertex:
            bits.append(
                f"X(g={self.x_vertex.genus},A={self.x_vertex.degree},k={self.x_vertex.marks})"
            )
        for v, ls in zip(self.v_vertices, self.labels):
            comp = f"@{v.component}" if v.component else ""
            bits.append(f"V{comp}(g={v.genus},d={v.degree},s={list(ls)})")
        return " | ".join(bits)


# ---------------------------------------------------------------------------
# dimensions and verdicts
# ---------------------------------------------------------------------------

def _check_setting(n: int, g: int, k: int = 0, AdotV: int = 0) -> None:
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n}")
    if k < 0:
        raise ValueError(f"marked point count must be nonnegative, got {k}")
    if AdotV < 0:
        raise ValueError("A.V must be nonnegative")


def vir_dim(
    n: int, g: int, k: int, c1A: int, s: Optional[Sequence[int]] = None, AdotV: int = 0
) -> int:
    """Expected real dimension of the (relative) moduli space."""
    _check_setting(n, g, k, AdotV)
    base = c1A + (n - 3) * (1 - g) + k
    if s is None:
        return 2 * base
    s = tuple(s)
    if any(si < 1 for si in s):
        raise ContactMismatch(f"contact orders must be positive, got {s}")
    if sum(s) != AdotV:
        raise ContactMismatch(f"contact vector {s} does not sum to {AdotV}")
    return 2 * (base + len(s) - sum(s))


GUARANTEED = "guaranteed"
GUARANTEED_PRIMARY_ONLY = "guaranteed_primary_only"
NOT_GUARANTEED = "not_guaranteed"


class Verdict(Frozen):
    __slots__ = _fields = ("status", "counter_example")

    def __init__(self, status: str, counter_example: Optional[int] = None):
        set_field(self, "status", status)
        set_field(self, "counter_example", counter_example)

    def __str__(self) -> str:
        if self.counter_example is None:
            return self.status
        return f"{self.status} (see Example {self.counter_example})"


def lemma_applies(n: int, g: int, A_is_zero: bool) -> bool:
    """The hypotheses of the vanishing lemma: (g, A) != (1, 0) and
    (n-5)g(g-1) >= 0.  Where they hold the comparison is guaranteed, and a
    top-genus divisor vertex of that genus and degree vanishes."""
    return not (g == 1 and A_is_zero) and (n - 5) * g * (g - 1) >= 0


def thm1_verdict(n: int, g: int, A_is_zero: bool, kappa_trivial: bool) -> Verdict:
    """Does the absolute/relative comparison hold in dimension n and genus g?

    guaranteed where :func:`lemma_applies`; otherwise guaranteed for
    primary insertions when kappa is trivial, A != 0, and g = 2 or n != 4;
    otherwise not guaranteed, pointing at the counter-example family for
    the failing regime.
    """
    _check_setting(n, g)
    if lemma_applies(n, g, A_is_zero):
        return Verdict(GUARANTEED)
    if kappa_trivial and not A_is_zero and (g == 2 or n != 4):
        return Verdict(GUARANTEED_PRIMARY_ONLY)
    if A_is_zero:
        return Verdict(NOT_GUARANTEED, counter_example=1)
    if not kappa_trivial:
        return Verdict(NOT_GUARANTEED, counter_example=2)
    return Verdict(NOT_GUARANTEED, counter_example=3)


# ---------------------------------------------------------------------------
# graph enumeration and filtering
# ---------------------------------------------------------------------------

def _partitions(total: int, max_len: int, max_part: Optional[int] = None):
    """Partitions of total into at most max_len parts, as descending tuples.
    A first part below total / max_len leaves too much for the other parts,
    so it is never tried."""
    if total == 0:
        yield ()
        return
    if max_part is None:
        max_part = total
    for first in range(min(total, max_part), -(-total // max_len) - 1, -1):
        for rest in _partitions(total - first, max_len - 1, first):
            yield (first,) + rest


def enumerate_graphs(
    g: int,
    AdotV: int,
    k: int,
    components: int,
    keep: Optional[Callable[[GraphVertex, tuple[int, ...]], bool]] = None,
) -> list[BipartiteGraph]:
    """All decorated bipartite graphs for the setting, up to isomorphism,
    each generated once.  The X-vertex has degree one and carries every
    marked point.  The divisor is connected when components is 1; otherwise
    it has A.V components, each met with weight one, which stay
    distinguishable.

    Each component has one list of V-vertex types (vertex, labels, cost),
    degree and labels descending, then genus ascending; the cost gv + e - 1
    of a genus-gv vertex with e labels is its genus plus the loops it
    closes.  One recursion draws a multiset of types per component, in list
    order, from one shared genus budget; the X-vertex takes what is left.
    A predicate ``keep(vertex, labels)`` filters the type lists once, so
    only the graphs whose every V-vertex passes it are built, in the same
    order as in the full list."""
    if AdotV < 0:
        raise ValueError("A.V must be nonnegative")
    if g > MAX_GRAPH_GENUS or AdotV > MAX_GRAPH_WEIGHT:
        raise ResourceBound(
            f"graph enumeration bounded by g <= {MAX_GRAPH_GENUS}, "
            f"A.V <= {MAX_GRAPH_WEIGHT}"
        )
    if AdotV == 0:
        # the two one-vertex graphs: everything on one side or the other
        out = [
            BipartiteGraph(GraphVertex(g, 0, k), (), ()),
            BipartiteGraph(None, (GraphVertex(g, 0, k),), ((),)),
        ]
        if keep is not None:
            out = [graph for graph in out if all(map(keep, graph.v_vertices, graph.labels))]
        for graph in out:
            graph.validate(g, 0, k)
        return out
    if components > 1:
        if AdotV != components:
            raise ValueError("disconnected divisors carry weight one per component")
        weights = [1] * components
        comps = range(1, components + 1)
    else:
        weights = [AdotV]
        comps = [0]
    types: list[list] = []
    for w, comp in zip(weights, comps):
        types.append([])
        for d in range(w, 0, -1):
            by_genus = [GraphVertex(gv, d, 0, comp) for gv in range(g + 1)]
            # e labels close e - 1 loops: at most g + 1 labels, genus <= g + 1 - e
            types[-1] += [
                (vertex, labels, vertex.genus + len(labels) - 1)
                for labels in _partitions(d, max_len=g + 1)
                for vertex in by_genus[: g + 2 - len(labels)]
                if keep is None or keep(vertex, labels)
            ]
    graphs: list[BipartiteGraph] = []

    def draw(c, start, left, budget, vertices, labels):
        # component c is full when left is 0 (c = -1 starts the first); no
        # draw takes a type before the last one, so each multiset comes once
        if left == 0:
            c += 1
            if c == len(types):
                graphs.append(BipartiteGraph(GraphVertex(budget, 1, k), vertices, labels))
                return
            start, left = 0, weights[c]
        for i in range(start, len(types[c])):
            vertex, ls, cost = types[c][i]
            if vertex.degree <= left and cost <= budget:
                draw(c, i, left - vertex.degree, budget - cost, vertices + (vertex,), labels + (ls,))

    draw(-1, 0, 0, g, (), ())
    graphs.sort(key=BipartiteGraph.describe)
    for graph in graphs:
        graph.validate(g, AdotV, k)
    return graphs


def vertex_contributes(
    vertex: GraphVertex, labels: tuple[int, ...], n: int, kappa_trivial: bool, g_top: int
) -> bool:
    """The vanishing rule for one V-vertex: it contributes iff it is the basic
    (0, 1, 0, (1)) vertex or the single admissible top-genus vertex of the
    counter-example regime."""
    if vertex.genus == 0 and vertex.degree == 1 and vertex.marks == 0 and labels == (1,):
        return True  # the basic vertex
    if vertex.genus == 0:
        return False  # wrong-shape genus-0 vertex never contributes
    if vertex.genus < g_top:
        return False  # intermediate genera vanish
    if vertex.genus > g_top:
        return False
    # the exceptional top-genus vertex must have the single-edge,
    # label-1, no-marks shape ...
    if labels != (1,) or vertex.marks != 0:
        return False
    # ... and is admitted only where the vanishing lemma's hypotheses
    # fail for (g_v, d_v) and the regime matches a counter-example
    if lemma_applies(n, vertex.genus, vertex.degree == 0):
        return False
    return not (kappa_trivial and n != 4)


def vanishing_filter(
    graph: BipartiteGraph, n: int, kappa_trivial: bool, g_top: int
) -> bool:
    """Keep the graph iff every V-vertex passes :func:`vertex_contributes`."""
    return all(
        vertex_contributes(v, labels, n, kappa_trivial, g_top)
        for v, labels in zip(graph.v_vertices, graph.labels)
    )


def _example_setting(example_id: int, delta: int) -> tuple[int, int, int, bool, int]:
    """(g, k, n, kappa_trivial, components) of worked example 2 (genus 2,
    two marks, delta divisor points, kappa nontrivial, n = 1) or 3 (genus 3,
    one mark, a connected divisor of degree delta, kappa trivial, n = 4)."""
    if example_id == 2:
        return 2, 2, 1, False, delta
    if example_id == 3:
        return 3, 1, 4, True, 1
    raise ValueError(f"degeneration graphs exist for examples 2 and 3, not {example_id}")


def example_graphs(example_id: int, delta: int) -> list[tuple[BipartiteGraph, bool]]:
    """Every degeneration graph of worked example 2 or 3, each paired with
    whether it survives the vanishing filter."""
    g, k, n, kappa_trivial, components = _example_setting(example_id, delta)
    return [
        (graph, vanishing_filter(graph, n, kappa_trivial, g_top=g))
        for graph in enumerate_graphs(g, delta, k, components)
    ]


def surviving_graphs(example_id: int, delta: int) -> list[BipartiteGraph]:
    """The graphs of :func:`example_graphs` that survive the vanishing
    filter, in the same order; the vanishing ones are never built."""
    g, k, n, kappa_trivial, components = _example_setting(example_id, delta)
    return enumerate_graphs(
        g,
        delta,
        k,
        components,
        keep=lambda vertex, labels: vertex_contributes(vertex, labels, n, kappa_trivial, g),
    )


# ---------------------------------------------------------------------------
# the three worked examples
# ---------------------------------------------------------------------------

# The paper's closed forms: the absolute invariants, the genus-3 correction
# term, and the degree identities (1.13) and (1.14), as polynomials in delta.
DELTA = DeltaPoly.delta()
GENUS2_ABSOLUTE = Fraction(1, 240)
IDENTITY_1_13 = GENUS2_ABSOLUTE - DELTA / 1152
GENUS3_ABSOLUTE = Fraction(-37, 82944)
GENUS3_CORRECTION = DELTA * (DELTA * DELTA - 5 * DELTA + 8) / 72576
IDENTITY_1_14 = GENUS3_ABSOLUTE - GENUS3_CORRECTION


def _printer(delta):
    """How an example prints a polynomial in delta: the polynomial itself,
    or its value at the numeric degree."""
    if delta == "symbolic":
        return str
    return lambda value: rat_to_str(value(int(delta)))


def assemble_example_1(n: int, delta) -> VerificationReport:
    """Genus-1 degree-0 consistency identities for a hypersurface in
    projective space; a polynomial identity when the degree is symbolic."""
    report = VerificationReport(command=f"verify example 1 (n={n}, delta={delta})")
    show = _printer(delta)
    X = projective_space(n)
    V = hypersurface(n, DELTA)
    report.add("chi(X)", rat_to_str(euler_char(X)), "Euler characteristic")
    report.add("chi(V)", show(euler_char(V)), "Euler characteristic")
    report.add(
        "absolute j-invariant chi(X)/2",
        rat_to_str(gw_genus1_deg0(X, None, "j")),
        "(1.11) first equality",
    )
    report.add(
        "relative j-invariant (chi(X)-chi(V))/2",
        show(gw_genus1_deg0(X, V, "j")),
        "(1.11) second equality",
    )
    lhs, rhs = genus1_consistency_j(X, V)
    report.add(
        "degeneration consistency, j insertion",
        show(rhs),
        "(4.12)",
        expected=rat_to_str(lhs),
    )
    report.add(
        "absolute alpha-invariant",
        rat_to_str(gw_genus1_deg0(X, None, ("alpha", 1))),
        "(1.12) first equality",
    )
    report.add(
        "relative alpha-invariant",
        show(gw_genus1_deg0(X, V, ("alpha", 1))),
        "(1.12) second equality",
    )
    lhs, rhs = genus1_consistency_alpha(X, V)
    report.add(
        "degeneration consistency, alpha insertion",
        show(rhs),
        "(4.13)",
        expected=rat_to_str(lhs),
    )
    return report


def _graph_items(report, example_id, delta, expected_count):
    surviving = surviving_graphs(example_id, delta)
    report.add(
        "surviving degeneration graphs",
        str(len(surviving)),
        "graph case analysis",
        expected=str(expected_count),
    )
    for i, graph in enumerate(surviving, start=1):
        report.add(f"graph {i}", graph.describe(), "contributing configuration")


def _degree_identity_items(
    report, delta, correction, absolute_problem, absolute_value, absolute_source,
    identity, identity_source, relative_problem, relative_source,
):
    """What the identities (1.13) and (1.14) share: the absolute invariant,
    the relative invariant it implies with the correction term, checked
    against the identity (sampled at delta = 1..10 when the degree is
    symbolic), and the localization cross-check at delta = 1."""
    symbolic = delta == "symbolic"
    show = _printer(delta)
    absolute = problem_total(builtin_problem(absolute_problem))
    report.add(
        "absolute invariant",
        rat_to_str(absolute),
        absolute_source,
        expected=rat_to_str(absolute_value),
    )
    implied = absolute - correction
    report.add(
        "implied relative invariant / delta!",
        show(implied),
        identity_source,
        expected=show(identity),
    )
    if symbolic:
        for dv in range(1, 11):
            report.add(
                f"identity at delta={dv}",
                rat_to_str(implied(dv)),
                identity_source,
                expected=rat_to_str(identity(dv)),
            )
    if symbolic or int(delta) == 1:
        relative = problem_total(builtin_problem(relative_problem))
        report.add(
            "localization cross-check at delta=1",
            rat_to_str(relative),
            relative_source,
            expected=rat_to_str(implied(1)),
        )


def assemble_example_2(delta) -> VerificationReport:
    """The genus-2 degree-1 identity for the projective line relative to
    delta points, as a polynomial identity when delta is symbolic."""
    show = _printer(delta)
    report = VerificationReport(command=f"verify example 2 (delta={delta})")
    if delta != "symbolic":
        _graph_items(report, 2, int(delta), expected_count=1 + int(delta))
    vertex_factor = problem_total(builtin_problem("fig7"))
    report.add(
        "top-genus vertex invariant",
        rat_to_str(vertex_factor),
        "(4.18)",
        expected="1",
    )
    psi4 = hodge_intersect(HodgeMonomial(2, 1, (4,), (0, 0)))
    report.add("<psi^4> on the 1-pointed genus-2 space", rat_to_str(psi4), "Table 2", expected="1/1152")
    correction = DELTA * (vertex_factor * psi4)
    report.add("correction term delta/1152", show(correction), "(1.13)")
    _degree_identity_items(
        report, delta, correction, "fig8-absolute", GENUS2_ABSOLUTE, "(4.25)+(4.26)",
        IDENTITY_1_13, "(1.13)", "fig8-relative", "(4.24) second integral",
    )
    return report


def assemble_example_3(delta) -> VerificationReport:
    """The genus-3 degree-1 identity for four-dimensional projective space
    relative to a degree-delta hypersurface."""
    show = _printer(delta)
    report = VerificationReport(command=f"verify example 3 (delta={delta})")
    if delta != "symbolic":
        _graph_items(report, 3, int(delta), expected_count=2)
    pushforward = problem_total(builtin_problem("fig10"))
    report.add("top-genus push-forward degree", rat_to_str(pushforward), "(4.31)", expected="4")
    correction = degree_correction_genus3(hypersurface(4, DELTA), multiplier=pushforward)
    report.add(
        "correction term delta(delta^2-5delta+8)/72576",
        show(correction),
        "Lemma 4.4 + Table 1",
        expected=show(GENUS3_CORRECTION),
    )
    _degree_identity_items(
        report, delta, correction, "p4-absolute", GENUS3_ABSOLUTE, "(4.33)-(4.36) doubled",
        IDENTITY_1_14, "(1.14)", "p4-relative-delta1", "(4.37)-(4.42)",
    )
    return report


def assemble_example(example_id: int, delta="symbolic", n: int = 4) -> VerificationReport:
    if example_id == 1:
        return assemble_example_1(n=n, delta=delta)
    if example_id == 2:
        return assemble_example_2(delta)
    if example_id == 3:
        return assemble_example_3(delta)
    raise ValueError(f"unknown example {example_id}")
