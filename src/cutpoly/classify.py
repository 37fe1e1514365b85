"""Is the cut polytope simple?  Simplicial?

Simplicity is equivalent to having no C4 minor (every block an edge or a
triangle).  Simplicial cut polytopes exist for exactly six graphs; with
five or more non-isolated nodes the polytope is never simplicial.  Both
verdicts are also computable geometrically from the hull oracle.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .graphs import Graph, SizeLimitError, blocks, chordless_cycles, \
    compact_graph, connected_components, cut_vectors
from .minors import c4_minor_block
from .polytope import LinearInequality, brute_hull


@dataclass(frozen=True)
class ClassificationReport:
    simple: bool
    simplicial: bool
    simple_reason: str
    simplicial_reason: str
    proof_case: str | None = None  # "a" (triangle-free) or "b" (has triangle)
    c4_witness: tuple[int, ...] | None = None
    non_simplicity_certificate: tuple[LinearInequality, ...] = field(
        default=(), repr=False)


# the six graphs with simplicial cut polytopes, up to isomorphism
_SIMPLICIAL = (
    ("K2", 2, ((0, 1),)),
    ("K2 + K2 (disjoint)", 4, ((0, 1), (2, 3))),
    ("K2 1-sum K2 (path)", 3, ((0, 1), (1, 2))),
    ("K3", 3, ((0, 1), (0, 2), (1, 2))),
    ("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    ("C4", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
)


def _isomorphic_small(g: Graph, n: int, pairs) -> bool:
    if g.node_count != n or len(g.edges) != len(pairs):
        return False
    target = {(min(a, b), max(a, b)) for a, b in pairs}
    mine = {(u, v) for u, v, _w in g.edges}
    for perm in itertools.permutations(range(n)):
        if {(min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in mine} == target:
            return True
    return False


def _drop_isolated(g: Graph) -> Graph:
    used = sorted({x for u, v, _w in g.edges for x in (u, v)})
    if len(used) == g.node_count:
        return g
    warnings.warn("isolated nodes dropped before classification")
    sub, _ = compact_graph(used, g.edges)
    return sub


def classify(g: Graph) -> ClassificationReport:
    """Structural classification of the cut polytope's simplicity and
    simpliciality, with evidence."""
    g = _drop_isolated(g)
    if not g.edges:
        return ClassificationReport(True, True, "trivial polytope",
                                    "trivial polytope")
    bad = c4_minor_block(g)
    simple = bad is None
    c4_witness = None
    certificate: tuple[LinearInequality, ...] = ()
    if simple:
        simple_reason = "every block is an edge or a triangle"
    else:
        c4_witness = tuple(sorted(bad[0]))
        simple_reason = (f"block on nodes {c4_witness} is neither an edge "
                         "nor a triangle (C4 minor)")
        if not blocks(g).cut_nodes and len(connected_components(g)) == 1:
            certificate = _non_simplicity_certificate(g)

    simplicial = False
    simplicial_reason = "five or more non-isolated nodes" \
        if g.node_count >= 5 else "not among the six simplicial graphs"
    case = None
    for name, n, pairs in _SIMPLICIAL:
        if _isomorphic_small(g, n, pairs):
            simplicial = True
            simplicial_reason = f"isomorphic to {name}"
            break
    if not simplicial and g.node_count <= 4 and len(connected_components(g)) == 1:
        case = "b" if any(True for _ in _triangle_iter(g)) else "a"
        kind = ("a facet with too many vertices via a triangle-free edge bound"
                if case == "a" else
                "a facet with too many vertices via a triangle inequality")
        simplicial_reason += f"; case ({case}): {kind}"
    return ClassificationReport(simple, simplicial, simple_reason,
                                simplicial_reason, case, c4_witness,
                                certificate)


def _triangle_iter(g: Graph):
    for u, v, _w in g.edges:
        for x, _i in g.neighbors(u):
            if x != v and g.has_edge(v, x):
                yield (u, v, x)


def _non_simplicity_certificate(g: Graph) -> tuple[LinearInequality, ...]:
    """|E|+1 facet-defining inequalities tight at the origin, witnessing
    non-simplicity of a 2-connected graph other than K3.

    One rooted chordless-cycle inequality per edge, plus either an edge
    bound (if the graph is a plain cycle) or a second chordless cycle
    through some chord.
    """
    m = len(g.edges)
    cycles = chordless_cycles(g)
    by_edge: dict[int, list[tuple[int, ...]]] = {i: [] for i in range(m)}
    for cyc in cycles:
        for i in range(len(cyc)):
            e = g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])
            by_edge[e].append(cyc)
    out = []
    for e in range(m):
        assert by_edge[e], "every edge of a 2-connected graph lies on a cycle"
        out.append(_rooted_cycle(g, by_edge[e][0], e))
    if all(g.degree(v) == 2 for v in range(g.node_count)):
        lo = [0] * m
        lo[0] = -1
        out.append(LinearInequality.canonical(lo, 0))  # x_e >= 0
    else:
        e = next(e for e in range(m) if len(by_edge[e]) >= 2)
        out.append(_rooted_cycle(g, by_edge[e][1], e))
    uniq = tuple(sorted(set(out), key=lambda q: (q.coeffs, q.rhs)))
    assert len(uniq) == m + 1, "certificate must have |E|+1 distinct facets"
    return uniq


def _rooted_cycle(g: Graph, cyc, root_edge: int) -> LinearInequality:
    coeffs = [0] * len(g.edges)
    for i in range(len(cyc)):
        e = g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])
        coeffs[e] = 1 if e == root_edge else -1
    return LinearInequality.canonical(coeffs, 0)


def brute_classify(g: Graph) -> tuple[bool, bool]:
    """Geometric verdicts from vertex-facet incidences of the hull.

    simple: every vertex on exactly |E| facets; simplicial: every facet
    contains exactly |E| vertices.  Guards: |E| <= 12, <= 64 cuts.
    """
    g = _drop_isolated(g)
    m = len(g.edges)
    if m > 12:
        raise SizeLimitError("brute_classify guard: |E| <= 12")
    vectors = cut_vectors(g)
    if len(vectors) > 64:
        raise SizeLimitError("brute_classify guard: <= 64 cuts")
    if m == 0:
        return True, True
    facets = brute_hull(vectors)
    simple = True
    for x in vectors:
        count = sum(1 for q in facets if q.evaluate(x) == q.rhs)
        if count != m:
            simple = False
            break
    simplicial = True
    for q in facets:
        count = sum(1 for x in vectors if q.evaluate(x) == q.rhs)
        if count != m:
            simplicial = False
            break
    return simple, simplicial
