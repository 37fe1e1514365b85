"""Is the cut polytope simple?  Simplicial?

Simplicity is equivalent to having no C4 minor (every block an edge or a
triangle).  Simplicial cut polytopes exist for exactly six graphs; with
five or more non-isolated nodes the polytope is never simplicial.  Once
isolated nodes are dropped, each of the six is the only graph with its
sorted degree sequence, so a lookup on that sequence decides membership.
Both verdicts are also computable geometrically from the hull oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import CertificationError, Graph, SizeLimitError, \
    chordless_cycles, compact_graph, connected_components, cut_vectors, \
    triangles
from .minors import c4_minor_block
from .polytope import InequalitySystem, LinearInequality, _cycle_edges, \
    brute_hull, cycle_inequality, edge_inequalities


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


# the six graphs with simplicial cut polytopes, by sorted degree sequence:
# without isolated nodes, each is the only simple graph with its sequence
_SIMPLICIAL = {
    (1, 1): "K2",
    (1, 1, 1, 1): "K2 + K2 (disjoint)",
    (1, 1, 2): "K2 1-sum K2 (path)",
    (2, 2, 2): "K3",
    (3, 3, 3, 3): "K4",
    (2, 2, 2, 2): "C4",
}


def _drop_isolated(g: Graph) -> Graph:
    used = sorted({x for u, v, _w in g.edges for x in (u, v)})
    if len(used) == g.node_count:
        return g
    warnings.warn("isolated nodes dropped before classification")
    sub, _ = compact_graph(used, g.edges)
    return sub


def classify(g: Graph) -> ClassificationReport:
    """Structural classification of the cut polytope's simplicity and
    simpliciality, with evidence.  The C4 witness names g's own nodes,
    and the reason names them 1-indexed, as in the input file."""
    labels = [v for v in range(g.node_count) if g.degree(v)]
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
        c4_witness = tuple(sorted(labels[v] for v in bad[0]))
        simple_reason = (f"block on nodes {tuple(v + 1 for v in c4_witness)}"
                         " is neither an edge nor a triangle (C4 minor)")
        if len(bad[1]) == len(g.edges):  # g itself is the block: 2-connected
            certificate = _non_simplicity_certificate(g)

    name = _SIMPLICIAL.get(tuple(sorted(map(g.degree, range(g.node_count)))))
    simplicial = name is not None
    simplicial_reason = "five or more non-isolated nodes" \
        if g.node_count >= 5 else "not among the six simplicial graphs"
    case = None
    if simplicial:
        simplicial_reason = f"isomorphic to {name}"
    elif g.node_count <= 4 and len(connected_components(g)) == 1:
        case = "b" if triangles(g) else "a"
        kind = ("a facet with too many vertices via a triangle-free edge bound"
                if case == "a" else
                "a facet with too many vertices via a triangle inequality")
        simplicial_reason += f"; case ({case}): {kind}"
    return ClassificationReport(simple, simplicial, simple_reason,
                                simplicial_reason, case, c4_witness,
                                certificate)


def _non_simplicity_certificate(g: Graph) -> tuple[LinearInequality, ...]:
    """|E|+1 facet-defining inequalities tight at the origin, witnessing
    non-simplicity of a 2-connected graph other than K3.

    One chordless-cycle inequality per edge e, rooted at e (F = {e}), plus
    either the edge bound x_0 >= 0 (if the graph is a plain cycle) or a
    second chordless cycle through some chord.
    """
    m = len(g.edges)
    by_edge: dict[int, list[tuple[int, ...]]] = {i: [] for i in range(m)}
    for cyc in chordless_cycles(g):
        for e in _cycle_edges(g, cyc):
            by_edge[e].append(cyc)
    if not all(by_edge.values()):
        raise CertificationError("edge on no chordless cycle")
    out = [cycle_inequality(g, cycs[0], (e,)) for e, cycs in by_edge.items()]
    if all(g.degree(v) == 2 for v in range(g.node_count)):
        out.append(edge_inequalities(g, 0)[0])
    else:
        e = next(e for e in range(m) if len(by_edge[e]) >= 2)
        out.append(cycle_inequality(g, by_edge[e][1], (e,)))
    uniq = InequalitySystem.of(g, out).inequalities
    if len(uniq) != m + 1:
        raise CertificationError("certificate must have |E|+1 distinct facets")
    return uniq


def brute_classify(g: Graph) -> tuple[bool, bool]:
    """Geometric verdicts from vertex-facet incidences of the hull.

    simple: every vertex on exactly |E| facets; simplicial: every facet
    contains exactly |E| vertices.  Guards: |E| <= 12, <= 64 cuts.
    """
    vectors = guarded_cut_vectors(g)
    return hull_verdicts(vectors, brute_hull(vectors))


def guarded_cut_vectors(g: Graph) -> list[tuple[int, ...]]:
    """The cut vectors of g, once brute_classify's guards admit g."""
    g = _drop_isolated(g)
    if len(g.edges) > 12:
        raise SizeLimitError("brute_classify guard: |E| <= 12")
    vectors = cut_vectors(g)
    if len(vectors) > 64:
        raise SizeLimitError("brute_classify guard: <= 64 cuts")
    return vectors


def hull_verdicts(vectors, facets) -> tuple[bool, bool]:
    """(simple, simplicial) from the incidences of the cut vectors of a
    graph with the facets of their hull, all read off one integer product
    of the vectors with the facet rows: simple when every vector lies on
    exactly |E| facets, simplicial when every facet holds exactly |E|."""
    m = len(vectors[0])
    coeffs = np.array([q.coeffs for q in facets], dtype=np.int64)
    rhs = np.array([q.rhs for q in facets], dtype=np.int64)
    tight = (np.array(vectors, dtype=np.int64).reshape(len(vectors), m)
             @ coeffs.reshape(len(facets), m).T) == rhs
    return bool((tight.sum(axis=1) == m).all()), \
        bool((tight.sum(axis=0) == m).all())
