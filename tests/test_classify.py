import itertools
import warnings

import pytest

from cutpoly import (Graph, SizeLimitError, brute_classify, brute_hull,
                     classify, connected_components, cut_vectors,
                     is_c4_minor_free, is_facet)
from cutpoly.classify import _drop_isolated, hull_verdicts
from helpers import (complete, connected_graphs_up_to_iso, cycle, double_k5,
                     octahedron, path, random_2connected)


def paw():
    return Graph(4, [(0, 1, 1), (0, 3, 1), (1, 3, 1), (1, 2, 1)])


def diamond():
    return Graph(4, [(0, 1, 1), (0, 3, 1), (1, 3, 1), (1, 2, 1), (2, 3, 1)])


def star(k):
    return Graph(k + 1, [(0, i, 1) for i in range(1, k + 1)])


TABLE = [
    ("K2", Graph(2, [(0, 1, 1)]), True, None),
    ("path-3", path(3), True, None),
    ("K3", complete(3), True, None),
    ("path-4", path(4), False, "a"),
    ("star-3", star(3), False, "a"),
    ("two-K2", Graph(4, [(0, 1, 1), (2, 3, 1)]), True, None),
    ("C4", cycle(4), True, None),
    ("paw", paw(), False, "b"),
    ("diamond", diamond(), False, "b"),
    ("K4", complete(4), True, None),
]


@pytest.mark.parametrize("name,g,simplicial,case", TABLE,
                         ids=[t[0] for t in TABLE])
def test_four_node_table(name, g, simplicial, case):
    rep = classify(g)
    bs, bsl = brute_classify(g)
    assert rep.simplicial == simplicial == bsl
    assert rep.simple == bs == is_c4_minor_free(g)
    if case is not None:
        assert rep.proof_case == case


def test_c4_minor_free_examples():
    assert not is_c4_minor_free(cycle(4))
    assert is_c4_minor_free(paw())  # triangle plus a pendant edge
    assert not is_c4_minor_free(complete(4))


def test_classify_k4():
    rep = classify(complete(4))
    assert rep.simple is False and rep.simplicial is True


def test_classify_star_case_a():
    rep = classify(star(3))
    assert rep.simplicial is False and rep.proof_case == "a"


def test_classify_paw_case_b():
    rep = classify(paw())
    assert rep.simplicial is False and rep.proof_case == "b"


def test_brute_classify_examples():
    assert brute_classify(complete(3)) == (True, True)
    assert brute_classify(cycle(4)) == (False, True)
    assert brute_classify(cycle(5)) == (False, False)


def test_brute_classify_guards():
    with pytest.raises(SizeLimitError):
        brute_classify(Graph(13, [(i, i + 1, 1) for i in range(12)]))


def test_exhaustive_agreement_up_to_five_nodes():
    graphs = connected_graphs_up_to_iso(5)
    assert len(graphs) == 31
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in graphs:
            rep = classify(g)
            bs, bsl = brute_classify(g)
            assert rep.simple == bs == is_c4_minor_free(g), g.edges
            assert rep.simplicial == bsl, g.edges
            if g.node_count >= 5:
                assert not bsl  # never simplicial from five nodes on


# the six simplicial graphs and the permutation search that recognised
# them before the degree-sequence lookup, kept as its oracle
_SIX = (
    ("K2", 2, ((0, 1),)),
    ("K2 + K2 (disjoint)", 4, ((0, 1), (2, 3))),
    ("K2 1-sum K2 (path)", 3, ((0, 1), (1, 2))),
    ("K3", 3, ((0, 1), (0, 2), (1, 2))),
    ("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    ("C4", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
)


def _isomorphic_small(g, n, pairs) -> bool:
    if g.node_count != n or len(g.edges) != len(pairs):
        return False
    target = {(min(a, b), max(a, b)) for a, b in pairs}
    mine = {(u, v) for u, v, _w in g.edges}
    return any({(min(p[u], p[v]), max(p[u], p[v])) for u, v in mine} == target
               for p in itertools.permutations(range(n)))


def _simpliciality_oracle(g) -> tuple[bool, str, str | None]:
    """classify's simplicial verdict, reason and proof case by the
    permutation search, on g with its isolated nodes dropped."""
    reason = ("five or more non-isolated nodes" if g.node_count >= 5
              else "not among the six simplicial graphs")
    for name, n, pairs in _SIX:
        if _isomorphic_small(g, n, pairs):
            return True, f"isomorphic to {name}", None
    if g.node_count > 4 or len(connected_components(g)) != 1:
        return False, reason, None
    case = "b" if any(g.has_edge(v, x) for u, v, _w in g.edges
                      for x, _i in g.neighbors(u) if x != v) else "a"
    kind = ("a facet with too many vertices via a triangle-free edge bound"
            if case == "a" else
            "a facet with too many vertices via a triangle inequality")
    return False, f"{reason}; case ({case}): {kind}", case


def test_simplicial_lookup_matches_permutation_search():
    """On every labelled graph with at most 5 nodes, isolated nodes
    included, the degree-sequence lookup gives the permutation search's
    verdict, reason and proof case."""
    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1, 1 << len(pairs)):
                g = Graph(n, [(*pairs[i], 1) for i in range(len(pairs))
                              if mask >> i & 1])
                rep = classify(g)
                want = _simpliciality_oracle(_drop_isolated(g))
                assert (rep.simplicial, rep.simplicial_reason,
                        rep.proof_case) == want, g.edges
                seen += rep.simplicial
    assert seen > 6  # every one of the six, under several labellings


def test_hull_verdicts_match_separate_counts():
    """The shared incidence rows give the verdicts of counting each
    vector's facets and each facet's vectors on their own, also on part
    of a hull, where the counts disagree in other places."""
    for g in connected_graphs_up_to_iso(5):
        vectors = cut_vectors(g)
        hull = brute_hull(vectors)
        for facets in (hull, hull[::2], hull[1:]):
            m = len(g.edges)
            simple = all(sum(q.evaluate(x) == q.rhs for q in facets) == m
                         for x in vectors)
            simplicial = all(sum(q.evaluate(x) == q.rhs for x in vectors)
                             == m for q in facets)
            assert hull_verdicts(vectors, facets) == (simple, simplicial)


def test_isolated_nodes_dropped_with_warning():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])  # node 3 isolated
    with pytest.warns(UserWarning):
        rep = classify(g)
    assert rep.simplicial is True and rep.simple is True  # it is a K3


def test_product_rule_for_simplicity():
    cases = [
        (Graph(2, [(0, 1, 1)]), complete(3)),
        (complete(3), complete(3)),
        (Graph(2, [(0, 1, 1)]), cycle(4)),
    ]
    for g1, g2 in cases:
        n1 = g1.node_count
        union = Graph(n1 + g2.node_count,
                      list(g1.edges) + [(u + n1, v + n1, w)
                                        for u, v, w in g2.edges])
        s1, _ = brute_classify(g1)
        s2, _ = brute_classify(g2)
        su, _ = brute_classify(union)
        assert su == (s1 and s2)


def test_non_simplicity_certificate_is_facets_at_origin():
    wheel = Graph(7, [(0, i, 1) for i in range(1, 7)]
                  + [(i, i % 6 + 1, 1) for i in range(1, 7)])
    sweep = [g for g in map(random_2connected, range(12)) if g is not None]
    assert len(sweep) >= 8
    for g in (cycle(4), cycle(5), complete(4), complete(5), octahedron(),
              double_k5(), wheel, *sweep):
        rep = classify(g)
        cert = rep.non_simplicity_certificate
        assert len(cert) == len(g.edges) + 1
        for q in cert:
            assert q.rhs == 0           # tight at the origin
            assert is_facet(g, q)


def test_certificate_shape_cycle_vs_chord():
    # a plain cycle uses an edge bound; a graph with a chord uses a second
    # chordless cycle
    rep = classify(cycle(5))
    assert any(sum(map(abs, q.coeffs)) == 1 for q in rep.non_simplicity_certificate)
    rep = classify(complete(4))
    assert all(sum(map(abs, q.coeffs)) >= 3 for q in rep.non_simplicity_certificate)
