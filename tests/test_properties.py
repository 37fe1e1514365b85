"""Property tests that shrink to a minimal counterexample on failure.

They run under the hypothesis profile of `conftest.py`: derandomized and
capped, so the suite stays quick and repeatable; hypothesis explores the
same examples on every run.
"""

from unittest import mock

import pytest

from cutpoly import GeneratorSpec, Graph, brute_hull, cut_vectors, \
    cut_weight, decompose_blocks, facet_description, gen_k33free, maxcut, \
    maxcut_bruteforce, min_weight_t_join, planar_embed, polytope
from cutpoly.graphs import masked_cut_nodes
from cutpoly.polytope import affine_rank
from frozen_dd_cone import dd_cone
from helpers import assert_same_join, tjoin_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def recipes(draw):
    den = draw(st.integers(1, 4))
    return GeneratorSpec(
        seed=draw(st.integers(0, 2 ** 32)),
        component_count=draw(st.integers(1, 4)),
        kinds=draw(st.sampled_from([("k5",), ("triangulation",),
                                    ("k5", "triangulation")])),
        tri_size=(4, 5),
        strict=draw(st.booleans()),
        deletion_prob=(draw(st.integers(0, den)), den))


@hypothesis.given(recipes())
def test_maxcut_matches_bruteforce_and_recosts(spec):
    g = gen_k33free(spec)
    res = maxcut(g)
    assert res.value == maxcut_bruteforce(g).value
    assert cut_weight(g, res.cut) == res.value


@st.composite
def tjoin_instances(draw):
    """A connected multigraph with m <= 10 (a random spanning tree, then
    extra edges that may be loops or parallels), weights -8..8, and an
    even terminal set."""
    n = draw(st.integers(1, 6))
    weights = st.integers(-8, 8)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weights))
             for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1), weights),
                           max_size=10 - len(edges)))
    terminals = draw(st.sets(st.integers(0, n - 1)))
    if len(terminals) % 2:
        terminals.discard(min(terminals))
    return n, edges, terminals


@hypothesis.given(tjoin_instances())
def test_tjoin_matches_subset_enumeration(instance):
    n, edges, terminals = instance
    join, total = min_weight_t_join(n, edges, terminals)
    assert total == tjoin_oracle(n, edges, terminals)
    assert total == sum(edges[i][2] for i in join)
    odd = [0] * n
    for i in join:
        u, v, _w = edges[i]
        if u != v:
            odd[u] ^= 1
            odd[v] ^= 1
    assert {v for v in range(n) if odd[v]} == terminals


@hypothesis.given(tjoin_instances())
def test_tjoin_equals_allpairs_paths(instance):
    """Paths traced only for the matched pairs give the total of the
    all-pairs paths, and their join where the optimal matching of the
    terminal metric is unique."""
    n, edges, terminals = instance
    assert_same_join(min_weight_t_join(n, edges, terminals),
                     n, edges, terminals)


@st.composite
def simple_graphs(draw):
    """A connected simple graph on 1..9 nodes: a random spanning tree,
    then each other node pair kept or not by a coin flip."""
    n = draw(st.integers(1, 9))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in pairs]
    keep = draw(st.lists(st.booleans(), min_size=len(others),
                         max_size=len(others)))
    pairs.update(p for p, k in zip(others, keep) if k)
    return Graph(n, [(u, v, 1) for u, v in sorted(pairs)])


@hypothesis.given(simple_graphs())
def test_planarity_matches_networkx(g):
    """`planar_embed`, and the verdict "every R skeleton of every block is
    planar" that the minor tests read off `decompose_blocks`, both agree
    with networkx."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from((u, v) for u, v, _w in g.edges)
    planar = nx.check_planarity(h)[0]
    assert (planar_embed(g) is not None) == planar
    assert all(emb is not None for block in decompose_blocks(g)
               for _cls, emb, _sg in block.r_skeletons.values()) == planar


@hypothesis.given(simple_graphs())
def test_masked_sweep_matches_networkx(g):
    """The cut nodes of every G-v, by the masked sweep, are networkx's
    articulation points of G-v."""
    nx = pytest.importorskip("networkx")
    adj = [g.neighbors(x) for x in range(g.node_count)]
    for v in range(g.node_count):
        h = nx.Graph()
        h.add_nodes_from(x for x in range(g.node_count) if x != v)
        h.add_edges_from((a, b) for a, b, _w in g.edges if v not in (a, b))
        connected = len(h) == 0 or nx.is_connected(h)
        assert masked_cut_nodes(adj, v) \
            == (set(nx.articulation_points(h)), connected)


@st.composite
def small_k33free(draw):
    """A K33-minor-free graph with n <= 7 and m <= 12, so that the hull
    oracle applies.  Either a `gen` recipe of one or two pieces (strict
    or not, thinned or not), or a K5 and a K4 glued by a 2-sum (strict or
    not) and then thinned at the K4's degree-3 nodes only: the K5 minor
    survives and its block needs completion."""
    seed = draw(st.integers(0, 2 ** 32))
    if draw(st.booleans()):
        den = draw(st.integers(1, 4))
        g = gen_k33free(GeneratorSpec(
            seed=seed, component_count=draw(st.integers(1, 2)),
            kinds=draw(st.sampled_from([("k5",), ("triangulation",),
                                        ("k5", "triangulation")])),
            tri_size=(4, 5), strict=draw(st.booleans()),
            deletion_prob=(draw(st.integers(0, den)), den)))
        hypothesis.assume(g.node_count <= 7 and len(g.edges) <= 12)
        return g
    g = gen_k33free(GeneratorSpec(seed=seed, tri_size=(4, 4),
                                  strict=draw(st.booleans())))
    hypothesis.assume(g.node_count <= 7)  # not two K5s
    spare = [i for i, (u, v, _w) in enumerate(g.edges)
             if min(g.degree(u), g.degree(v)) < 4]
    drop = draw(st.sets(st.sampled_from(spare),
                        min_size=max(0, len(g.edges) - 12)))
    return Graph(g.node_count,
                 [e for i, e in enumerate(g.edges) if i not in drop])


@hypothesis.given(small_k33free())
def test_facets_match_hull(g):
    assert set(facet_description(g).inequalities) == \
        set(brute_hull(cut_vectors(g)))


@st.composite
def spanning_01_points(draw):
    """Distinct 0/1 points of dimension <= 8 that affinely span it."""
    dim = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, 2 ** dim - 1), min_size=dim + 1,
                          max_size=min(2 ** dim, 3 * dim), unique=True))
    pts = [tuple(mask >> i & 1 for i in range(dim)) for mask in masks]
    hypothesis.assume(affine_rank(pts) == dim)
    return pts


@hypothesis.given(spanning_01_points())
def test_brute_hull_matches_frozen_dd_cone(pts):
    got = brute_hull(pts)
    with mock.patch.object(polytope, "_dd_cone", dd_cone):
        assert brute_hull(pts) == got
