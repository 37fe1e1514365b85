import itertools
import random

import pytest

from cutpoly import (Graph, GraphError, K33MinorError, LinearInequality,
                     brute_hull, cut_from_side, cut_vectors, cycle_inequality,
                     edge_inequalities, enumerate_cuts, facet_description,
                     fourier_motzkin_project, hypermetric_k5, is_facet,
                     is_valid, metric_inequalities, minor_exhaustive,
                     polytope_dim, switch, triangles)
from cutpoly.polytope import InequalitySystem, _maximal_k33free_facets
from helpers import (complete, cycle, double_k5, k33, maximal_pieces,
                     octahedron, random_graph, run_python)


def tri_indices(g, tri):
    return [g.edge_index(a, b) for a, b in itertools.combinations(tri, 2)]


# -- generators ------------------------------------------------------------------

def test_metric_k3_is_full_description():
    g = complete(3)
    ms = metric_inequalities(g, [0, 1, 2])
    assert len(set(ms)) == 4
    assert set(brute_hull(cut_vectors(g))) == set(ms)


def test_metric_k4_sixteen_distinct():
    g = complete(4)
    out = set()
    for tri in triangles(g):
        out.update(metric_inequalities(g, tri_indices(g, tri)))
    assert len(out) == 16


def test_metric_rejects_non_triangle():
    g = cycle(4)
    with pytest.raises(GraphError):
        metric_inequalities(g, [0, 1, 2])
    with pytest.raises(GraphError):
        metric_inequalities(complete(3), [0, 0, 1])


def test_edge_inequalities():
    c4 = cycle(4)
    qs = edge_inequalities(c4, 0)
    assert len(qs) == 2
    assert edge_inequalities(complete(3), 0) == []
    k2 = Graph(2, [(0, 1, 1)])
    qs = edge_inequalities(k2, 0)
    assert set(brute_hull(cut_vectors(k2))) == set(qs)


def test_cycle_inequality_forms():
    g = complete(3)
    q = cycle_inequality(g, (0, 1, 2), [0, 1, 2])
    assert q == LinearInequality((1, 1, 1), 2)
    c4 = cycle(4)
    q = cycle_inequality(c4, (0, 1, 2, 3), [c4.edge_index(0, 1)])
    assert sorted(q.coeffs) == [-1, -1, -1, 1] and q.rhs == 0
    odd_subsets = [f for r in (1, 3) for f in itertools.combinations(range(4), r)]
    qs = {cycle_inequality(c4, (0, 1, 2, 3), f) for f in odd_subsets}
    assert len(qs) == 8
    with pytest.raises(GraphError):
        cycle_inequality(c4, (0, 1, 2, 3), [0, 1])
    with pytest.raises(GraphError):
        cycle_inequality(c4, (0, 1, 2, 3), [5])


def test_hypermetric_k5():
    q = hypermetric_k5(complete(5), range(5))
    assert q.rhs == 6 and sum(map(abs, q.coeffs)) == 10
    with pytest.raises(GraphError):
        hypermetric_k5(double_k5(), [0, 1, 2, 3, 4])  # edge 0-1 missing
    assert hypermetric_k5(complete(6), [0, 1, 2, 3, 5]).rhs == 6


# -- switching --------------------------------------------------------------------

def test_switch_metric_pair():
    g = complete(3)
    q = LinearInequality((1, 1, 1), 2)
    w = cut_from_side(g, [2])  # hits the two edges at node 2
    assert switch(q, w) == LinearInequality((1, -1, -1), 0)


def test_switch_identity_at_empty_cut():
    g = complete(3)
    q = LinearInequality((1, -1, -1), 0)
    assert switch(q, cut_from_side(g, [])) == q


def test_switch_k5_sixteen_distinct():
    g = complete(5)
    base = hypermetric_k5(g, range(5))
    assert len({switch(base, c) for c in enumerate_cuts(g)}) == 16


def test_switch_involution_and_facet_preservation():
    rnd = random.Random(0)
    pool = []
    for g in (complete(4), complete(5), cycle(5), octahedron()):
        facets = list(facet_description(g).inequalities)
        cuts = enumerate_cuts(g)
        pool.append((g, facets, cuts))
    trials = 0
    while trials < 250:
        g, facets, cuts = pool[rnd.randrange(len(pool))]
        q = facets[rnd.randrange(len(facets))]
        w = cuts[rnd.randrange(len(cuts))]
        assert switch(switch(q, w), w) == q
        assert is_facet(g, switch(q, w))
        trials += 1


# -- validity / facetness -----------------------------------------------------------

def test_is_valid_and_is_facet_basics():
    k5 = complete(5)
    assert is_valid(k5, LinearInequality((1,) * 10, 6))
    assert not is_valid(k5, LinearInequality((1,) * 10, 5))
    k3 = complete(3)
    upper = LinearInequality((1, 0, 0), 1)
    assert is_valid(k3, upper) and not is_facet(k3, upper)


@pytest.mark.parametrize("check", [is_valid, is_facet])
def test_inequality_of_the_wrong_length_is_refused(check):
    for coeffs in ((1,), (1, 0, 0, 0)):
        with pytest.raises(GraphError, match="coefficients"):
            check(complete(3), LinearInequality(coeffs, 0))


def test_inequality_of_the_wrong_length_is_refused_without_asserts():
    proc = run_python("-O", "-c", """if 1:
        from cutpoly import (Graph, GraphError, LinearInequality, is_facet,
                             is_valid)
        k3 = Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        for check in (is_valid, is_facet):
            try:
                check(k3, LinearInequality((1,), 0))
            except GraphError as exc:
                print(exc)
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "inequality has 1 coefficients, the graph 3 edges"] * 2


def test_polytope_dim_equals_edge_count():
    for g in (complete(3), complete(4), Graph(2, [(0, 1, 1)]), cycle(5),
              double_k5(), octahedron()):
        assert polytope_dim(g) == len(g.edges)


# -- hull oracle --------------------------------------------------------------------

def test_hull_k3_c4_k4():
    assert len(brute_hull(cut_vectors(complete(3)))) == 4
    hull_c4 = brute_hull(cut_vectors(cycle(4)))
    assert len(hull_c4) == 16  # 4-dimensional cross-polytope
    hull_k4 = brute_hull(cut_vectors(complete(4)))
    assert len(hull_k4) == 16
    vecs = cut_vectors(complete(4))
    for q in hull_k4:
        assert sum(1 for x in vecs if q.evaluate(x) == q.rhs) == 6


def test_hull_facets_are_facets():
    for g in (complete(4), cycle(5), octahedron()):
        vecs = cut_vectors(g)
        for q in brute_hull(vecs):
            assert is_facet(g, q)


# -- complete descriptions --------------------------------------------------------

def test_facets_k5_56():
    fd = facet_description(complete(5))
    assert len(fd.inequalities) == 56
    metric = set()
    for tri in triangles(complete(5)):
        metric.update(metric_inequalities(complete(5),
                                          tri_indices(complete(5), tri)))
    assert len(metric) == 40
    switchings = {switch(hypermetric_k5(complete(5), range(5)), c)
                  for c in enumerate_cuts(complete(5))}
    assert set(fd.inequalities) == metric | switchings
    assert set(fd.inequalities) == set(brute_hull(cut_vectors(complete(5))))


def test_facets_octahedron_both_routes_match_hull():
    """A maximal planar triangulation with chordless 4-cycles: the three
    equatorial squares contribute 24 cycle facets on top of the 32 metric
    ones.  Both dispatch routes must agree with the hull."""
    g = octahedron()
    hull = set(brute_hull(cut_vectors(g)))
    assert len(hull) == 56
    fd = facet_description(g)
    assert set(fd.inequalities) == hull
    via_pieces = {LinearInequality.canonical(q.coeffs, q.rhs)
                  for q in _maximal_k33free_facets(g, maximal_pieces(g))}
    assert via_pieces == hull
    metric = set()
    for tri in triangles(g):
        metric.update(metric_inequalities(g, tri_indices(g, tri)))
    assert len(metric) == 32 and metric < hull


def test_facets_two_triangle_2_sum():
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1)])
    fd = facet_description(g)
    assert set(fd.inequalities) == set(brute_hull(cut_vectors(g)))
    assert len(fd.inequalities) == 8


def test_facets_c5():
    fd = facet_description(cycle(5))
    hull = brute_hull(cut_vectors(cycle(5)))
    assert len(hull) == 26 and set(fd.inequalities) == set(hull)


def test_facets_disconnected_union():
    g = Graph(7, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1),
                  (5, 6, 1), (3, 6, 1)])
    fd = facet_description(g)
    assert set(fd.inequalities) == set(brute_hull(cut_vectors(g)))


def test_facets_k5_minor_free_random_vs_hull():
    done = 0
    seed = 0
    while done < 15:
        seed += 1
        g = random_graph(seed, nmax=7, p=0.5)
        g = Graph(g.node_count, [(u, v, 1) for u, v, _w in g.edges])
        if not g.edges or len(g.edges) > 12:
            continue
        if minor_exhaustive(g, "K5"):
            continue
        if len(cut_vectors(g)) > 64:
            continue
        fd = facet_description(g)
        assert set(fd.inequalities) == set(brute_hull(cut_vectors(g))), seed
        done += 1


def test_facets_strict_composite_and_deletions():
    """K5 with a triangle glued on one edge, then with the glue edge and a
    second edge deleted: the maximal, projected-once and projected-through-
    a-block-join descriptions all match the hull (60 / 88 / 30 facets)."""
    base = [(u, v, 1) for u, v in itertools.combinations(range(5), 2)]
    g1 = Graph(6, base + [(0, 5, 1), (1, 5, 1)])
    from cutpoly import k33_decompose
    assert k33_decompose(g1).is_maximal
    assert set(facet_description(g1).inequalities) == \
        set(brute_hull(cut_vectors(g1)))
    assert len(facet_description(g1).inequalities) == 60

    g2 = g1.without_edge(0)  # drop the glued edge (0,1): non-strict
    hull2 = brute_hull(cut_vectors(g2))
    assert len(hull2) == 88
    assert set(facet_description(g2).inequalities) == set(hull2)

    g3 = Graph(6, [e for e in g1.edges if (e[0], e[1]) not in [(0, 1), (0, 5)]])
    hull3 = brute_hull(cut_vectors(g3))
    assert len(hull3) == 30
    assert set(facet_description(g3).inequalities) == set(hull3)


def test_facets_with_isolated_node():
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    assert set(facet_description(g).inequalities) == \
        set(brute_hull(cut_vectors(g)))


def test_facets_octahedron_minus_edge():
    g = octahedron().without_edge(0)
    hull = brute_hull(cut_vectors(g))
    assert len(hull) == 48
    assert set(facet_description(g).inequalities) == set(hull)


def test_facets_accepts_k33_itself():
    # K33 has no K5 minor, so the edge+cycle description applies to it
    fd = facet_description(k33())
    for q in list(fd.inequalities)[::6]:
        assert is_facet(k33(), q)


def test_facets_rejects_unsupported():
    # K6 carries both forbidden minors: neither route applies
    with pytest.raises(K33MinorError):
        facet_description(complete(6))


def test_facet_description_every_inequality_is_facet():
    for g in (complete(5), octahedron(), double_k5()):
        fd = facet_description(g)
        # spot-check a sample on the large systems, all on small ones
        qs = list(fd.inequalities)
        sample = qs if len(qs) <= 60 else qs[::  len(qs) // 40]
        for q in sample:
            assert is_facet(g, q)


# -- projection --------------------------------------------------------------------

def test_fm_reproduces_the_four_sum_classes():
    g = double_k5()
    m = len(g.edges)
    fd = facet_description(g)
    fset = set(fd.inequalities)

    def make(pairs, rhs):
        coeffs = [0] * m
        for (a, b), c in pairs.items():
            coeffs[g.edge_index(a, b)] = c
        return LinearInequality.canonical(coeffs, rhs)

    # cycle inequality over the 4-cycle 0-2-1-5 (two metric halves summed)
    q13 = make({(1, 2): 1, (0, 2): 1, (1, 5): -1, (0, 5): 1}, 2)
    # one K5 inequality plus a metric of the other copy
    pairs = {e: 1 for e in itertools.combinations(range(5), 2) if e != (0, 1)}
    pairs[(1, 5)] = -1
    pairs[(0, 5)] = 1
    q23 = make(pairs, 6)
    # a switched K5 inequality plus a metric of the other copy
    pairs = {}
    for e in itertools.combinations([0, 1, 5, 6, 7], 2):
        if e != (0, 1):
            pairs[e] = -1 if 1 in e else 1
    pairs[(1, 2)] = 1
    pairs[(0, 2)] = 1
    q14 = make(pairs, 4)
    # both K5 inequalities summed: support = the whole graph, rhs 8
    pairs = {e: 1 for e in itertools.combinations(range(5), 2) if e != (0, 1)}
    for e in itertools.combinations([0, 1, 5, 6, 7], 2):
        if e != (0, 1):
            pairs[e] = -1 if 1 in e else 1
    q24 = make(pairs, 8)

    for q in (q13, q23, q14, q24):
        assert q in fset
        assert is_facet(g, q)
    assert q24.rhs == 8

    # switching q14 at the cut of {node 1} lands on q23 with the two K5
    # copies exchanged
    mirror = {e: 1 for e in itertools.combinations([0, 1, 5, 6, 7], 2)
              if e != (0, 1)}
    mirror[(1, 2)] = -1
    mirror[(0, 2)] = 1
    assert switch(q14, cut_from_side(g, [1])) == make(mirror, 6)


def test_fm_pass_through_unchanged():
    base = Graph(3, [(0, 1, 1), (1, 2, 1)])
    sys_p = facet_description(base)
    g3 = base.with_edge(0, 2, 1)
    lifted = InequalitySystem.of(
        g3, [LinearInequality(q.coeffs + (0,), q.rhs)
             for q in sys_p.inequalities])
    proj = fourier_motzkin_project(lifted, 2)
    assert set(proj.inequalities) == set(sys_p.inequalities)


def test_fm_triangle_to_path():
    g3 = complete(3)
    system = facet_description(g3)
    proj = fourier_motzkin_project(system, 2)
    path = Graph(3, [(0, 1, 1), (0, 2, 1)])
    assert proj.graph == g3.without_edge(2)
    assert set(proj.inequalities) == set(brute_hull(cut_vectors(path)))


@pytest.mark.parametrize("index", [3, -1])
def test_fm_rejects_an_index_outside_the_edges(index):
    system = facet_description(complete(3))
    with pytest.raises(GraphError, match="is not an edge"):
        fourier_motzkin_project(system, index)


def test_plus_minus_one_coefficients():
    for g in (double_k5(), octahedron(), complete(5)):
        for q in facet_description(g).inequalities:
            assert set(q.coeffs) <= {-1, 0, 1}


# -- support graphs ---------------------------------------------------------------

def _support_graph(g, q):
    nodes = sorted({x for i in q.support() for x in g.edges[i][:2]})
    remap = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(remap[g.edges[i][0]], remap[g.edges[i][1]], 1)
                              for i in q.support()])


def _catalog_two_steps():
    """Graphs reachable from a triangle or K5 by at most two operations
    (subdivide an edge / replace an edge by K5 minus that edge)."""
    def subdivide(g, i):
        u, v, _w = g.edges[i]
        rest = [e for j, e in enumerate(g.edges) if j != i]
        n = g.node_count
        return Graph(n + 1, rest + [(u, n, 1), (v, n, 1)])

    def replace(g, i):
        u, v, _w = g.edges[i]
        rest = [e for j, e in enumerate(g.edges) if j != i]
        n = g.node_count
        fresh = [n, n + 1, n + 2]
        nodes = [u, v] + fresh
        new = [(min(a, b), max(a, b), 1)
               for a, b in itertools.combinations(nodes, 2)
               if {a, b} != {u, v}]
        return Graph(n + 3, rest + new)

    base = [complete(3), complete(5)]
    seen = []
    frontier = list(base)
    for _step in range(2):
        nxt = []
        for g in frontier:
            for i in range(len(g.edges)):
                nxt.append(subdivide(g, i))
                nxt.append(replace(g, i))
        seen.extend(frontier)
        frontier = nxt
    seen.extend(frontier)
    return seen


def _isomorphic(g1, g2):
    if (g1.node_count, len(g1.edges)) != (g2.node_count, len(g2.edges)):
        return False
    d1 = sorted(g1.degree(v) for v in range(g1.node_count))
    d2 = sorted(g2.degree(v) for v in range(g2.node_count))
    if d1 != d2:
        return False
    target = {(u, v) for u, v, _w in g2.edges}
    nodes2 = sorted(range(g2.node_count), key=g2.degree)

    def backtrack(assigned, used):
        if len(assigned) == g1.node_count:
            return True
        v = len(assigned)
        for w in range(g2.node_count):
            if w in used or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for x, _i in g1.neighbors(v):
                if x < v and (min(assigned[x], w), max(assigned[x], w)) not in target:
                    ok = False
                    break
            if ok:
                count = sum(1 for x, _i in g1.neighbors(v) if x < v)
                have = sum(1 for x in range(v)
                           if (min(assigned[x], w), max(assigned[x], w)) in target)
                if count == have:
                    assigned.append(w)
                    used.add(w)
                    if backtrack(assigned, used):
                        return True
                    assigned.pop()
                    used.remove(w)
        return False

    return backtrack([], set())


def test_facet_supports_match_composition_catalog():
    catalog = _catalog_two_steps()
    g = double_k5()
    for q in facet_description(g).inequalities:
        sup = _support_graph(g, q)
        if len(sup.edges) == 1:
            continue
        assert any(_isomorphic(sup, c) for c in catalog), q
