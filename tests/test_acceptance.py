"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is exact (integer arithmetic throughout); the time budgets are
asserted where the criterion states one.
"""

import itertools
import random
import time
import warnings

from cutpoly import (GeneratorSpec, Graph, LinearInequality, brute_classify,
                     brute_hull, classify, cut_vectors, cut_weight,
                     chordless_cycles, enumerate_cuts, facet_description,
                     gen_k33free, hypermetric_k5, is_c4_minor_free, is_facet,
                     k33_decompose, maxcut, maxcut_bruteforce,
                     metric_inequalities, minor_exhaustive, planar_maxcut,
                     recompose, spr_tree, switch, triangles)
from cutpoly.polytope import affine_rank
from helpers import (complete, connected_graphs_up_to_iso, cycle, double_k5,
                     forced_cut_optimum, path, random_2connected,
                     random_planar_2connected)


def _announce(num: int, text: str) -> None:
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_maxcut_oracle_equivalence():
    t0 = time.time()
    for seed in range(1, 201):
        spec = GeneratorSpec(seed=seed,
                             component_count=1 + (seed % 3),
                             kinds=("k5", "triangulation"),
                             tri_size=(4, 6),
                             strict=(seed % 2 == 0),
                             deletion_prob=(3, 20),
                             weight_range=(-10, 10))
        g = gen_k33free(spec)
        assert g.node_count <= 16
        assert k33_decompose(g).is_k33_minor_free
        res = maxcut(g)
        brute = maxcut_bruteforce(g)
        assert res.value == brute.value, f"seed {seed}"
        assert cut_weight(g, res.cut) == res.value, f"seed {seed} witness"
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _announce(1, f"200 generated instances match the enumeration oracle "
                 f"exactly, witnesses certify ({elapsed:.1f}s)")


def test_criterion_2_planar_solver_equivalence():
    rnd = random.Random(2024)
    for i in range(100):
        g = random_planar_2connected(5000 + i, nmax=14)
        assert g.node_count <= 14
        brute = maxcut_bruteforce(g)
        res = planar_maxcut(g)
        assert res.value == brute.value, f"instance {i}"
        idx = rnd.randrange(len(g.edges))
        r_in = planar_maxcut(g, (idx, True))
        r_out = planar_maxcut(g, (idx, False))
        assert r_in.value == forced_cut_optimum(g, idx, True), f"instance {i}"
        assert r_out.value == forced_cut_optimum(g, idx, False), f"instance {i}"
        assert max(r_in.value, r_out.value) == res.value, f"instance {i}"
    _announce(2, "100 planar instances: exact, both forced variants exact, "
                 "max(forced) = unforced")


def test_criterion_3_k5_facet_description():
    t0 = time.time()
    k5 = complete(5)
    system = facet_description(k5)
    assert len(system.inequalities) == 56
    metric = set()
    for tri in triangles(k5):
        idx = [k5.edge_index(a, b) for a, b in itertools.combinations(tri, 2)]
        metric.update(metric_inequalities(k5, idx))
    switchings = {switch(hypermetric_k5(k5, range(5)), c)
                  for c in enumerate_cuts(k5)}
    assert len(metric) == 40 and len(switchings) == 16
    assert set(system.inequalities) == metric | switchings
    hull = brute_hull(cut_vectors(k5))
    assert set(hull) == set(system.inequalities)
    elapsed = time.time() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _announce(3, f"56 = 40 metric + 16 switchings = hull over the 16 cut "
                 f"vectors ({elapsed:.1f}s)")


def test_criterion_4_glued_k5_reproduction():
    g = double_k5()
    m = len(g.edges)
    system = facet_description(g)
    fset = set(system.inequalities)

    def make(pairs, rhs):
        coeffs = [0] * m
        for (a, b), c in pairs.items():
            coeffs[g.edge_index(a, b)] = c
        return LinearInequality.canonical(coeffs, rhs)

    first = set(itertools.combinations(range(5), 2)) - {(0, 1)}
    second = set(itertools.combinations([0, 1, 5, 6, 7], 2)) - {(0, 1)}
    q13 = make({(1, 2): 1, (0, 2): 1, (1, 5): -1, (0, 5): 1}, 2)
    q23 = make({**{e: 1 for e in first}, (1, 5): -1, (0, 5): 1}, 6)
    q14 = make({**{e: (-1 if 1 in e else 1) for e in second},
                (1, 2): 1, (0, 2): 1}, 4)
    q24 = make({**{e: 1 for e in first},
                **{e: (-1 if 1 in e else 1) for e in second}}, 8)
    for name, q in (("1+3", q13), ("2+3", q23), ("1+4", q14), ("2+4", q24)):
        assert q in fset, f"missing representative {name}"
    assert q24.rhs == 8 and is_facet(g, q24)
    assert maxcut(g).value == 12
    assert maxcut_bruteforce(g).value == 12  # 2^7 canonical cuts
    _announce(4, "projection yields all four sum classes, the rhs-8 "
                 "inequality is a facet, unit MaxCut = 12")


def test_criterion_5_edge_cycle_completeness():
    done = 0
    seed = 0
    while done < 20:
        seed += 1
        rnd = random.Random(9000 + seed)
        n = rnd.randrange(3, 8)
        p = rnd.uniform(0.35, 0.8)
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)
                 if rnd.random() < p]
        if not edges or len(edges) > 12:
            continue
        g = Graph(n, edges)
        if minor_exhaustive(g, "K5"):
            continue
        if len(cut_vectors(g)) > 64:
            continue
        system = facet_description(g)
        hull = brute_hull(cut_vectors(g))
        assert set(system.inequalities) == set(hull), f"seed {seed}"
        done += 1
    _announce(5, "20 random K5-minor-free graphs: edge+cycle system equals "
                 "the hull as a set")


def test_criterion_6_small_graph_table():
    def star(k):
        return Graph(k + 1, [(0, i, 1) for i in range(1, k + 1)])

    table = [
        (Graph(2, [(0, 1, 1)]), True),
        (path(3), True),
        (complete(3), True),
        (path(4), False),
        (star(3), False),
        (Graph(4, [(0, 1, 1), (2, 3, 1)]), True),
        (cycle(4), True),
        (Graph(4, [(0, 1, 1), (0, 3, 1), (1, 3, 1), (1, 2, 1)]), False),
        (Graph(4, [(0, 1, 1), (0, 3, 1), (1, 3, 1), (1, 2, 1), (2, 3, 1)]), False),
        (complete(4), True),
    ]
    for g, expected in table:
        rep = classify(g)
        _bs, bsl = brute_classify(g)
        assert rep.simplicial == expected == bsl, g.edges
    assert len(brute_hull(cut_vectors(complete(3)))) == 4
    assert len(brute_hull(cut_vectors(cycle(4)))) == 16
    hull_k4 = brute_hull(cut_vectors(complete(4)))
    vecs = cut_vectors(complete(4))
    assert len(hull_k4) == 16
    assert all(sum(1 for x in vecs if q.evaluate(x) == q.rhs) == 6
               for q in hull_k4)
    _announce(6, "all 10 small-graph verdicts reproduced and confirmed "
                 "geometrically; hull counts 4 / 16 / 16x6")


def test_criterion_7_simplicity_equivalence():
    graphs = connected_graphs_up_to_iso(5)
    assert len(graphs) == 31
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in graphs:
            rep = classify(g)
            bs, _bsl = brute_classify(g)
            assert rep.simple == bs == is_c4_minor_free(g), g.edges
    _announce(7, "classify.simple = geometric simplicity = C4-minor-free on "
                 "all 31 connected graphs with up to 5 nodes")


def test_criterion_8_property_suites():
    rnd = random.Random(808)
    # switching involution + facet preservation on 1000 (inequality, cut) pairs
    pool = []
    for g in (complete(4), complete(5), cycle(5), double_k5()):
        facets = list(facet_description(g).inequalities)
        cuts = enumerate_cuts(g)
        pool.append((g, facets, cuts))
    small = {id(p[0]): i < 3 for i, p in enumerate(pool)}
    for trial in range(1000):
        g, facets, cuts = pool[rnd.randrange(len(pool))]
        q = facets[rnd.randrange(len(facets))]
        w = cuts[rnd.randrange(len(cuts))]
        sw = switch(q, w)
        assert switch(sw, w) == q
        if trial % 11 == 0:  # full facet re-certification on a sample
            assert is_facet(g, sw)
    # even intersection of every cut with every chordless cycle, 50 graphs
    from helpers import random_graph
    for seed in range(50):
        g = random_graph(seed + 40, nmax=7)
        cycles = chordless_cycles(g)
        for c in enumerate_cuts(g):
            for cyc in cycles:
                hits = sum((c.indicator >> g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])) & 1
                           for i in range(len(cyc)))
                assert hits % 2 == 0
    # the cut vectors of assorted graphs affinely span R^E (full dimension)
    for g in (complete(3), complete(5), cycle(6), double_k5(),
              Graph(2, [(0, 1, 1)])):
        assert affine_rank(cut_vectors(g)) == len(g.edges)
    # SPR recomposition round-trip on 100 random 2-connected graphs
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        g = random_2connected(seed)
        if g is None:
            continue
        assert recompose(spr_tree(g), g.node_count) == g, seed
        done += 1
    # +-1 coefficients on every facet emitted for K33-minor-free instances
    for s in (5, 23, 57):
        spec = GeneratorSpec(seed=s, component_count=2, strict=(s % 2 == 0),
                             deletion_prob=(1, 10), weight_range=(1, 1),
                             tri_size=(4, 5))
        g = gen_k33free(spec)
        for q in facet_description(g).inequalities:
            assert set(q.coeffs) <= {-1, 0, 1}
    _announce(8, "switching involution/facet-preservation (1000 pairs), "
                 "cut-cycle parity (50 graphs), dim = |E|, 100 SPR "
                 "round-trips, +-1 facet coefficients")
