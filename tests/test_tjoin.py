import heapq
import importlib
import itertools
import random
import sys

import pytest

from cutpoly import (GeneratorSpec, MatchingError, TJoinError,
                     decompose_blocks, gen_k33free, maxcut, maxcut_bruteforce,
                     min_weight_perfect_matching, min_weight_t_join,
                     planar_embed)
from cutpoly import planar as planar_mod
from cutpoly import tjoin as tjoin_mod
from cutpoly.tjoin import _Blossom
from allpairs_tjoin import allpairs_t_join
from fraction_blossom import FractionBlossom
from helpers import matching_oracle, run_python, tjoin_oracle

maxcut_mod = importlib.import_module("cutpoly.maxcut")  # `maxcut` is the function


def test_matching_two_points():
    pairs, total = min_weight_perfect_matching([[0, 7], [7, 0]])
    assert pairs == [(0, 1)] and total == 7


def test_matching_three_options():
    w = [[0, 1, 2, 5], [1, 0, 5, 2], [2, 5, 0, 1], [5, 2, 1, 0]]
    pairs, total = min_weight_perfect_matching(w)
    assert total == 2  # the three matchings cost 2, 4, 10


def test_matching_six_points_oracle():
    rnd = random.Random(6)
    for _ in range(30):
        w = [[0] * 6 for _ in range(6)]
        for i, j in itertools.combinations(range(6), 2):
            w[i][j] = w[j][i] = rnd.randint(-20, 20)
        _pairs, total = min_weight_perfect_matching(w)
        assert total == matching_oracle(w)


def test_matching_oracle_many_sizes():
    rnd = random.Random(123)
    for trial in range(150):
        n = rnd.choice([2, 4, 6, 8, 10])
        lo, hi = rnd.choice([(0, 10), (-20, 20), (-5, 0), (0, 1)])
        w = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            w[i][j] = w[j][i] = rnd.randint(lo, hi)
        pairs, total = min_weight_perfect_matching(w)
        used = {x for p in pairs for x in p}
        assert used == set(range(n))
        assert total == sum(w[i][j] for i, j in pairs)
        assert total == matching_oracle(w), (trial, w)


def test_matching_blossom_stress():
    # many tight ties force blossom shrinking and expansion
    rnd = random.Random(7)
    for trial in range(30):
        n = 12
        w = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            w[i][j] = w[j][i] = rnd.choice([0, 0, 1, 1, 2, 3, 100])
        _pairs, total = min_weight_perfect_matching(w)
        assert total == matching_oracle(w), trial


def test_matching_sanity_vs_random_matchings():
    rnd = random.Random(99)
    n = 10
    w = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        w[i][j] = w[j][i] = rnd.randint(-50, 50)
    _pairs, total = min_weight_perfect_matching(w)
    for _ in range(50):
        perm = list(range(n))
        rnd.shuffle(perm)
        cost = sum(w[perm[2 * k]][perm[2 * k + 1]] for k in range(n // 2))
        assert total <= cost


def test_matching_rejects_bad_input():
    with pytest.raises(MatchingError):
        min_weight_perfect_matching([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(MatchingError):
        min_weight_perfect_matching([[0, 1], [2, 0]])
    assert min_weight_perfect_matching([]) == ([], 0)


# -- T-joins --------------------------------------------------------------------

def test_tjoin_empty_terminals_nonnegative():
    join, total = min_weight_t_join(3, [(0, 1, 2), (1, 2, 3)], set())
    assert join == () and total == 0


def test_tjoin_negative_edge_example():
    join, total = min_weight_t_join(3, [(0, 1, -2), (1, 2, 3)], {0, 1})
    assert join == (0,) and total == -2


def test_tjoin_rejects_bad_input():
    with pytest.raises(TJoinError):
        min_weight_t_join(3, [(0, 1, 1), (1, 2, 1)], {0})
    with pytest.raises(TJoinError):
        min_weight_t_join(4, [(0, 1, 1), (2, 3, 1)], {0, 1})


def _random_multigraph(rnd):
    n = rnd.randrange(2, 8)
    edges = []
    order = list(range(n))
    rnd.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], order[rnd.randrange(i)], rnd.randint(-8, 8)))
    for _ in range(rnd.randrange(0, 5)):
        u = rnd.randrange(n)
        v = rnd.randrange(n)
        if u == v and rnd.random() < 0.5:
            continue  # keep some loops, skip others
        edges.append((min(u, v), max(u, v), rnd.randint(-8, 8)))
    return n, edges


def test_tjoin_exhaustive_oracle():
    rnd = random.Random(99)
    checked = 0
    while checked < 120:
        n, edges = _random_multigraph(rnd)
        if len(edges) > 11:
            continue
        k = rnd.randrange(0, n + 1) & ~1
        terminals = set(rnd.sample(range(n), k))
        join, total = min_weight_t_join(n, edges, terminals)
        assert total == tjoin_oracle(n, edges, terminals)
        deg = [0] * n
        for i in join:
            u, v, _w = edges[i]
            if u != v:
                deg[u] ^= 1
                deg[v] ^= 1
        assert {v for v in range(n) if deg[v]} == terminals
        checked += 1


def _shortest_path(n, edges, s, t):
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        if u != v:
            adj[u].append((v, w))
            adj[v].append((u, w))
    dist = {s: 0}
    heap = [(0, s)]
    seen = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in seen:
            continue
        seen.add(x)
        if x == t:
            return d
        for y, w in adj[x]:
            if y not in seen and dist.get(y, 1 << 62) > d + w:
                dist[y] = d + w
                heapq.heappush(heap, (d + w, y))
    return None


def test_tjoin_pair_equals_shortest_path():
    rnd = random.Random(777)
    for _ in range(60):
        n = rnd.randrange(3, 9)
        edges = []
        order = list(range(n))
        rnd.shuffle(order)
        for i in range(1, n):
            edges.append((order[i], order[rnd.randrange(i)], rnd.randint(0, 9)))
        for _ in range(rnd.randrange(0, 6)):
            u, v = rnd.sample(range(n), 2)
            edges.append((u, v, rnd.randint(0, 9)))
        s, t = rnd.sample(range(n), 2)
        _join, total = min_weight_t_join(n, edges, {s, t})
        assert total == _shortest_path(n, edges, s, t)


def test_tjoin_negative_transform_identity():
    rnd = random.Random(31337)
    for _ in range(60):
        n, edges = _random_multigraph(rnd)
        k = rnd.randrange(0, n + 1) & ~1
        terminals = set(rnd.sample(range(n), k))
        _j, total = min_weight_t_join(n, edges, terminals)
        neg_sum = sum(w for _u, _v, w in edges if w < 0)
        flip = [0] * n
        for u, v, w in edges:
            if w < 0 and u != v:
                flip[u] ^= 1
                flip[v] ^= 1
        t2 = terminals ^ {v for v in range(n) if flip[v]}
        _j2, total2 = min_weight_t_join(n, [(u, v, abs(w)) for u, v, w in edges], t2)
        assert total == neg_sum + total2


# -- paths traced for matched pairs against all-pairs paths --------------------

def _tie_heavy_instances(count, seed):
    """Connected multigraphs, n <= 15, whose weights are mostly 0 (so
    zero-weight cycles and tied shortest paths abound), some negative,
    with parallels and loops, and an even terminal set."""
    rnd = random.Random(seed)
    weights = [0, 0, 0, 0, 1, 2, 5, -1, -3]
    for _ in range(count):
        n = rnd.randrange(1, 16)
        edges = [(rnd.randrange(v), v, rnd.choice(weights))
                 for v in range(1, n)]
        for _ in range(rnd.randrange(2 * n + 1)):
            u, v = rnd.randrange(n), rnd.randrange(n)
            edges.append((min(u, v), max(u, v), rnd.choice(weights)))
        rnd.shuffle(edges)
        yield n, edges, rnd.sample(range(n), 2 * rnd.randrange(n // 2 + 1))


def test_tjoin_equals_allpairs_paths():
    for n, edges, terminals in _tie_heavy_instances(500, seed=2019):
        expect = allpairs_t_join(n, edges, terminals)
        assert min_weight_t_join(n, edges, terminals) == expect, \
            (n, edges, terminals)


def test_tjoin_equals_allpairs_paths_on_planar_duals(monkeypatch):
    """The dual T-joins `maxcut` solves (zero-weight augmentation edges
    included) give the same join as the all-pairs paths."""
    calls = []
    real = tjoin_mod.min_weight_t_join

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tjoin_mod, "min_weight_t_join", spy)
    for spec in [GeneratorSpec(seed=s, component_count=1 + s % 5,
                               tri_size=(4, 12)) for s in range(20)]:
        maxcut(gen_k33free(spec))
    assert len(calls) > 40
    for args in calls:
        assert real(*args) == allpairs_t_join(*args)


# -- integer duals against the Fraction solver -----------------------------------

def _dense_instances(count, seed):
    """Seeded dense max-weight instances, n <= 20: ties, negative weights
    and all-equal weights included."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.choice(range(2, 21, 2))
        lo, hi = rnd.choice([(0, 10), (-20, 20), (-5, 0), (0, 1), (0, 3),
                             (7, 7), (-1000, 1000)])
        w = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            w[i][j] = w[j][i] = rnd.randint(lo, hi)
        yield w


def test_integer_blossom_mates_equal_fraction_blossom():
    for w in _dense_instances(1000, seed=5):
        expect = FractionBlossom([row[:] for row in w]).solve()
        assert _Blossom([row[:] for row in w]).solve() == expect, w


def _tjoin_matrices(specs):
    """The matrices `maxcut` hands to the matching on generated graphs."""
    seen = []
    real = tjoin_mod.min_weight_perfect_matching

    def spy(weights):
        seen.append([row[:] for row in weights])
        return real(weights)

    tjoin_mod.min_weight_perfect_matching = spy
    try:
        for spec in specs:
            maxcut(gen_k33free(spec))
    finally:
        tjoin_mod.min_weight_perfect_matching = real
    return seen


def test_integer_blossom_on_tjoin_matrices():
    specs = [GeneratorSpec(seed=s, component_count=1,
                           kinds=("triangulation",), tri_size=(n, n))
             for s, n in ((1, 16), (2, 20), (3, 24))]
    specs += [GeneratorSpec(seed=s, component_count=6) for s in (4, 5)]
    matrices = _tjoin_matrices(specs)
    assert len(matrices) > 10 and max(map(len, matrices)) >= 20
    shrunk = 0
    for m in matrices:
        w = [[-x for x in row] for row in m]
        solver = _Blossom(w)
        assert solver.solve() == FractionBlossom(w).solve()
        shrunk += solver.next_id > solver.n
    assert shrunk  # some instance built a blossom


def test_matching_value_equals_networkx():
    nx = pytest.importorskip("networkx")
    for w in _dense_instances(200, seed=11):
        n = len(w)
        g = nx.Graph()
        g.add_weighted_edges_from((i, j, -w[i][j]) for i, j in
                                  itertools.combinations(range(n), 2))
        best = nx.max_weight_matching(g, maxcardinality=True)
        assert len(best) == n // 2
        _pairs, total = min_weight_perfect_matching(w)
        assert total == sum(w[i][j] for i, j in best)


def _nested_blossoms(k):
    """2k + 2 points whose optimum nests k blossoms: ring i joins the
    blossom so far by two new points at weight 1000 - 10 i, and only the
    innermost point likes the spare last point."""
    n = 2 * k + 2
    w = [[0] * n for _ in range(n)]
    for i in range(1, k + 1):
        for a, b in itertools.combinations(range(2 * i + 1), 2):
            if b >= 2 * i - 1:
                w[a][b] = w[b][a] = 1000 - 10 * i
    w[0][n - 1] = w[n - 1][0] = 1
    return w


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_rotate_needs_no_recursion():
    w = _nested_blossoms(24)
    expect = _Blossom([row[:] for row in w]).solve()
    assert expect[0] == len(w) - 1  # the base moves to the innermost point
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        assert _Blossom([row[:] for row in w]).solve() == expect
        with pytest.raises(RecursionError):  # the recursive rotation
            FractionBlossom([row[:] for row in w]).solve()
    finally:
        sys.setrecursionlimit(limit)


# each blossom invariant, broken on a fresh solver of K4
BLOSSOM_CHECKS = """
from cutpoly import CertificationError
from cutpoly.tjoin import _Blossom

def even_cycle(s):
    # surface 1 hangs below surface 0, and the tight edge 1-0 would close
    # a cycle of two children
    s.label_edge = {0: None, 1: (0, 1)}
    s._add_blossom([1, 0], [0], 1, 0, [])

def unmatched_free_blossom(s):
    s._grow(0, 1, 1, [])  # vertex 1 is free, yet not a root

def vertex_in_no_child(s):
    s.child_containing_after_dissolve(0, [2, 3])

def no_convergence(s):
    s._scan = lambda queue: None
    s._dual_update = lambda queue: True
    s._run_phase()

for breaking in (even_cycle, unmatched_free_blossom, vertex_in_no_child,
                 no_convergence):
    try:
        breaking(_Blossom([[int(i != j) for j in range(4)] for i in range(4)]))
    except CertificationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_blossom_checks_raise_without_asserts(flags):
    proc = run_python(*flags, "-c", BLOSSOM_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "blossom cycle must be odd",
        "free non-root blossom must be matched",
        "vertex lies in no child of the blossom",
        "matching phase failed to converge"]


def test_unmatched_vertex_raises(monkeypatch):
    # the perfect-matching check is explicit code, not an assert
    monkeypatch.setattr(_Blossom, "_run_phase", lambda self: None)
    with pytest.raises(tjoin_mod.CertificationError):
        min_weight_perfect_matching([[0, 1], [1, 0]])


def test_odd_dual_raises():
    # an odd doubled dual is refused, never floored
    with pytest.raises(tjoin_mod.CertificationError):
        _Blossom._half(3)
    assert _Blossom._half(-4) == -2


# -- one embedding per planar skeleton ------------------------------------------

def test_shared_embedding_gives_fresh_betas(monkeypatch):
    """beta+ and beta- from the classification's embedding equal those of
    a fresh embedding of the reweighted skeleton, and of brute force."""
    real = maxcut_mod._embedded_maxcuts
    pairs = []

    def check(emb, forceds):
        results = real(emb, forceds)
        fresh = real(planar_embed(emb.graph), forceds)
        assert [r.value for r in results] == [r.value for r in fresh]
        assert [r.value for r in results] == [
            maxcut_bruteforce(emb.graph, f).value for f in forceds]
        pairs.append(len(forceds) == 2)
        return results

    monkeypatch.setattr(maxcut_mod, "_embedded_maxcuts", check)
    for seed in range(6):
        g = gen_k33free(GeneratorSpec(seed=seed, component_count=5))
        assert maxcut(g).value == maxcut_bruteforce(g).value
    assert sum(pairs) >= 10  # beta+ and beta- came through one call


def test_one_embedding_per_planar_skeleton(monkeypatch):
    calls = []
    real = planar_mod.planar_embed

    def count(g):
        calls.append(g.node_count)
        return real(g)

    monkeypatch.setattr(planar_mod, "planar_embed", count)
    for seed in range(4):
        g = gen_k33free(GeneratorSpec(seed=seed, component_count=6))
        calls.clear()
        state = maxcut_mod.EliminationState(decompose_blocks(g)[0])
        planar = [sid for sid, (cls, _e) in state.r_skeletons.items()
                  if cls != "K5"]
        state.run()
        assert len(calls) == len(planar)
