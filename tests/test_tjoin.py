import functools
import heapq
import importlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from cutpoly import (GeneratorSpec, MatchingError, TJoinError,
                     decompose_blocks, gen_k33free, maxcut, maxcut_bruteforce,
                     min_weight_perfect_matching, min_weight_t_join,
                     planar_embed, planar_maxcut)
from cutpoly import planar as planar_mod
from cutpoly import tjoin as tjoin_mod
from cutpoly.tjoin import _Blossom
from dense_blossom import DenseBlossom, unique_optimum
from fraction_blossom import FractionBlossom
from helpers import (assert_same_join, assert_same_matching, dense_optimum,
                     fraction_optimum, matching_oracle, networkx_optimum,
                     run_python, tjoin_oracle)

maxcut_mod = importlib.import_module("cutpoly.maxcut")  # `maxcut` is the function

# generated pieces of at least this size are solved by a dual T-join; smaller
# skeletons are enumerated and harvest none
TJOIN_PIECE = maxcut_mod.MAX_ENUMERATED_NODES + 1


def test_matching_two_points():
    pairs, total = min_weight_perfect_matching([[0, 7], [7, 0]])
    assert pairs == [(0, 1)] and total == 7


def test_matching_three_options():
    w = [[0, 1, 2, 5], [1, 0, 5, 2], [2, 5, 0, 1], [5, 2, 1, 0]]
    pairs, total = min_weight_perfect_matching(w)
    assert total == 2  # the three matchings cost 2, 4, 10


def _symmetric(n, draw):
    """An n x n symmetric matrix (zero diagonal) of weights `draw()`,
    drawn row by row above the diagonal."""
    w = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        w[i][j] = w[j][i] = draw()
    return w


def _six_points():
    rnd = random.Random(6)
    return [_symmetric(6, lambda: rnd.randint(-20, 20)) for _ in range(30)]


def _many_sizes():
    rnd = random.Random(123)
    out = []
    for _ in range(150):
        n = rnd.choice([2, 4, 6, 8, 10])
        lo, hi = rnd.choice([(0, 10), (-20, 20), (-5, 0), (0, 1)])
        out.append(_symmetric(n, lambda: rnd.randint(lo, hi)))
    return out


def _stress():
    # many tight ties force blossom shrinking and expansion
    rnd = random.Random(7)
    return [_symmetric(12, lambda: rnd.choice([0, 0, 1, 1, 2, 3, 100]))
            for _ in range(30)]


def test_matching_six_points_oracle():
    for w in _six_points():
        _pairs, total = min_weight_perfect_matching(w)
        assert total == matching_oracle(w)


def test_matching_oracle_many_sizes():
    for trial, w in enumerate(_many_sizes()):
        n = len(w)
        pairs, total = min_weight_perfect_matching(w)
        used = {x for p in pairs for x in p}
        assert used == set(range(n))
        assert total == sum(w[i][j] for i, j in pairs)
        assert total == matching_oracle(w), (trial, w)


def test_matching_blossom_stress():
    for trial, w in enumerate(_stress()):
        _pairs, total = min_weight_perfect_matching(w)
        assert total == matching_oracle(w), trial


def test_matching_sanity_vs_random_matchings():
    rnd = random.Random(99)
    n = 10
    w = _symmetric(n, lambda: rnd.randint(-50, 50))
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


@pytest.mark.parametrize("n, edges, terminals", [
    (2, [(0, 5, 1)], {0, 1}),
    (3, [(0, 1, 1), (1, 2, 1)], {0, 7}),
    (3, [(0, 1, 1), (1, 2, 1)], {-1, 0}),
], ids=["endpoint-5", "terminal-7", "terminal-minus-1"])
def test_tjoin_rejects_nodes_out_of_range(n, edges, terminals):
    """Endpoints and terminals outside 0..n-1 are bad input, refused
    before the connectivity check reads them."""
    with pytest.raises(TJoinError, match="out of range"):
        min_weight_t_join(n, edges, terminals)


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
    """Every total equals the all-pairs oracle's, and every join does
    where the terminal metric has one optimal matching only."""
    for n, edges, terminals in _tie_heavy_instances(500, seed=2019):
        assert_same_join(min_weight_t_join(n, edges, terminals),
                         n, edges, terminals)


def _dual_tjoins(specs):
    """The T-join instances `maxcut` solves on generated graphs."""
    calls = []
    real = tjoin_mod.min_weight_t_join

    def spy(*args):
        calls.append(args)
        return real(*args)

    tjoin_mod.min_weight_t_join = spy
    try:
        for spec in specs:
            maxcut(gen_k33free(spec))
    finally:
        tjoin_mod.min_weight_t_join = real
    return calls


def test_tjoin_equals_allpairs_paths_on_planar_duals():
    """The dual T-joins `maxcut` solves (zero-weight augmentation edges
    included) give the all-pairs total, and its join where the optimal
    matching is unique."""
    calls = _dual_tjoins([GeneratorSpec(
        seed=s, component_count=1 + s % 5,
        tri_size=(TJOIN_PIECE, TJOIN_PIECE + 4)) for s in range(20)])
    assert len(calls) > 40
    for args in calls:
        assert_same_join(min_weight_t_join(*args), *args)


@pytest.mark.parametrize("nearest", [1, 2])
def test_pricing_and_stalls_reach_the_allpairs_optimum(nearest, monkeypatch):
    """With one or two nearest terminals per search, the candidate pairs
    often admit no perfect matching or miss optimal pairs, so the stall
    widening and the pricing rounds both run; the joins still give the
    all-pairs totals, and its joins where the optimum is unique."""
    instances = list(_tie_heavy_instances(150, seed=7)) + _dual_tjoins(
        [GeneratorSpec(seed=s, component_count=1, kinds=("triangulation",),
                       tri_size=(n, n)) for s, n in ((1, 16), (2, 24), (3, 40))]
        + [GeneratorSpec(seed=s, component_count=4,
                         tri_size=(TJOIN_PIECE, TJOIN_PIECE + 2))
           for s in range(4)])
    metrics, solved = [], []
    real_init, real_solve = tjoin_mod._TerminalMetric.__init__, _Blossom.solve

    def init(self, *args):
        metrics.append(self)
        real_init(self, *args)

    def solve(self):
        mate = real_solve(self)
        solved.append(mate is not None)
        return mate

    monkeypatch.setattr(tjoin_mod, "K_NEAREST", nearest)
    monkeypatch.setattr(tjoin_mod._TerminalMetric, "__init__", init)
    monkeypatch.setattr(_Blossom, "solve", solve)
    for args in instances:
        assert_same_join(min_weight_t_join(*args), *args)
    assert not all(solved)  # some candidate set admitted no perfect matching
    assert solved.count(True) > len(metrics)  # some pricing round re-solved


# -- integer duals against the Fraction solver -----------------------------------

@functools.cache
def _dense_instances(count, seed):
    """Seeded dense instances, n <= 20, as tuples of rows: ties, negative
    weights and all-equal weights included."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n = rnd.choice(range(2, 21, 2))
        lo, hi = rnd.choice([(0, 10), (-20, 20), (-5, 0), (0, 1), (0, 3),
                             (7, 7), (-1000, 1000)])
        out.append(tuple(map(tuple, _symmetric(n, lambda: rnd.randint(lo, hi)))))
    return tuple(out)


def _negated(w):
    return tuple(tuple(-x for x in row) for row in w)


def test_integer_blossom_mates_equal_fraction_blossom():
    """The integer-dual solver ties with the `Fraction` solver in value
    everywhere, and picks its mates wherever the optimum is unique.  The
    instances are maximum-weight ones, as the `Fraction` solver takes
    them."""
    for w in map(_negated, _dense_instances(1000, seed=5)):
        assert_same_matching(w, min_weight_perfect_matching(w),
                             fraction_optimum(w))


def _tjoin_matchings(specs, monkeypatch):
    """The candidate graphs `maxcut`'s T-joins hand to the matching on
    generated graphs, each with its solver after `solve`, and the number
    of blossoms shrunk on the way."""
    seen, shrunk = [], []
    real_solve, real_add = _Blossom.solve, _Blossom._add_blossom

    def solve(self):
        mate = real_solve(self)
        seen.append((self, mate))
        return mate

    def add_blossom(self, *args):
        shrunk.append(self)
        real_add(self, *args)

    monkeypatch.setattr(_Blossom, "solve", solve)
    monkeypatch.setattr(_Blossom, "_add_blossom", add_blossom)
    for spec in specs:
        maxcut(gen_k33free(spec))
    monkeypatch.undo()
    return seen, len(shrunk)


def test_integer_blossom_on_tjoin_matrices(monkeypatch):
    """Each candidate graph, as a complete graph whose missing pairs weigh
    more than all others together, has the `Fraction` solver's optimum:
    the same value, the same mates where that optimum is unique, and no
    perfect matching when the solver stalled."""
    specs = [GeneratorSpec(seed=s, component_count=1,
                           kinds=("triangulation",), tri_size=(n, n))
             for s, n in ((1, 16), (2, 20), (3, 24))]
    specs += [GeneratorSpec(seed=s, component_count=6,
                            tri_size=(TJOIN_PIECE, TJOIN_PIECE + 2))
              for s in (4, 5)]
    matchings, shrunk = _tjoin_matchings(specs, monkeypatch)
    assert len(matchings) > 10 and max(s.n for s, _m in matchings) >= 20
    for solver, mate in matchings:
        k = solver.n
        big = 1 + sum(abs(w) for _i, _j, w in solver.edges)
        w = [[big] * k for _ in range(k)]
        for i, j, d in solver.edges:
            w[i][j] = w[j][i] = d
        w = tuple(map(tuple, w))
        expect = fraction_optimum(w)
        if mate is None:
            assert expect[1] >= big
            continue
        pairs = [(i, j) for i, j in enumerate(mate) if i < j]
        assert_same_matching(w, (pairs, sum(w[i][j] for i, j in pairs)),
                             expect)
    assert shrunk  # some blossom shrunk


def test_matching_value_equals_networkx():
    pytest.importorskip("networkx")
    for w in _dense_instances(200, seed=11):
        _pairs, total = min_weight_perfect_matching(w)
        assert total == networkx_optimum(w)


def test_matching_values_equal_every_oracle():
    """On every dense instance of this file, the value equals the frozen
    dense blossom's, the `Fraction` solver's and networkx's."""
    pytest.importorskip("networkx")
    sets = [_six_points(), _many_sizes(), _stress(),
            map(_negated, _dense_instances(1000, seed=5)),
            _dense_instances(200, seed=11),
            [_negated(_nested_blossoms(24))]]
    rnd = random.Random(99)
    sets.append([_symmetric(10, lambda: rnd.randint(-50, 50))])
    for w in itertools.chain.from_iterable(sets):
        w = tuple(map(tuple, w))
        _pairs, total = min_weight_perfect_matching(w)
        assert total == dense_optimum(w)[1] == fraction_optimum(w)[1] \
            == networkx_optimum(w), w


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
    """The nested optimum rotates 12-deep blossoms without recursion, to
    the mates of the frozen dense solver, whose rotation is iterative
    too; the `Fraction` solver's recursive rotation runs out of stack."""
    w = _nested_blossoms(24)
    n = len(w)
    expect = DenseBlossom([row[:] for row in w]).solve()
    assert expect[0] == n - 1  # the base moves to the innermost point
    assert unique_optimum([[-x for x in row] for row in w],
                          [(i, j) for i, j in enumerate(expect) if i < j])
    edges = [(i, j, -w[i][j]) for i, j in itertools.combinations(range(n), 2)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        assert _Blossom(n, edges).solve() == expect
        with pytest.raises(RecursionError):  # the recursive rotation
            FractionBlossom([row[:] for row in w]).solve()
    finally:
        sys.setrecursionlimit(limit)


# the greedy start matches 0-1 only: 2 and 3 are each tight to 0 and 1
# alone, so a phase must match them
HALF_GREEDY = [[0, 1, 1, 1], [1, 0, 1, 9], [1, 1, 0, 9], [1, 9, 9, 0]]


def test_unmatched_vertex_raises(monkeypatch):
    # the perfect-matching check is explicit code, not an assert
    monkeypatch.setattr(_Blossom, "_run_phase", lambda self: None)
    with pytest.raises(tjoin_mod.CertificationError):
        min_weight_perfect_matching(HALF_GREEDY)


# each blossom invariant, broken on a fresh solver of K4; then each
# matching and pricing certificate, broken on a real T-join: the dual of
# an 80-node stacked triangulation, whose pricing round reaches pairs
# outside the candidates
BLOSSOM_CHECKS = """
import itertools, random
from cutpoly import CertificationError, dual_graph, planar_embed, tjoin
from cutpoly.tjoin import _Blossom
from helpers import stacked_triangulation

def even_cycle(s):
    # vertex 1 hangs below vertex 0 by edge 0-1 itself, so closing that
    # edge would make a cycle of two children
    s.label_end[1] = 0  # endpoint 0 of edge 0 is vertex 0
    s._add_blossom(0, 0)

def unmatched_free_blossom(s):
    s._assign_label(1, s.T, 0)  # vertex 1 is exposed, yet not a root

def vertex_in_no_child(s):
    s._child_of(s.n, 0)  # vertex 0 lies in no blossom

def no_convergence(s):
    s._scan = lambda: False
    s._dual_update = lambda: True
    s._run_phase()

for breaking in (even_cycle, unmatched_free_blossom, vertex_in_no_child,
                 no_convergence):
    try:
        breaking(_Blossom(4, [(i, j, 1) for i, j
                              in itertools.combinations(range(4), 2)]))
    except CertificationError as exc:
        print(exc)

d = dual_graph(planar_embed(stacked_triangulation(80, random.Random(80))))
rnd = random.Random(7)
edges = [(a, b, rnd.randint(0, 9)) for a, b, _i, _w in d.edges]
real_certify = tjoin._TerminalMetric.certify

def odd_halving():
    _Blossom._half(3)

def phases_without_augmenting():
    _Blossom._run_phase = lambda self: True
    tjoin.min_weight_perfect_matching({half_greedy})

def forged(forge):
    def certify(self, solver):
        forge(self, solver)
        real_certify(self, solver)
    tjoin._TerminalMetric.certify = certify
    tjoin.min_weight_t_join(d.node_count, edges, range(d.node_count))

def short_search(metric, solver):
    i = next(i for i in range(metric.k) if metric.radius(i) < float("inf"))
    solver.y[i] = metric.radius(i) + 1

def violated_outside_candidates(metric, solver):
    # raise both ends of a found pair outside the candidates up to their
    # search radii: the radius check still holds, the pair's does not
    y = solver.y
    rise = [min(metric.radius(i), 10 ** 6) - y[i] for i in range(metric.k)]
    (i, j), w = next((p, w) for p, w in metric.known.items()
                     if p not in metric.candidates
                     and solver.pair_slack(*p, w) < rise[p[0]] + rise[p[1]])
    y[i], y[j] = y[i] + rise[i], y[j] + rise[j]
    print("forged pair outside the candidates:", solver.pair_slack(i, j, w) < 0)

for breaking in (odd_halving, lambda: forged(short_search),
                 lambda: forged(violated_outside_candidates),
                 phases_without_augmenting):
    try:
        breaking()
    except CertificationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_blossom_checks_raise_without_asserts(flags):
    tests_dir = str(Path(__file__).resolve().parent)
    script = BLOSSOM_CHECKS.replace("{half_greedy}", repr(HALF_GREEDY))
    proc = run_python(*flags, "-c",
                      f"import sys; sys.path.insert(0, {tests_dir!r})\n"
                      + script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "blossom cycle must be odd",
        "free non-root blossom must be matched",
        "vertex lies in no child of the blossom",
        "matching phase failed to converge",
        "odd doubled dual: the halving is inexact",
        "a terminal's search stops short of its pricing radius",
        "forged pair outside the candidates: True",
        "pricing left a violated terminal pair",
        "perfect matching left a vertex unmatched"]


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
    graphs = [gen_k33free(GeneratorSpec(
        seed=seed, component_count=2, tri_size=(TJOIN_PIECE, TJOIN_PIECE + 1)))
        for seed in range(20)]
    values = [maxcut(g).value for g in graphs]
    monkeypatch.undo()
    assert sum(pairs) >= 10  # beta+ and beta- came through one call
    # two glued triangulations are planar, and too large to enumerate
    assert values == [(maxcut_bruteforce if planar_embed(g) is None
                       else planar_maxcut)(g).value for g in graphs]


def test_one_embedding_per_planar_skeleton(monkeypatch):
    """Decomposition and elimination embed each planar R skeleton once,
    through the block entry, and never through `planar_embed`."""
    calls, whole = [], []
    real = planar_mod.embed_block

    def count(g):
        calls.append(g.node_count)
        return real(g)

    monkeypatch.setattr(planar_mod, "embed_block", count)
    monkeypatch.setattr(planar_mod, "planar_embed", whole.append)
    for seed in range(4):
        g = gen_k33free(GeneratorSpec(seed=seed, component_count=6))
        calls.clear()
        state = maxcut_mod.EliminationState(decompose_blocks(g)[0])
        planar = [sid for sid, (cls, _e, _sg) in state.r_skeletons.items()
                  if cls != "K5"]
        state.run()
        assert len(calls) == len(planar) and not whole
