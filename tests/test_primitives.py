"""Each shared primitive against a local copy of the code it replaced.

The copies below are the implementations that the single homes folded
away: the `Fraction` elimination behind the double-description hull, the
per-mask K5 enumerator, and the initial-cycle DFS that the planar
embedder carried.  They serve as oracles only.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from cutpoly import (Graph, GraphError, brute_hull, cut_from_side, cut_vectors,
                     cut_weight, gen_k33free,
                     GeneratorSpec, maxcut_bruteforce, planar_embed)
from cutpoly import graphs, planar, polytope
from cutpoly.graphs import disjoint_sets, initial_cycle
from cutpoly.polytope import affine_rank
import frozen_polar_hull
from frozen_dd_cone import dd_cone
from helpers import (complete, cycle, double_k5, live_hull, octahedron, path,
                     random_2connected, random_graph,
                     random_planar_2connected, run_python,
                     verify_small_cut_vectors)


# -- the replaced code ----------------------------------------------------------

def frac_rank(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    col = 0
    while col < cols and rank < len(rows):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def frac_invert(mat):
    d = len(mat)
    a = [list(row) + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(mat)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                fr = a[r][col]
                a[r] = [x - fr * y for x, y in zip(a[r], a[col])]
    return [row[d:] for row in a]


def frac_primitive(vec):
    denom = 1
    fracs = [Fraction(v) for v in vec]
    for v in fracs:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in fracs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return tuple(c // g for c in ints)


def frac_dd_cone(rows):
    d = len(rows[0])
    basis = []
    mat = []
    for i, r in enumerate(rows):
        if frac_rank(mat + [list(r)]) == len(mat) + 1:
            basis.append(i)
            mat.append(list(r))
        if len(basis) == d:
            break
    inv = frac_invert([[Fraction(x) for x in r] for r in mat])
    done = list(basis)

    def dot(i, vec):
        return sum(a * b for a, b in zip(rows[i], vec))

    rays = []
    for j in range(d):
        vec = frac_primitive([-inv[i][j] for i in range(d)])
        rays.append((vec, frozenset(i for i in done if dot(i, vec) == 0)))
    for idx in range(len(rows)):
        if idx in basis:
            continue
        vals = {ray[0]: dot(idx, ray[0]) for ray in rays}
        keep = [r for r in rays if vals[r[0]] < 0]
        drop = [r for r in rays if vals[r[0]] > 0]
        zero = [r for r in rays if vals[r[0]] == 0]
        new_rays = []
        for rk, rd in itertools.product(keep, drop):
            common = rk[1] & rd[1]
            if any(o is not rk and o is not rd and common <= o[1]
                   for o in rays):
                continue
            a, b = vals[rd[0]], vals[rk[0]]
            vec = frac_primitive([a * x - b * y for x, y in zip(rk[0], rd[0])])
            tight = frozenset(i for i in done if dot(i, vec) == 0) | {idx}
            new_rays.append((vec, tight))
        done.append(idx)
        rays = [(v, t | {idx}) for v, t in zero] + keep + new_rays
        seen = {}
        for v, t in rays:
            seen[v] = t | seen.get(v, frozenset())
        rays = list(seen.items())
    return [v for v, _t in rays]


def mask_nodes(t):
    out = []
    v = 1
    while t:
        if t & 1:
            out.append(v)
        t >>= 1
        v += 1
    return tuple(out)


def dense_maxcut(g, forced=None):
    best = None
    best_side = None
    for t in range(1 << (g.node_count - 1)):
        side = mask_nodes(t)
        c = cut_from_side(g, side)
        if forced is not None:
            idx, in_cut = forced
            if ((c.indicator >> idx) & 1) != int(in_cut):
                continue
        w = cut_weight(g, c)
        if best is None or w > best:
            best, best_side = w, frozenset(side)
    return best, best_side


def dfs_initial_cycle(g):
    parent = {0: -1}
    dfs = [(0, iter(g.neighbors(0)))]
    cycle = None
    while dfs and cycle is None:
        x, it = dfs[-1]
        advanced = False
        for y, _i in it:
            if y == parent[x]:
                continue
            if y in parent:
                walk = [x]
                while walk[-1] != y:
                    walk.append(parent[walk[-1]])
                cycle = list(reversed(walk))
                break
            parent[y] = x
            dfs.append((y, iter(g.neighbors(y))))
            advanced = True
            break
        if cycle is None and not advanced:
            dfs.pop()
    assert cycle is not None
    return cycle


# -- exact elimination ----------------------------------------------------------------

def hull_graphs():
    """The graphs of the hull tests, plus seeded generated ones."""
    k5_ear = Graph(6, [(u, v, 1) for u, v in itertools.combinations(range(5), 2)]
                   + [(0, 5, 1), (1, 5, 1)])
    out = [complete(2), complete(3), complete(4), complete(5), cycle(4),
           cycle(5), path(4), octahedron(), octahedron().without_edge(0),
           k5_ear, k5_ear.without_edge(0),
           Graph(6, [e for e in k5_ear.edges
                     if (e[0], e[1]) not in [(0, 1), (0, 5)]]),
           Graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]),
           Graph(7, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1),
                     (5, 6, 1), (3, 6, 1)])]
    out += list(map(random_graph, range(1, 16)))
    out += [gen_k33free(GeneratorSpec(seed=seed, strict=False,
                                      deletion_prob=(1, 3)))
            for seed in range(6)]
    return [g for g in out if g.edges and len(g.edges) <= 12
            and len(cut_vectors(g)) <= 64]


def random_point_sets(count):
    rnd = random.Random(1968)
    for _ in range(count):
        d = rnd.randrange(1, 7)
        yield [tuple(rnd.randint(-4, 4) for _ in range(d))
               for _ in range(rnd.randrange(1, 16))]


def test_affine_rank_matches_fraction_elimination():
    sets = list(random_point_sets(400))
    sets += [cut_vectors(g) for g in hull_graphs()]
    for pts in sets:
        want = frac_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
        assert affine_rank(pts) == want, pts


def test_brute_hull_matches_fraction_elimination(monkeypatch):
    inputs = [cut_vectors(g) for g in hull_graphs()]
    inputs += [pts for pts in random_point_sets(150)
               if affine_rank(pts) == len(pts[0])]
    got = [live_hull(tuple(pts)) for pts in inputs]
    monkeypatch.setattr(polytope, "_dd_cone", frac_dd_cone)
    assert got == [tuple(brute_hull(pts)) for pts in inputs]


def test_brute_hull_matches_frozen_dd_cone(monkeypatch):
    """The same lists as with the cone from before tight sets were
    carried, on the benchmark's verify-small pool and random point sets."""
    inputs = list(verify_small_cut_vectors(1))
    inputs += [pts for pts in random_point_sets(150)
               if affine_rank(pts) == len(pts[0])]
    got = [live_hull(tuple(pts)) for pts in inputs]
    monkeypatch.setattr(polytope, "_dd_cone", dd_cone)
    assert got == [tuple(brute_hull(pts)) for pts in inputs]


def test_brute_hull_matches_frozen_polar_hull():
    """The cone of the homogenized points gives the same lists as the
    centred polar it replaced."""
    inputs = [pts for seed in (1, 7) for pts in verify_small_cut_vectors(seed)]
    inputs += [cut_vectors(g) for g in hull_graphs()]
    inputs += [pts for pts in random_point_sets(150)
               if affine_rank(pts) == len(pts[0])]
    for pts in inputs:
        assert list(live_hull(tuple(pts))) == \
            frozen_polar_hull.brute_hull(pts), pts


def test_hull_ray_without_x_part_raises_without_asserts():
    proc = run_python("-O", "-c", """if 1:
        from cutpoly import CertificationError, brute_hull, polytope
        polytope._dd_cone = lambda rows: [(0,) * (len(rows[0]) - 1) + (-1,)]
        try:
            brute_hull([(0, 0), (1, 0), (0, 1)])
        except CertificationError as exc:
            print(exc)
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "hull facet ray has no x part"


@pytest.mark.parametrize("pts", [
    [(3, 1)],
    [(0, 0), (1, 1), (2, 2), (1, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
    [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1), (2, 0, 0, 1)],
])
def test_brute_hull_refuses_flat_points(pts):
    assert affine_rank(pts) < len(pts[0])
    with pytest.raises(GraphError, match="full-dimensional"):
        brute_hull(pts)


# -- cut enumeration --------------------------------------------------------------------

def test_forced_k5_maxcut_matches_dense_enumerator():
    rnd = random.Random(5)
    for _ in range(25):
        g = Graph(5, [(u, v, rnd.randint(-9, 9))
                      for u, v in itertools.combinations(range(5), 2)])
        for idx in range(10):
            for in_cut in (True, False):
                res = maxcut_bruteforce(g, (idx, in_cut))
                assert (res.value, frozenset(res.cut.side_nodes())) == \
                    dense_maxcut(g, (idx, in_cut))


def test_bruteforce_ties_take_smallest_side_mask():
    # sides {3} (mask 8) and {1, 3} (mask 10) both reach the optimum 1;
    # the sorted-tuple order would pick (1, 3)
    g = Graph(4, [(0, 2, -2), (1, 2, 0), (2, 3, 1)])
    assert maxcut_bruteforce(g).cut.side_nodes() == (3,)
    for seed in range(40):
        g = random_graph(seed, nmax=7)
        if g.edges:
            res = maxcut_bruteforce(g)
            assert (res.value, res.cut.side) == \
                (max(cut_weight(g, c) for c in graphs.enumerate_cuts(g)),
                 min(c.side for c in graphs.enumerate_cuts(g)
                     if cut_weight(g, c) == res.value))


def test_bruteforce_exact_beyond_int64():
    big = 1 << 70
    g = Graph(4, [(0, 1, big), (1, 2, -big), (2, 3, big + 1), (0, 3, 5)])
    res = maxcut_bruteforce(g)
    assert res.value == max(cut_weight(g, c) for c in graphs.enumerate_cuts(g))
    assert res.value == 2 * big + 1


def test_bruteforce_chunks_agree(monkeypatch):
    cases = [random_graph(seed, nmax=9, p=0.6) for seed in range(12)]
    whole = [maxcut_bruteforce(g) for g in cases]
    forced = [maxcut_bruteforce(g, (0, True)) for g in cases if g.edges]
    monkeypatch.setattr(graphs, "_CELLS", 7)
    assert whole == [maxcut_bruteforce(g) for g in cases]
    assert forced == [maxcut_bruteforce(g, (0, True)) for g in cases if g.edges]


# -- initial-cycle DFS ---------------------------------------------------------------

def two_connected_graphs():
    out = [g for g in map(random_2connected, range(150)) if g is not None]
    return out + [random_planar_2connected(seed) for seed in range(60)]


def test_initial_cycle_matches_old_dfs(monkeypatch):
    cases = two_connected_graphs() + [double_k5(), octahedron()]
    for g in cases:
        assert initial_cycle(g) == dfs_initial_cycle(g)
    embeddings = [planar_embed(g) for g in cases]
    monkeypatch.setattr(planar, "initial_cycle", dfs_initial_cycle)
    assert embeddings == [planar_embed(g) for g in cases]
    assert sum(e is not None for e in embeddings) >= 60


def test_initial_cycle_needs_a_cycle():
    with pytest.raises(graphs.NotTwoConnectedError):
        initial_cycle(path(4))


# -- union-find ----------------------------------------------------------------------

def test_disjoint_sets_match_networkx():
    nx = pytest.importorskip("networkx")
    rnd = random.Random(31)
    for _ in range(300):
        n = rnd.randint(0, 12)
        pairs = [(rnd.randrange(n), rnd.randrange(n))
                 for _ in range(rnd.randint(0, 2 * n))] if n else []
        pairs += pairs[:rnd.randint(0, len(pairs))]  # parallel pairs
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(pairs)
        want = sorted(sorted(c) for c in nx.connected_components(h))
        assert disjoint_sets(n, pairs) == want
