"""Shared builders and independent oracles for the test suite.

Oracles here stay deliberately naive (full enumeration, recursion over
subsets) so they certify the package's algorithms without sharing code
paths with them.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import cutpoly
from cutpoly import (Graph, GeneratorSpec, brute_hull, cut_vectors,
                     decompose_blocks, format_graph, gen_k33free, is_connected,
                     is_k_connected)
from cutpoly.spqr import _completion
import frozen_spqr
from allpairs_tjoin import allpairs_t_join, allpairs_unique
from dense_blossom import dense_matching
from fraction_blossom import FractionBlossom


def complete(n: int, w: int = 1) -> Graph:
    return Graph(n, [(u, v, w) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int, w: int = 1) -> Graph:
    return Graph(n, [(i, (i + 1) % n, w) for i in range(n)])


def path(n: int, w: int = 1) -> Graph:
    return Graph(n, [(i, i + 1, w) for i in range(n - 1)])


def maximal_pieces(g: Graph):
    """The pieces of a maximal 2-connected K33-minor-free graph, in the
    form `polytope._maximal_k33free_facets` takes them."""
    (block,) = decompose_blocks(g)
    added, pieces = _completion(block)
    assert not added, "graph is not maximal"
    return pieces


def k33() -> Graph:
    return Graph(6, [(a, b, 1) for a in range(3) for b in range(3, 6)])


def octahedron() -> Graph:
    non_edges = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)
                     if (u, v) not in non_edges])


def double_k5() -> Graph:
    """Two K5s sharing the non-adjacent pair {0, 1} (their common edge
    deleted): nodes 0,1 shared, 2-4 in one copy, 5-7 in the other."""
    edges = []
    for u, v in itertools.combinations(range(5), 2):
        if (u, v) != (0, 1):
            edges.append((u, v, 1))
    for u, v in itertools.combinations([0, 1, 5, 6, 7], 2):
        if (u, v) != (0, 1):
            edges.append((u, v, 1))
    return Graph(8, edges)


def stacked_triangulation(n: int, rnd: random.Random) -> Graph:
    """Random planar triangulation grown from K4 by vertex-in-face insertion."""
    g = complete(4)
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    while g.node_count < n:
        f = faces.pop(rnd.randrange(len(faces)))
        v = g.node_count
        g = Graph(v + 1, list(g.edges) + [(f[0], v, 1), (f[1], v, 1), (f[2], v, 1)])
        faces += [(f[0], f[1], v), (f[0], f[2], v), (f[1], f[2], v)]
    return g


def random_planar_2connected(seed: int, nmax: int = 10,
                             weights=(-9, 9)) -> Graph:
    """Stacked triangulation, randomly reweighted, thinned while 2-connected."""
    rnd = random.Random(seed)
    g = stacked_triangulation(rnd.randrange(4, nmax + 1), rnd)
    g = g.reweighted([rnd.randint(*weights) for _ in g.edges])
    while len(g.edges) > g.node_count and rnd.random() < 0.7:
        i = rnd.randrange(len(g.edges))
        g2 = g.without_edge(i)
        if is_k_connected(g2, 2):
            g = g2
    return g


def random_2connected(seed: int, nmax: int = 10) -> Graph | None:
    """Random cycle plus ears plus chords; None if the dice land badly."""
    rnd = random.Random(seed)
    n = rnd.randrange(4, nmax + 1)
    perm = list(range(n))
    rnd.shuffle(perm)
    k = rnd.randrange(3, n + 1)
    cyc = perm[:k]
    edges = {(min(cyc[i], cyc[(i + 1) % k]), max(cyc[i], cyc[(i + 1) % k]))
             for i in range(k)}
    placed = set(cyc)
    rest = perm[k:]
    while rest:
        j = rnd.randrange(1, min(3, len(rest)) + 1)
        inner, rest = rest[:j], rest[j:]
        a, b = rnd.sample(sorted(placed), 2)
        walk = [a] + inner + [b]
        for i in range(len(walk) - 1):
            edges.add((min(walk[i], walk[i + 1]), max(walk[i], walk[i + 1])))
        placed.update(inner)
    for _ in range(rnd.randrange(0, 4)):
        a, b = rnd.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    g = Graph(n, [(u, v, rnd.randrange(-9, 10)) for u, v in sorted(edges)])
    if not is_k_connected(g, 2) or len(g.edges) < 3:
        return None
    return g


@functools.cache
def shape_corpus() -> tuple[Graph, ...]:
    """Strict and non-strict chains of 1-8 pieces, thinned or not, and
    stacked triangulations with n <= 80."""
    chains = [gen_k33free(GeneratorSpec(
        seed=s, component_count=1 + s % 8,
        kinds=(("k5", "triangulation"), ("k5",), ("triangulation",))[s % 3],
        tri_size=(4, 4 + s % 9), strict=s % 4 > 0,
        deletion_prob=((s // 4) % 2, 5))) for s in range(300)]
    return tuple(chains + [stacked_triangulation(n, random.Random(n))
                           for n in range(4, 81, 4)])


@functools.cache
def decomposed(g: Graph) -> tuple:
    """`decompose_blocks(g)`, computed once per test run for the corpora
    that several tests decompose."""
    return tuple(decompose_blocks(g))


@functools.cache
def frozen_tree(node_count: int, edges: tuple):
    """`frozen_spqr.tree`, computed once per test run for the blocks that
    both the networkx oracle and the shape-certificate test rebuild."""
    return frozen_spqr.tree(node_count, edges)


def triangulation(n: int, thinned: bool) -> Graph:
    """`cutpoly gen --kinds triangulation --tri-size n` (seed 1), with
    `--delete-prob 1/10` when thinned."""
    return gen_k33free(GeneratorSpec(
        seed=1, component_count=1, kinds=("triangulation",),
        tri_size=(n, n), deletion_prob=(int(thinned), 10)))


@functools.cache
def perfbench_module(name: str):
    """`perfbench/<name>.py`, loaded as the module `perfbench_<name>`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def verify_small_pool(seed: int = 1) -> tuple[Graph, ...]:
    """The graphs of the benchmark's `verify-small` pool for one workload
    seed, drawn by `perfbench/workloads.py` itself."""
    workloads = perfbench_module("workloads")
    wl = workloads.WORKLOADS["verify-small"]
    pool, _rejected = workloads.make_pool(wl, seed, wl.pool_size, gen_k33free,
                                          GeneratorSpec, format_graph)
    return tuple(Graph(inst.node_count, list(inst.edges)) for inst in pool)


@functools.cache
def verify_small_cut_vectors(seed: int = 1) -> tuple[tuple, ...]:
    """The cut vectors of each graph of `verify_small_pool(seed)`."""
    return tuple(tuple(cut_vectors(g)) for g in verify_small_pool(seed))


@functools.cache
def live_hull(pts: tuple[tuple[int, ...], ...]) -> tuple:
    """`brute_hull` of a point set, computed once per process: the tests
    that hold it against frozen hull codes share it.  Call it only with
    the live code in place, never under a patch."""
    return tuple(brute_hull(list(pts)))


def random_graph(seed: int, nmax: int = 8, p: float = 0.5) -> Graph:
    rnd = random.Random(seed)
    n = rnd.randrange(2, nmax + 1)
    return Graph(n, [(u, v, rnd.randint(-9, 9))
                     for u in range(n) for v in range(u + 1, n)
                     if rnd.random() < p])


def connected_graphs_up_to_iso(nmax: int) -> list[Graph]:
    """All connected graphs without isolated nodes on <= nmax nodes."""
    seen = set()
    out = []
    for n in range(1, nmax + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph(n, [(u, v, 1) for u, v in edges])
            if not is_connected(g):
                continue
            if n > 1 and any(g.degree(v) == 0 for v in range(n)):
                continue
            canon = min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v]))
                                     for u, v in edges))
                        for p in itertools.permutations(range(n)))
            if (n, canon) in seen:
                continue
            seen.add((n, canon))
            out.append(g)
    return out


# -- independent oracles -------------------------------------------------------

def matching_oracle(w) -> int:
    """Minimum perfect matching cost by subset DP."""
    n = len(w)
    memo = {0: 0}

    def f(mask):
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        best = None
        mm = rest
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            v = w[i][j] + f(rest & ~(1 << j))
            if best is None or v < best:
                best = v
        memo[mask] = best
        return best

    return f((1 << n) - 1)


def tjoin_oracle(n, edges, terminals) -> int | None:
    """Minimum T-join weight over all edge subsets."""
    best = None
    tset = set(terminals)
    for mask in range(1 << len(edges)):
        deg = [0] * n
        tot = 0
        for i, (u, v, w) in enumerate(edges):
            if (mask >> i) & 1:
                tot += w
                if u != v:
                    deg[u] ^= 1
                    deg[v] ^= 1
        if {v for v in range(n) if deg[v]} == tset:
            if best is None or tot < best:
                best = tot
    return best


# -- oracle optima, computed once per test run --------------------------------
#
# The oracles cost far more than the solvers they check, and several tests
# check the same instances, so each answer is cached by its instance
# (weight matrices as tuples of rows).

@functools.cache
def dense_optimum(w: tuple[tuple[int, ...], ...]
                  ) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching of w by the frozen dense blossom."""
    return dense_matching([list(row) for row in w])


@functools.cache
def fraction_optimum(w: tuple[tuple[int, ...], ...]
                     ) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching of w by the `Fraction` blossom."""
    mate = FractionBlossom([[-x for x in row] for row in w]).solve()
    pairs = sorted((i, j) for i, j in enumerate(mate) if i < j)
    return pairs, sum(w[i][j] for i, j in pairs)


@functools.cache
def networkx_optimum(w: tuple[tuple[int, ...], ...]) -> int:
    """Minimum perfect matching weight of w by networkx."""
    import networkx as nx
    g = nx.Graph()
    g.add_weighted_edges_from((i, j, -w[i][j]) for i, j
                              in itertools.combinations(range(len(w)), 2))
    best = nx.max_weight_matching(g, maxcardinality=True)
    if 2 * len(best) != len(w):
        raise AssertionError("networkx found no perfect matching")
    return sum(w[i][j] for i, j in best)


@functools.cache
def allpairs_optimum(n: int, edges: tuple, terminals: tuple):
    """`allpairs_t_join` of one T-join instance."""
    return allpairs_t_join(n, list(edges), list(terminals))


def assert_same_join(got, n, edges, terminals) -> None:
    """`got` (join, total) has the all-pairs oracle's total, and its very
    join wherever the terminal metric has one optimal matching only."""
    expect = allpairs_optimum(n, tuple(edges), tuple(sorted(terminals)))
    assert got[1] == expect[1], (n, edges, terminals)
    if got[0] != expect[0]:
        assert not allpairs_unique(n, edges, terminals), (n, edges, terminals)


def assert_same_matching(w, got, expect) -> None:
    """`got` (pairs, total) is a perfect matching of w that costs its total,
    and ties with the optimum `expect` of the same form.  Two different
    optimal matchings show the optimum is not unique, so this also makes
    the mates equal wherever it is."""
    pairs, total = got
    assert sorted(x for p in pairs for x in p) == list(range(len(w))), w
    assert total == sum(w[i][j] for i, j in pairs) == expect[1], w


def forced_cut_optimum(g: Graph, edge_index: int, in_cut: bool) -> int:
    """Brute MaxCut restricted to cuts with one edge pinned."""
    from cutpoly import cut_weight, enumerate_cuts
    vals = [cut_weight(g, c) for c in enumerate_cuts(g)
            if bool((c.indicator >> edge_index) & 1) == in_cut]
    return max(vals)


def run_python(*args):
    """Run a Python subprocess with `args`; the child finds the same
    cutpoly as this process, installed or not."""
    src = str(Path(cutpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)
