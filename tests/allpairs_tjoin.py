"""Minimum-weight T-joins as they stood with all-pairs terminal paths.

A frozen copy kept as a differential oracle: one full Dijkstra and one
parent per node for every terminal, then a canonical path for every
terminal pair, matched or not, and the frozen dense blossom on the full
k x k terminal metric.  `cutpoly.tjoin.min_weight_t_join` must return
the same total, and the very same join wherever the metric has only one
minimum-weight perfect matching (`allpairs_unique`).
"""

from __future__ import annotations

import heapq
import itertools

from cutpoly import CertificationError, TJoinError
from cutpoly.graphs import disjoint_sets
from dense_blossom import dense_matching, unique_optimum


def allpairs_t_join(node_count: int,
                    edges: list[tuple[int, int, int]],
                    terminals: set[int] | frozenset[int] | list[int],
                    ) -> tuple[tuple[int, ...], int]:
    """Minimum-weight T-join on a connected multigraph (loops allowed).

    Weights may be negative: negative edges N are flipped to |w|, the join
    for T xor odd(N) is computed on the nonnegative instance, and N is
    xored back in.  Returns (sorted edge indices, total original weight).
    """
    tset = set(terminals)
    if len(tset) % 2:
        raise TJoinError("terminal set must have even size")
    if node_count == 0:
        return (), 0
    if len(disjoint_sets(node_count, [e[:2] for e in edges])) > 1:
        raise TJoinError("T-join needs a connected graph")
    for u, v in ((u, v) for u, v, _w in edges):
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise TJoinError("edge endpoint out of range")

    neg = [i for i, (_u, _v, w) in enumerate(edges) if w < 0]
    work_t, abs_edges = _nonnegative(node_count, edges, tset)

    join: set[int] = set()
    if work_t:
        dist, paths = _terminal_paths(node_count, abs_edges, work_t)
        pairs, _total = dense_matching(_metric(work_t, dist))
        for i, j in pairs:
            join ^= paths[(work_t[i], work_t[j])]
    join ^= set(neg)
    total = sum(edges[i][2] for i in join)

    deg = [0] * node_count
    for i in join:
        u, v, _w = edges[i]
        if u != v:
            deg[u] ^= 1
            deg[v] ^= 1
    if {v for v in range(node_count) if deg[v]} != tset:
        raise CertificationError("join parity broken")
    return tuple(sorted(join)), total


def allpairs_unique(node_count: int,
                    edges: list[tuple[int, int, int]],
                    terminals: set[int] | frozenset[int] | list[int]) -> bool:
    """Whether the terminal metric of `allpairs_t_join` (after the same
    negative-weight transformation) has one minimum-weight perfect
    matching only, so that every exact solver picks the same pairs."""
    work_t, abs_edges = _nonnegative(node_count, edges, set(terminals))
    if not work_t:
        return True
    matrix = _metric(work_t, _terminal_paths(node_count, abs_edges, work_t)[0])
    return unique_optimum(matrix, dense_matching(matrix)[0])


def _nonnegative(node_count, edges, tset):
    """The terminals and edges of the nonnegative instance: each negative
    edge's ends flip in or out of T, and every weight becomes |w|."""
    flip_parity = [0] * node_count
    for u, v, w in edges:
        if w < 0 and u != v:
            flip_parity[u] ^= 1
            flip_parity[v] ^= 1
    work_t = sorted(tset ^ {v for v in range(node_count) if flip_parity[v]})
    return work_t, [(u, v, abs(w)) for u, v, w in edges]


def _metric(terminals, dist) -> list[list[int]]:
    k = len(terminals)
    matrix = [[0] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        matrix[i][j] = matrix[j][i] = dist[(terminals[i], terminals[j])]
    return matrix


def _terminal_paths(node_count, edges, terminals):
    """Shortest distances between terminals plus one canonical shortest
    path (as an edge-index set) per pair.

    Path ties break deterministically: each node's parent toward the
    target is the smallest (node, edge) among neighbors settled earlier by
    Dijkstra, which stays well-defined even on zero-weight cycles.
    """
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(node_count)]
    for i, (u, v, w) in enumerate(edges):
        if u == v:
            continue
        adj[u].append((v, w, i))
        adj[v].append((u, w, i))

    all_dist: dict[int, list[int | None]] = {}
    all_parent: dict[int, list[tuple[int, int] | None]] = {}
    for t in terminals:
        dist: list[int | None] = [None] * node_count
        settle: list[int] = [0] * node_count
        heap = [(0, t)]
        tick = 0
        while heap:
            d, x = heapq.heappop(heap)
            if dist[x] is not None:
                continue
            dist[x] = d
            tick += 1
            settle[x] = tick
            for y, w, _i in adj[x]:
                if dist[y] is None:
                    heapq.heappush(heap, (d + w, y))
        parent: list[tuple[int, int] | None] = [None] * node_count
        for x in range(node_count):
            if x == t or dist[x] is None:
                continue
            parent[x] = min((y, i) for y, w, i in adj[x]
                            if dist[y] is not None and settle[y] < settle[x]
                            and dist[x] == w + dist[y])
        all_dist[t] = dist
        all_parent[t] = parent

    dist_pairs: dict[tuple[int, int], int] = {}
    paths: dict[tuple[int, int], set[int]] = {}
    for a, b in itertools.combinations(terminals, 2):
        db, pb = all_dist[b], all_parent[b]
        assert db[a] is not None
        dist_pairs[(a, b)] = dist_pairs[(b, a)] = db[a]
        path: set[int] = set()
        x = a
        while x != b:
            y, i = pb[x]
            path ^= {i}
            x = y
        paths[(a, b)] = paths[(b, a)] = path
    return dist_pairs, paths
