"""Differential tests of k-connectivity and the SPR tree against networkx.

networkx is an independent oracle here: `node_connectivity` runs its own
flow computation, sharing no code with the block decomposition behind
`is_k_connected`.
"""

import random

import pytest

from cutpoly import Graph, is_k_connected, spr_tree
from cutpoly.spqr import _skeleton_graph
from helpers import complete, cycle, path, random_2connected

nx = pytest.importorskip("networkx")


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from((u, v) for u, v, _w in g.edges)
    return h


def oracle_k_connected(g: Graph, k: int) -> bool:
    """k = 1 means connected (the empty graph and K1 count as connected);
    k >= 2 needs node_count > k and node connectivity >= k."""
    if g.node_count == 0:
        return k == 1
    h = to_nx(g)
    if k == 1:
        return nx.is_connected(h)
    return g.node_count > k and nx.node_connectivity(h) >= k


def corpus() -> list[Graph]:
    rnd = random.Random(20240)
    graphs = [Graph(0, []), Graph(1, []), complete(2), Graph(2, []),
              Graph(4, [(0, 1, 1), (2, 3, 1)]),         # two components
              Graph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),  # isolated nodes
              cycle(3), cycle(6), path(5), complete(4), complete(5)]
    for _ in range(300):
        n = rnd.randint(1, 10)
        p = rnd.uniform(0.15, 0.95)
        graphs.append(Graph(n, [(u, v, rnd.randint(-5, 5))
                                for u in range(n) for v in range(u + 1, n)
                                if rnd.random() < p]))
    graphs.extend(g for g in map(random_2connected, range(100)) if g is not None)
    return graphs


CORPUS = corpus()


def test_is_k_connected_matches_networkx():
    seen = {k: [0, 0] for k in (1, 2, 3)}
    for g in CORPUS:
        for k in (1, 2, 3):
            want = oracle_k_connected(g, k)
            assert is_k_connected(g, k) == want, (k, g.node_count, g.edges)
            seen[k][want] += 1
    # the corpus exercises both verdicts for every k
    assert all(no > 0 and yes > 0 for no, yes in seen.values()), seen


def test_spr_r_skeletons_are_3_connected_per_networkx():
    r_count = 0
    for g in CORPUS:
        if len(g.edges) < 3 or not is_k_connected(g, 2):
            continue
        for sn in spr_tree(g).nodes:
            if sn.kind != "R":
                continue
            sg, _ = _skeleton_graph(sn)
            assert sg.node_count >= 4
            assert nx.node_connectivity(to_nx(sg)) >= 3, sn
            r_count += 1
    assert r_count >= 50
