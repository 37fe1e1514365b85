"""Differential tests of k-connectivity and the SPR tree against networkx.

networkx is an independent oracle here: `node_connectivity` runs its own
flow computation and `articulation_points` its own DFS, sharing no code
with the lowpoint sweep behind `is_k_connected` and the SPR tree.
"""

import functools
import random

import pytest

from cutpoly import (GeneratorSpec, Graph, chordless_cycles, gen_k33free,
                     is_k_connected, spqr)
from cutpoly.graphs import masked_cut_nodes
from cutpoly.spqr import _skeleton_graph
from helpers import (complete, cycle, decomposed, frozen_tree, path,
                     random_2connected, shape_corpus, triangulation)

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


def tree_corpus():
    """(node count, edges, tree, R classes) of every tree the SPR test
    reads: the blocks of CORPUS, of `shape_corpus()` and of `generated()`,
    of thinned stacked triangulations up to n = 160 and of plain ones up
    to n = 640, each as `decompose_blocks` builds it; and multigraphs,
    built by `spqr._tree`: every third CORPUS block with every fourth edge
    doubled, a bond and a doubled K4."""
    graphs = [*CORPUS, *shape_corpus(), *generated(),
              *(triangulation(n, True) for n in (20, 40, 80, 160)),
              *(triangulation(n, False) for n in (160, 320, 640))]
    out = []
    for g in graphs:
        for b in decomposed(g):
            if b.tree is not None:
                out.append((b.graph.node_count, b.graph.edges, b.tree,
                            b.r_skeletons))
    multi = [(g.node_count, g.edges + tuple((v, u, w + 1) for u, v, w
                                            in g.edges[::4]))
             for g in CORPUS[::3]
             if len(g.edges) >= 3 and is_k_connected(g, 2)]
    multi += [(2, ((0, 1, 1), (1, 0, 2), (0, 1, 3), (0, 1, 4))),
              (4, complete(4).edges * 2)]
    out += [(n, edges, *spqr._tree(n, edges)) for n, edges in multi]
    return out


def test_spr_r_skeletons_are_3_connected_per_networkx():
    """Every tree is `repr`-identical to the frozen split-search builder;
    every R skeleton is 3-connected per networkx (one with more than 120
    nodes may instead be triangulation-shaped and planar per networkx:
    maximal planar, so 3-connected by Whitney), is non-planar per
    networkx when its class says so, and carries an embedding of its
    skeleton graph exactly when it is neither K5 nor non-planar; every S
    skeleton is a cycle per networkx."""
    counts = {"trees": 0, "multi": 0, "R": 0, "S": 0, "K5": 0,
              "PlanarTriangulation": 0, "Planar": 0, "NonPlanar": 0}
    proved = set()  # R skeleton graphs (edge sets) found 3-connected
    for n, edges, tree, r_skeletons in tree_corpus():
        assert repr(tree) == repr(frozen_tree(n, edges)), edges
        counts["trees"] += 1
        counts["multi"] += len(set(frozenset(e[:2]) for e in edges)) \
            < len(edges)
        for sn in tree.nodes:
            if sn.kind == "P":
                continue
            counts[sn.kind] += 1
            sg, _ = _skeleton_graph(sn)
            h = to_nx(sg)
            if sn.kind == "S":
                assert nx.is_connected(h) and {d for _v, d in h.degree()} \
                    == {2}, sn
                continue
            assert sg.node_count >= 4
            shape = frozenset(e[:2] for e in sg.edges)
            if shape in proved:
                pass
            elif sg.node_count > 120 and len(shape) == 3 * len(h) - 6:
                assert nx.check_planarity(h)[0], sn
            else:
                assert nx.node_connectivity(h) >= 3, sn
            proved.add(shape)
            cls, emb, stored = r_skeletons[sn.id]
            counts[cls] += 1
            assert stored == sg, sn
            assert cls != "NonPlanar" or not nx.check_planarity(h)[0], sn
            assert (emb is None) == (cls in ("K5", "NonPlanar")), sn
            assert emb is None or emb.graph == sg
    assert counts["trees"] >= 700 and counts["multi"] >= 30, counts
    assert min(counts.values()) >= 10, counts


@functools.cache
def generated() -> tuple[Graph, ...]:
    """Generated K33-minor-free graphs: strict and not, thinned and not."""
    return tuple(gen_k33free(GeneratorSpec(seed=s, component_count=1 + s % 4,
                                           strict=s % 3 > 0,
                                           deletion_prob=(s % 2, 3)))
                 for s in range(40))


def test_chordless_cycles_match_networkx():
    """`chordless_cycles` lists the induced cycles networkx lists, each
    once in canonical form (least node first, then its lesser
    neighbour on the cycle)."""
    total = 0
    for g in CORPUS:
        want = []
        for c in nx.chordless_cycles(to_nx(g)):
            i = c.index(min(c))
            c = c[i:] + c[:i]
            want.append(tuple(c if c[1] < c[-1] else c[:1] + c[:0:-1]))
        assert chordless_cycles(g) == sorted(want, key=lambda c: (len(c), c))
        total += len(want)
    assert total > 1000


def test_masked_sweep_matches_articulation_points():
    """For G and for every G-v, the sweep's cut nodes and connectivity
    verdict equal networkx's."""
    checked = 0
    for g in CORPUS + list(generated()):
        adj = [g.neighbors(x) for x in range(g.node_count)]
        h = to_nx(g)
        for v in [None, *range(g.node_count)]:
            hv = h.copy()
            if v is not None:
                hv.remove_node(v)
            connected = len(hv) == 0 or nx.is_connected(hv)
            want = set(nx.articulation_points(hv)), connected
            assert masked_cut_nodes(adj, v) == want, (v, g.edges)
            checked += bool(want[0])
    assert checked > 500  # plenty of G-v with cut nodes
