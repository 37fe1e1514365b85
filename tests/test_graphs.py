import functools
import itertools
import operator
import random
import sys

import pytest

from cutpoly import (DuplicateEdgeError, Graph, GraphError, NodeRangeError,
                     NotTwoConnectedError, ParseError, SelfLoopError,
                     SizeLimitError, blocks, chordless_cycles,
                     connected_components, cut_from_side, cut_vectors,
                     cut_weight, ear_decomposition, enumerate_cuts,
                     format_graph, is_connected, is_k_connected, k5_subgraphs,
                     parse_graph, triangles)
from cutpoly.cli import main
from cutpoly.graphs import Cut
from helpers import complete, cycle, path, random_graph, shape_corpus


def test_reweighted_shares_topology_of_a_fresh_graph():
    """`reweighted` skips the checks and sorting of a fresh Graph; on the
    generated corpus it is that fresh Graph in every accessor."""
    for k, g in enumerate(shape_corpus()):
        rnd = random.Random(k)
        ws = [rnd.randint(-9, 9) for _ in g.edges]
        got = g.reweighted(ws)
        fresh = Graph(g.node_count,
                      [(u, v, w) for (u, v, _), w in zip(g.edges, ws)])
        assert got.edges == fresh.edges and got == fresh
        assert hash(got) == hash(fresh)
        assert all(got.neighbors(v) == fresh.neighbors(v)
                   for v in range(g.node_count))
        assert all(got.edge_index(u, v) == fresh.edge_index(v, u) == i
                   for i, (u, v, _w) in enumerate(g.edges))
        with pytest.raises(GraphError):
            g.reweighted(ws[1:])


@pytest.mark.parametrize("index", [3, -1])
def test_without_edge_rejects_an_index_outside_the_edges(index):
    with pytest.raises(GraphError, match="is not an edge"):
        complete(3).without_edge(index)


# -- parsing ----------------------------------------------------------------

def test_parse_single_edge():
    g = parse_graph("c hello\np cut 2 1\ne 1 2 5\n")
    assert g.node_count == 2 and g.edges == ((0, 1, 5),)


def test_parse_k3():
    g = parse_graph("p cut 3 3\ne 1 2 1\ne 1 3 1\ne 2 3 1\n")
    assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_parse_errors_are_distinct():
    with pytest.raises(SelfLoopError):
        parse_graph("p cut 2 1\ne 1 1 2\n")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("p cut 2 2\ne 1 2 1\ne 2 1 3\n")
    with pytest.raises(NodeRangeError):
        parse_graph("p cut 2 1\ne 1 3 1\n")
    with pytest.raises(ParseError):
        parse_graph("e 1 2 1\n")
    with pytest.raises(ParseError):
        parse_graph("p cut 2 2\ne 1 2 1\n")
    with pytest.raises(ParseError):
        parse_graph("p cut 2 1\nx nonsense\ne 1 2 1\n")


def test_parse_weight_bound():
    with pytest.raises(ParseError):
        parse_graph(f"p cut 2 1\ne 1 2 {2**41}\n")


def test_format_round_trip():
    g = random_graph(3)
    assert parse_graph(format_graph(g)) == g


# -- blocks -------------------------------------------------------------------

def test_blocks_path():
    bd = blocks(path(3))
    assert len(bd.blocks) == 2 and bd.cut_nodes == frozenset({1})


def test_blocks_k4_single():
    bd = blocks(complete(4))
    assert len(bd.blocks) == 1 and not bd.cut_nodes


def test_blocks_disjoint_edges():
    bd = blocks(Graph(4, [(0, 1, 1), (2, 3, 1)]))
    assert len(bd.blocks) == 2 and not bd.cut_nodes


def test_blocks_partition_edges():
    for seed in range(120):
        g = random_graph(seed)
        bd = blocks(g)
        all_edges = sorted(itertools.chain.from_iterable(e for _n, e in bd.blocks))
        assert all_edges == list(range(len(g.edges)))
        for (n1, _), (n2, _) in itertools.combinations(bd.blocks, 2):
            inter = n1 & n2
            assert len(inter) <= 1
            if inter:
                assert inter <= bd.cut_nodes


# -- connectivity ---------------------------------------------------------------

def test_is_k_connected_examples():
    assert is_k_connected(cycle(4), 2)
    assert is_k_connected(complete(5), 3)
    assert not is_k_connected(path(3), 2)
    assert not is_k_connected(Graph(2, [(0, 1, 1)]), 2)
    assert is_k_connected(complete(3), 2)
    assert not is_k_connected(complete(3), 3)


def test_connectivity_matches_blocks():
    for seed in range(60):
        g = random_graph(seed, nmax=7)
        two = is_k_connected(g, 2)
        bd = blocks(g)
        expected = (is_connected(g) and len(bd.blocks) == 1
                    and len(bd.blocks[0][1]) >= 2 and g.node_count >= 3)
        assert two == expected, (seed, g.edges)


# -- substructures -----------------------------------------------------------

def test_triangles():
    assert len(triangles(complete(3))) == 1
    assert len(triangles(complete(4))) == 4
    assert triangles(cycle(4)) == []


def test_chordless_cycles():
    assert chordless_cycles(cycle(5)) == [(0, 1, 2, 3, 4)]
    k4_cycles = chordless_cycles(complete(4))
    assert len(k4_cycles) == 4 and all(len(c) == 3 for c in k4_cycles)
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    assert len(chordless_cycles(g)) == 2


def test_chordless_cycles_cap():
    with pytest.raises(SizeLimitError):
        chordless_cycles(complete(7), cap=3)


def test_chordless_cycles_need_no_recursion(tmp_path, capsys):
    """The induced-path search keeps its own stack: `cutpoly classify`
    on a 1,500-node cycle exits 0 under the default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    g = cycle(1500)
    assert chordless_cycles(g) == [tuple(range(1500))]
    f = tmp_path / "c1500.cut"
    f.write_text(format_graph(g))
    assert main(["classify", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "simple no"


def test_chordless_cycles_are_induced_and_unique():
    for seed in range(40):
        g = random_graph(seed, nmax=7)
        seen = set()
        for cyc in chordless_cycles(g):
            key = frozenset(cyc)
            assert key not in seen  # a node set determines an induced cycle
            seen.add(key)
            for i, j in itertools.combinations(range(len(cyc)), 2):
                consecutive = abs(i - j) in (1, len(cyc) - 1)
                assert g.has_edge(cyc[i], cyc[j]) == consecutive


def test_k5_subgraphs():
    assert len(k5_subgraphs(complete(5))) == 1
    assert len(k5_subgraphs(complete(6))) == 6
    assert k5_subgraphs(cycle(4)) == []


# -- ear decomposition -----------------------------------------------------------

def test_ears_k3_c5_k4():
    assert ear_decomposition(complete(3)) == [[0, 1, 2]]
    assert len(ear_decomposition(cycle(5))) == 1
    ears = ear_decomposition(complete(4))
    assert len(ears[0]) == 3
    assert sorted(len(p) - 1 for p in ears[1:]) == [1, 2]


def test_ears_require_2_connected():
    with pytest.raises(NotTwoConnectedError):
        ear_decomposition(path(3))


def test_ears_iff_2_connected_and_cover():
    for seed in range(80):
        g = random_graph(seed, nmax=7)
        if is_k_connected(g, 2):
            pieces = ear_decomposition(g)
            used = set()
            nodes_so_far = set(pieces[0])
            count = len(pieces[0])
            for i in range(len(pieces[0])):
                used.add(g.edge_index(pieces[0][i],
                                      pieces[0][(i + 1) % len(pieces[0])]))
            for ear in pieces[1:]:
                assert ear[0] in nodes_so_far and ear[-1] in nodes_so_far
                assert all(x not in nodes_so_far for x in ear[1:-1])
                for a, b in zip(ear, ear[1:]):
                    used.add(g.edge_index(a, b))
                nodes_so_far.update(ear)
                count += len(ear) - 1
            assert used == set(range(len(g.edges)))
            assert count == len(g.edges)
        else:
            with pytest.raises(NotTwoConnectedError):
                ear_decomposition(g)


# -- cuts ---------------------------------------------------------------------

def test_enumerate_cuts_k3():
    vectors = sorted(c.vector(3) for c in enumerate_cuts(complete(3)))
    assert vectors == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_enumerate_cuts_counts():
    assert len(enumerate_cuts(Graph(2, [(0, 1, 1)]))) == 2
    assert len(enumerate_cuts(Graph(4, [(0, 1, 1), (2, 3, 1)]))) == 4
    for seed in range(20):
        g = random_graph(seed, nmax=8)
        comps = len(connected_components(g))
        assert len(enumerate_cuts(g)) == 2 ** (g.node_count - comps)


def test_cut_canonical_side():
    g = complete(3)
    c = cut_from_side(g, [0, 1])
    assert c.side == 0b100  # complemented: node 0 stays out
    assert cut_weight(g, c) == 2


def _node_edge_masks(g):
    """Per node, the bitmask of the edges at it."""
    masks = [0] * g.node_count
    for i, (u, v, _w) in enumerate(g.edges):
        masks[u] |= 1 << i
        masks[v] |= 1 << i
    return masks


def _cut_by_node_masks(g, side):
    """`cut_from_side` as it was: xor the per-node edge masks of the
    canonical side, rebuilt on every call."""
    mask = sum(1 << v for v in set(side))
    if mask & 1:
        mask = ((1 << g.node_count) - 1) & ~mask
    masks = _node_edge_masks(g)
    return Cut(mask, functools.reduce(
        operator.xor, (masks[v] for v in range(g.node_count) if mask >> v & 1),
        0))


def test_cut_from_side_matches_node_masks():
    """On the corpus graphs, random sides (node 0 in or out, empty and
    full) give the `Cut` of the node-mask method, and its node and edge
    lists are its set bits."""
    rnd = random.Random(5)
    for g in shape_corpus():
        n = g.node_count
        sides = [[], range(n)] + [[v for v in range(n) if rnd.random() < 0.5]
                                  for _ in range(4)]
        for side in sides:
            c = cut_from_side(g, side)
            assert c == _cut_by_node_masks(g, side)
            assert c.side_nodes() == tuple(v for v in range(n)
                                           if c.side >> v & 1)
            assert c.edge_indices() == tuple(i for i in range(len(g.edges))
                                             if c.indicator >> i & 1)


def test_cut_cycle_even_intersection():
    for seed in range(50):
        g = random_graph(seed, nmax=7)
        cycles = chordless_cycles(g)
        for c in enumerate_cuts(g):
            for cyc in cycles:
                edges = [g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])
                         for i in range(len(cyc))]
                crossing = sum((c.indicator >> e) & 1 for e in edges)
                assert crossing % 2 == 0


@pytest.mark.parametrize("g, cuts", [
    (Graph(0, []), [(0, 0)]),
    (Graph(3, []), [(0, 0)]),
    # components {0, 2, 3}, {1, 4, 6} and the isolated nodes 5 and 7
    (Graph(8, [(0, 2, 2), (2, 3, -1), (1, 4, 3), (4, 6, 1), (1, 6, 4)]),
     [(0, 0), (2, 20), (4, 3), (6, 23), (8, 2), (10, 22), (12, 1), (14, 21),
      (16, 12), (18, 24), (20, 15), (22, 27), (24, 14), (26, 26), (28, 13),
      (30, 25)])])
def test_enumerate_cuts_on_edgeless_and_disconnected_graphs(g, cuts):
    """2^(n-c) cuts, each with its smallest side mask, in side order, and
    cut_vectors their indicators, also with no edge or no node."""
    assert len(cuts) == 2 ** (g.node_count - len(connected_components(g)))
    assert [(c.side, c.indicator) for c in enumerate_cuts(g)] == cuts
    assert cut_vectors(g) == [Cut(s, i).vector(len(g.edges)) for s, i in cuts]


def test_enumerate_cuts_guard():
    with pytest.raises(SizeLimitError):
        enumerate_cuts(Graph(25, []))
