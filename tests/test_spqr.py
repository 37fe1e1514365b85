import itertools
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from cutpoly import (GeneratorSpec, Graph, GraphError, K33MinorError,
                     NotTwoConnectedError, augment_with_parallel_originals,
                     blocks, decompose_blocks, facet_description,
                     format_graph, gen_k33free, has_minor, is_k_connected,
                     k33_decompose, maxcut, maximal_completion,
                     minor_exhaustive, planar_embed, recompose, spqr,
                     spr_tree)
from cutpoly.cli import main
from cutpoly.maxcut import _decomposed_maxcut
from cutpoly.spqr import (SkelEdge, SkeletonNode, SprTree, _completion,
                          _skeleton_graph)
import frozen_augment
from helpers import (complete, cycle, decomposed, double_k5, frozen_tree, k33,
                     octahedron, path, random_2connected, random_graph,
                     shape_corpus)


def test_spr_k5_single_r():
    t = spr_tree(complete(5))
    assert len(t.nodes) == 1 and t.nodes[0].kind == "R" and not t.tree_edges


def test_spr_c5_single_s():
    t = spr_tree(cycle(5))
    assert len(t.nodes) == 1 and t.nodes[0].kind == "S"


def test_spr_double_k5():
    t = spr_tree(double_k5())
    assert sorted(sn.kind for sn in t.nodes) == ["R", "R"]
    for sn in t.nodes:
        sg, _ = _skeleton_graph(sn)
        assert sg.node_count == 5 and len(sg.edges) == 10  # each side a K5
    assert len(t.tree_edges) == 1


def test_spr_requires_2_connected():
    with pytest.raises(NotTwoConnectedError):
        spr_tree(path(4))


def test_spr_invariants_random():
    checked = 0
    for seed in range(150):
        g = random_2connected(seed)
        if g is None:
            continue
        checked += 1
        t = spr_tree(g)
        assert recompose(t, g.node_count) == g
        kinds = {sn.id: sn.kind for sn in t.nodes}
        for a, b, _pid in t.tree_edges:
            assert not (kinds[a] == kinds[b] and kinds[a] in "SP")
        pid_count = {}
        for sn in t.nodes:
            for e in sn.virtuals():
                pid_count[e.ref] = pid_count.get(e.ref, 0) + 1
            if sn.kind == "P":
                assert len(sn.nodes) == 2 and len(sn.edges) >= 3
            if sn.kind == "S":
                assert len(sn.edges) == len(sn.nodes) >= 3
            if sn.kind == "R":
                sg, _ = _skeleton_graph(sn)
                assert is_k_connected(sg, 3)
        assert all(c == 2 for c in pid_count.values())
        if len(t.nodes) > 1:
            assert len(t.tree_edges) == len(t.nodes) - 1
    assert checked >= 100


def test_spr_unique_under_relabeling():
    def signature(t, relabel):
        sigs = []
        for sn in t.nodes:
            orig = tuple(sorted(
                (min(relabel[e.u], relabel[e.v]), max(relabel[e.u], relabel[e.v]))
                for e in sn.originals()))
            virt = tuple(sorted(
                (min(relabel[e.u], relabel[e.v]), max(relabel[e.u], relabel[e.v]))
                for e in sn.virtuals()))
            sigs.append((sn.kind, orig, virt))
        return sorted(sigs)

    done = 0
    for seed in range(60):
        g = random_2connected(seed)
        if g is None:
            continue
        done += 1
        t1 = spr_tree(g)
        perm = list(range(g.node_count))
        random.Random(seed + 999).shuffle(perm)
        g2 = Graph(g.node_count,
                   sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                          for u, v, w in g.edges))
        t2 = spr_tree(g2)
        ident = {v: v for v in range(g.node_count)}
        assert signature(t1, perm) == signature(t2, ident)
    assert done >= 40


# -- augmentation ---------------------------------------------------------------

def test_augment_double_k5():
    g = double_k5()
    g2, t2 = augment_with_parallel_originals(g, spr_tree(g))
    assert len(g2.edges) == len(g.edges) + 1
    assert g2.edges[-1] == (0, 1, 0)
    assert sorted(sn.kind for sn in t2.nodes) == ["P", "R", "R"]
    assert recompose(t2, 8) == g2


def test_augment_strict_2_sum_unchanged():
    g = Graph(4, [(0, 1, 5), (0, 2, 1), (1, 2, 2), (0, 3, 3), (1, 3, 4)])
    g2, t2 = augment_with_parallel_originals(g, spr_tree(g))
    assert g2 == g and len(t2.nodes) == 3


def test_augment_octahedron_unchanged():
    g = octahedron()
    g2, _t2 = augment_with_parallel_originals(g, spr_tree(g))
    assert g2 == g


def test_augment_inserts_pairs_in_tree_order():
    """Augmentation, the first step of completion, inserts the pair of
    every all-virtual P skeleton in node order, then the pair of every
    tree edge between two non-P skeletons in sorted tree-edge order."""
    reordered = 0
    for seed in range(120):
        g = gen_k33free(GeneratorSpec(
            seed=seed, component_count=1 + seed % 6, strict=seed % 2 == 0,
            deletion_prob=(seed % 3, 10)))
        for block in decompose_blocks(g):
            t = block.tree
            if t is None:
                continue
            kinds = {sn.id: sn.kind for sn in t.nodes}
            want = [sn.nodes for sn in t.nodes
                    if sn.kind == "P" and not sn.originals()]
            bare = [(a, b, pid) for a, b, pid in t.tree_edges
                    if "P" not in (kinds[a], kinds[b])]
            want += [next(e.endpoints() for e in t.node(a).virtuals()
                          if e.ref == pid) for a, _b, pid in sorted(bare)]
            g2, _t2 = augment_with_parallel_originals(block.graph, t)
            assert [e[:2] for e in g2.edges[len(block.graph.edges):]] == want
            reordered += bare != sorted(bare)
    assert reordered  # pair-id order and sorted order differ somewhere


def test_augment_every_virtual_gets_parallel_original():
    for seed in range(80):
        g = random_2connected(seed)
        if g is None:
            continue
        g2, t2 = augment_with_parallel_originals(g, spr_tree(g))
        assert recompose(t2, g.node_count) == g2
        kinds = {sn.id: sn.kind for sn in t2.nodes}
        for a, b, _pid in t2.tree_edges:
            assert (kinds[a] == "P") != (kinds[b] == "P")
        for sn in t2.nodes:
            for e in sn.virtuals():
                assert g2.has_edge(e.u, e.v)
        for i in range(len(g.edges), len(g2.edges)):
            assert g2.edges[i][2] == 0


def _k23_with_k4() -> Graph:
    """K2,3 on the pair {0, 1} through 2, 3 and 4, with its edge 02 swapped
    for a K4 on 0, 2, 5, 6 less that edge: an all-virtual P skeleton on
    {0, 1}, three S triangles, and an S-R tree edge on {0, 2}."""
    k4 = [(u, v, 1) for u, v in itertools.combinations((0, 2, 5, 6), 2)
          if (u, v) != (0, 2)]
    return Graph(7, k4 + [(1, 2, 1), (0, 3, 1), (1, 3, 1), (0, 4, 1),
                          (1, 4, 1)])


def _hand_made_trees():
    """(graph, tree) pairs with all-virtual P skeletons: the K2,3 tree
    written out by hand with pair ids out of order, and the trees of
    graphs made by hand (three K4s less a shared edge, `_k23_with_k4`)."""
    def virt(pid):
        return SkelEdge(0, 1, "virt", pid)

    k23 = Graph(5, [(0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1), (0, 4, 1),
                    (1, 4, 1)])
    tree = SprTree((SkeletonNode(0, "P", (0, 1), (virt(5), virt(9), virt(2))),
                    *(SkeletonNode(k + 1, "S", (0, 1, x), (
                        SkelEdge(0, x, "orig", 2 * k, 1),
                        SkelEdge(1, x, "orig", 2 * k + 1, 1), virt(pid)))
                      for k, (x, pid) in enumerate(((2, 5), (3, 9), (4, 2))))),
                   ((0, 1, 5), (0, 2, 9), (0, 3, 2)))
    three_k4 = Graph(8, [(u, v, 1) for a, b in ((2, 3), (4, 5), (6, 7))
                         for u, v in itertools.combinations((0, 1, a, b), 2)
                         if (u, v) != (0, 1)])
    return [(k23, tree)] + [(g, spr_tree(g))
                            for g in (three_k4, _k23_with_k4())]


def test_augment_matches_frozen_oracle():
    """The augmentation returns the graph and the `repr` of the tree that
    the frozen copy-and-rebuild version returns, on every block of the
    shared corpus and on hand-made trees; the corpus holds both
    all-virtual P skeletons and tree edges to subdivide."""
    corpus = [(b.graph, b.tree) for g in shape_corpus()
              for b in decomposed(g) if b.tree]
    assert any(sn.kind == "P" and not sn.originals()
               for _g, t in corpus for sn in t.nodes)
    subdivided = 0
    for g, t in corpus + _hand_made_trees():
        g2, t2 = augment_with_parallel_originals(g, t)
        want_g, want_t = frozen_augment.augment(g, t)
        assert g2 == want_g and repr(t2) == repr(want_t)
        subdivided += len(t2.nodes) - len(t.nodes)
    assert subdivided


def test_augment_refuses_ids_out_of_order():
    """Node ids must be 0..N-1 in order: shifted or permuted ids raise
    `GraphError` instead of being renumbered."""
    g = _k23_with_k4()
    t = spr_tree(g)
    shifted = SprTree(tuple(replace(sn, id=sn.id + 1) for sn in t.nodes),
                      tuple((a + 1, b + 1, pid) for a, b, pid in t.tree_edges))
    swapped = SprTree(t.nodes[1::-1] + t.nodes[2:], t.tree_edges)
    for bad in (shifted, swapped):
        with pytest.raises(GraphError, match="0..N-1"):
            augment_with_parallel_originals(g, bad)


# -- K33 classification -----------------------------------------------------------

def test_k33_decompose_k5():
    d = k33_decompose(complete(5))
    assert d.is_k33_minor_free and d.is_maximal
    assert [cls for _sn, cls in d.components] == ["K5"]


def test_k33_decompose_k33_itself():
    d = k33_decompose(k33())
    assert not d.is_k33_minor_free and d.witness is not None


def test_k33_decompose_double_k5_not_maximal():
    d = k33_decompose(double_k5())
    assert d.is_k33_minor_free and not d.is_maximal


def test_k33_decompose_small_cases():
    assert k33_decompose(Graph(2, [(0, 1, 1)])).is_maximal
    assert k33_decompose(complete(3)).is_maximal
    assert k33_decompose(octahedron()).is_maximal
    assert not k33_decompose(cycle(4)).is_maximal
    assert not k33_decompose(path(3)).is_maximal
    assert not k33_decompose(Graph(4, [(0, 1, 1), (2, 3, 1)])).is_maximal


def test_k33_decompose_agrees_with_minor_oracle():
    for seed in range(80):
        g = random_graph(seed, nmax=7)
        assert k33_decompose(g).is_k33_minor_free == (not minor_exhaustive(g, "K33"))


# -- maximal completion ------------------------------------------------------------

def test_completion_double_k5():
    h, added = maximal_completion(double_k5())
    assert added == [(0, 1)]
    assert k33_decompose(h).is_maximal


def test_completion_c4_one_chord():
    h, added = maximal_completion(cycle(4))
    assert len(added) == 1
    assert k33_decompose(h).is_maximal


def test_completion_maximal_input_unchanged():
    for g in (octahedron(), complete(5), complete(3)):
        h, added = maximal_completion(g)
        assert added == [] and h == g


def test_completion_properties_random():
    for seed in range(40):
        g = random_2connected(seed, nmax=8)
        if g is None or has_minor(g, "K33"):
            continue
        h, added = maximal_completion(g)
        assert k33_decompose(h).is_maximal
        assert not has_minor(h, "K33")
        assert is_k_connected(h, 2) or len(h.edges) <= 1
        assert len(h.edges) == len(g.edges) + len(added)
        # edge-count consistency per component class
        for sn, cls in k33_decompose(h).components:
            k = len(sn.nodes)
            if cls == "PlanarTriangulation":
                assert len(sn.edges) == 3 * k - 6
            elif cls == "K5":
                assert len(sn.edges) == 10


def test_completion_rejects_k33():
    with pytest.raises(K33MinorError):
        maximal_completion(k33())


def test_witness_shared_by_every_consumer():
    """A K5 and a K33 glued on the edge 0-1, after a separate triangle:
    the block carries both minors, so maxcut, facet_description and
    k33_decompose all refuse it, with the same K33 skeleton."""
    k5 = set(itertools.combinations(range(5), 2))
    k33_edges = {(a, b) for a in (0, 5, 6) for b in (1, 7, 8)}
    pairs = [(9, 10), (9, 11), (10, 11)] + sorted(k5 | k33_edges)
    g = Graph(12, [(u, v, 1) for u, v in pairs])
    witness = k33_decompose(g).witness
    assert witness is not None and witness.nodes == (0, 1, 5, 6, 7, 8)
    for solve in (maxcut, facet_description):
        with pytest.raises(K33MinorError) as info:
            solve(g)
        assert info.value.witness == witness


# -- shape certificates -------------------------------------------------------

def sweep_only_spr_tree(g: Graph):
    """`spqr._spr_tree` with no shape certificate: the frozen split-search
    tree, each R skeleton checked 3-connected by the sweep and classed by
    its shape and a fresh embedding."""
    tree = frozen_tree(g.node_count, g.edges)
    classes = {}
    for sn in tree.nodes:
        if sn.kind != "R":
            continue
        sg, _ = _skeleton_graph(sn)
        n, m = sg.node_count, len(sg.edges)
        assert is_k_connected(sg, 3)
        emb = planar_embed(sg)
        classes[sn.id] = (("K5", None) if (n, m) == (5, 10)
                          else ("NonPlanar", None) if emb is None
                          else ("PlanarTriangulation" if m == 3 * n - 6
                                else "Planar", emb))
    return tree, classes


def test_shape_certified_skeletons_are_3_connected(tmp_path, capsys,
                                                   monkeypatch):
    """Every graph `_shape_class` certifies is an R skeleton of its class,
    is 3-connected, and carries the very rotation of a fresh embedding of
    its skeleton graph; and `cutpoly decompose` prints what it prints with
    the frozen builder and sweep-only classes in place."""
    certified = []
    real = spqr._shape_class

    def record(sg):
        found = real(sg)
        if found is not None:
            certified.append((sg, found[0]))
        return found

    corpus = shape_corpus()
    assert len(corpus) >= 300
    checked = {"K5": 0, "PlanarTriangulation": 0}
    recorded = 0
    for k, g in enumerate(corpus):
        f = tmp_path / f"g{k}.cut"
        f.write_text(format_graph(g))
        monkeypatch.setattr(spqr, "_shape_class", record)
        certified.clear()
        printed = main(["decompose", str(f)]), capsys.readouterr().out
        blocks_ = decomposed(g)
        monkeypatch.setattr(spqr, "_spr_tree", sweep_only_spr_tree)
        assert (main(["decompose", str(f)]), capsys.readouterr().out) \
            == printed
        monkeypatch.undo()
        shaped = []
        for b in blocks_:
            for sid, (cls, emb, stored) in b.r_skeletons.items():
                if cls not in checked:
                    continue
                sg, _ = _skeleton_graph(b.tree.node(sid))
                assert stored == sg
                assert is_k_connected(sg, 3)
                if cls == "K5":
                    assert emb is None
                else:
                    assert emb.graph == sg
                    assert emb.rotation == planar_embed(sg).rotation
                shaped.append((sg, cls))
                checked[cls] += 1
        assert all(c in shaped for c in certified)
        recorded += len(certified)
    assert min(checked.values()) >= 100 and recorded >= 100, \
        (checked, recorded)


def test_k5_around_a_degree_4_node_is_non_planar():
    """A triangulation-shaped skeleton holding a K5 around its degree-4
    node 0 gets no shape certificate: the contraction embedding refutes
    it, and the skeleton is classed NonPlanar, as the whole block and as
    one R skeleton of a 2-sum with K4 on the edge 5-6."""
    pairs = [*itertools.combinations(range(5), 2),
             (5, 6), (1, 5), (2, 5), (3, 6), (4, 6)]
    g = Graph(7, [(u, v, 1) for u, v in pairs])
    assert len(g.edges) == 3 * 7 - 6 and is_k_connected(g, 3)
    assert spqr._shape_class(g) is None
    k4 = [(5, 7), (6, 7), (5, 8), (6, 8), (7, 8)]
    summed = Graph(9, list(g.edges) + [(u, v, 1) for u, v in k4])
    for h, kinds in ((g, ["NonPlanar"]),
                     (summed, ["NonPlanar", "PlanarTriangulation"])):
        (block,) = decompose_blocks(h)
        classes = {sid: cls for sid, (cls, _emb, _sg)
                   in block.r_skeletons.items()}
        assert sorted(classes.values()) == kinds
        assert block.witness is not None
        assert classes[block.witness.id] == "NonPlanar"
        assert block.witness.nodes == tuple(range(7))


def completion_checking_blocks_first(g: Graph):
    """`maximal_completion` as it stood before it joined the blocks
    first: each block decomposed for the K33 test, then the joined graph
    decomposed again."""
    if any(b.witness for b in decompose_blocks(g)):
        raise K33MinorError("input has a K33 minor")
    h, added = g, []
    while (bd := blocks(h)).cut_nodes:
        c = min(bd.cut_nodes)
        w1, w2 = [min(u + v - c for u, v, _w in (h.edges[i] for i in bedges)
                      if c in (u, v))
                  for bnodes, bedges in bd.blocks if c in bnodes][:2]
        h = h.with_edge(w1, w2, 0)
        added.append((min(w1, w2), max(w1, w2)))
    decomposition = decompose_blocks(h)
    if decomposition and decomposition[0].tree:
        (block,) = decomposition
        more = [(block.nodes[u], block.nodes[v])
                for u, v in _completion(block)[0]]
        h = Graph(h.node_count, list(h.edges) + [(u, v, 0) for u, v in more])
        added += more
    return h, added


def test_completion_decomposes_once(monkeypatch):
    """Two K5s sharing node 4 are joined first and decomposed once; on
    generated graphs the completion equals the one that checked every
    block first; and a K33 with a pendant block is refused, with the K33
    as the witness."""
    k5s = Graph(9, [(u, v, 1) for part in (range(5), range(4, 9))
                    for u, v in itertools.combinations(part, 2)])
    trees = []
    real = spqr._spr_tree

    def count(h):
        trees.append(h)
        return real(h)

    monkeypatch.setattr(spqr, "_spr_tree", count)
    h, added = maximal_completion(k5s)
    monkeypatch.undo()
    assert len(trees) == 1 and added == [(0, 5)]
    assert (h, added) == completion_checking_blocks_first(k5s)
    joined = 0
    for g in shape_corpus()[::6]:
        assert maximal_completion(g) == completion_checking_blocks_first(g)
        joined += len(blocks(g).blocks) > 1
    assert joined >= 10
    pendant = Graph(7, list(k33().edges) + [(0, 6, 1)])
    with pytest.raises(K33MinorError) as info:
        maximal_completion(pendant)
    assert info.value.witness.nodes == (0, 1, 2, 3, 4, 5)


def test_deep_chain_and_ladder_need_no_recursion():
    """A 400-piece chain decomposes and solves, and a 1,500-rung ladder
    (DFS depth about 3,000) decomposes, under the default recursion
    limit: into 1,499 squares and the 1,498 inner rungs as P skeletons."""
    assert sys.getrecursionlimit() <= 1000
    g = gen_k33free(GeneratorSpec(seed=1, component_count=400))
    decomposition = decompose_blocks(g)
    (block,) = decomposition
    assert sum(sn.kind == "R" for sn in block.tree.nodes) == 400
    assert _decomposed_maxcut(g, decomposition).value == 5496
    k = 1500
    ladder = Graph(2 * k, [(i, i + 1, 1) for i in range(k - 1)]
                   + [(k + i, k + i + 1, 1) for i in range(k - 1)]
                   + [(i, k + i, 1) for i in range(k)])
    tree = spr_tree(ladder)
    kinds = Counter(sn.kind for sn in tree.nodes)
    assert kinds == {"S": k - 1, "P": k - 2}
    assert recompose(tree, 2 * k) == ladder
