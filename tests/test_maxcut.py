import random
from collections import Counter

import pytest

from cutpoly import (EliminationState, Graph, GraphError, K33MinorError,
                     cut_weight, decompose_blocks, maxcut,
                     maxcut_bruteforce, planar_maxcut)
from cutpoly.maxcut import (MAX_ENUMERATED_NODES, NonPlanarError,
                            _embedded_maxcuts, _two_color)
from frozen_elimination import FrozenElimination
from helpers import (complete, cycle, decomposed, double_k5,
                     forced_cut_optimum, k33, octahedron,
                     random_planar_2connected, run_python, shape_corpus,
                     stacked_triangulation)


def test_bruteforce_examples():
    assert maxcut_bruteforce(complete(5)).value == 6
    assert maxcut_bruteforce(cycle(4)).value == 4
    res = maxcut_bruteforce(Graph(2, [(0, 1, -3)]))
    assert res.value == 0 and res.cut.side == 0


def test_bruteforce_tie_break_is_lexicographic():
    g = Graph(3, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])  # everything ties at 0
    res = maxcut_bruteforce(g)
    assert res.cut.side == 0  # smallest canonical side: the empty one


def test_planar_maxcut_c4_and_forcing():
    g = cycle(4)
    assert planar_maxcut(g).value == 4
    assert planar_maxcut(g, (0, True)).value == 4
    assert planar_maxcut(g, (0, False)).value == 2


@pytest.mark.parametrize("solver", [maxcut_bruteforce, planar_maxcut])
@pytest.mark.parametrize("index", [3, -1])
def test_forced_index_outside_edges_is_rejected(solver, index):
    with pytest.raises(GraphError, match="forced edge index"):
        solver(complete(3), (index, True))


@pytest.mark.parametrize("solver", [maxcut_bruteforce, planar_maxcut])
@pytest.mark.parametrize("in_cut", [2, -1])
def test_forced_in_cut_outside_0_1_is_rejected(solver, in_cut):
    with pytest.raises(GraphError, match="forced in_cut"):
        solver(complete(3), (0, in_cut))


def test_forced_index_check_runs_without_asserts():
    proc = run_python("-O", "-c", """if 1:
        from cutpoly import GraphError, Graph, maxcut_bruteforce, planar_maxcut
        k3 = Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        for solver in (maxcut_bruteforce, planar_maxcut):
            for forced in ((3, False), (-1, False), (0, 2), (0, -1)):
                try:
                    solver(k3, forced)
                except GraphError as exc:
                    print(exc)
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("forced edge index") == 4
    assert proc.stdout.count("forced in_cut") == 4


def test_planar_maxcut_rejects():
    with pytest.raises(NonPlanarError):
        planar_maxcut(complete(5))
    from cutpoly import NotTwoConnectedError
    with pytest.raises(NotTwoConnectedError):
        planar_maxcut(Graph(3, [(0, 1, 1), (1, 2, 1)]))


def test_planar_maxcut_matches_bruteforce():
    for seed in range(40):
        g = random_planar_2connected(seed)
        rb = maxcut_bruteforce(g)
        rp = planar_maxcut(g)
        assert rp.value == rb.value
        assert cut_weight(g, rp.cut) == rp.value


def test_planar_forced_variants_consistent():
    rnd = random.Random(4)
    for seed in range(30):
        g = random_planar_2connected(seed + 100)
        idx = rnd.randrange(len(g.edges))
        r_in = planar_maxcut(g, (idx, True))
        r_out = planar_maxcut(g, (idx, False))
        assert max(r_in.value, r_out.value) == planar_maxcut(g).value
        assert r_in.value == forced_cut_optimum(g, idx, True)
        assert r_out.value == forced_cut_optimum(g, idx, False)
        assert (r_in.cut.indicator >> idx) & 1 == 1
        assert (r_out.cut.indicator >> idx) & 1 == 0


# -- elimination steps -----------------------------------------------------------

def two_triangles(w0, w1, w2, w3, w4):
    """Triangles 0-2-1 and 0-3-1 sharing the original edge 0-1."""
    return Graph(4, [(0, 1, w0), (0, 2, w1), (1, 2, w2), (0, 3, w3), (1, 3, w4)])


@pytest.mark.parametrize("weights", [
    (2, 3, 5, -1, 4), (-3, 1, 1, 2, 2), (0, 0, 0, 0, 0), (5, -2, -4, 1, 1),
])
def test_first_step_betas_on_shared_triangles(weights):
    """First elimination of a triangle leaf: beta+ = w(ab) + max of its two
    side weights, beta- = max(0, their sum).  Verified against the hand
    enumeration of the four cuts of a triangle."""
    w0, w1, w2, w3, w4 = weights
    g = two_triangles(*weights)
    state = EliminationState(decompose_blocks(g)[0])
    leaf = state.eligible_leaves()[0]
    step = state.eliminate(leaf)
    ww1, ww2 = (w1, w2) if 2 in state.tree.node(step.leaf).nodes else (w3, w4)
    assert step.beta_plus == w0 + max(ww1, ww2)
    assert step.beta_minus == max(0, ww1 + ww2)
    assert step.gamma == step.beta_plus - step.beta_minus
    value, _edges = state.run()
    assert value == maxcut_bruteforce(g).value


def test_k5_leaf_betas():
    """Leaf K5 skeleton with unit originals.  The virtual edge carries the
    weight of its node pair: 0 when the pair has no original edge,
    so the best ab-in-cut value is 5 and the best ab-out value is 6
    (enumeration over the 16 cuts of K5); with a unit original edge on
    the pair both are 6."""
    state = EliminationState(decompose_blocks(double_k5())[0])
    step = state.eliminate(state.eligible_leaves()[0])
    assert (step.beta_plus, step.beta_minus) == (5, 6)
    value, _ = state.run()
    assert value == 12

    # strict variant: keep the shared edge with weight 1
    g = double_k5().with_edge(0, 1, 1)
    state = EliminationState(decompose_blocks(g)[0])
    step = state.eliminate(state.eligible_leaves()[0])
    assert (step.beta_plus, step.beta_minus) == (6, 6)


def test_s_node_c4_leaf_betas():
    """C4 leaf (cycle skeleton) glued on a unit edge: the four cuts of C4
    containing the virtual edge are three pairs (value 2 each) and the
    all-edges cut (value 4), so beta+ = 4; beta- = 2."""
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1),
                  (0, 4, 1), (1, 4, 1)])
    state = EliminationState(decompose_blocks(g)[0])
    leaf = next(l for l in state.eligible_leaves()
                if len(state.tree.node(l).edges) == 4)
    step = state.eliminate(leaf)
    assert (step.beta_plus, step.beta_minus) == (4, 2)
    value, _ = state.run()
    assert value == maxcut_bruteforce(g).value


def test_elimination_telescope():
    """Accumulated beta-minus plus the final component's optimum equals
    the reported value."""
    g = double_k5()
    state = EliminationState(decompose_blocks(g)[0])
    while not state.done():
        state.eliminate(state.eligible_leaves()[0])
    (final,) = state.adj
    ((final_value, _cut),) = state._skeleton_cuts(final, [None])
    value, _edges = state.run()
    assert state.base == sum(s.beta_minus for s in state.steps)
    assert value == state.base + final_value
    assert value == maxcut_bruteforce(g).value


def induced_cut(sn, side) -> int:
    """The indicator of the cut that a node side induces on the edges of
    skeleton `sn`."""
    return sum(1 << j for j, e in enumerate(sn.edges)
               if (e.u in side) != (e.v in side))


def test_elimination_matches_frozen_augmented_oracle():
    """Node pairs take the very steps of the augmented tree
    (`FrozenElimination`, the elimination before pair weights): same leaves,
    virtual edges, betas and gammas, the same cuts on each leaf
    skeleton's edges, and the same value and crossing edges at the end,
    under lowest-id order and three seeded random orders."""
    from cutpoly import GeneratorSpec, gen_k33free
    graphs = [gen_k33free(GeneratorSpec(
        seed=seed, component_count=1 + seed % 8, tri_size=(4, 4 + seed % 9),
        strict=seed % 3 == 0, deletion_prob=(seed % 4, 10)))
        for seed in range(200)]
    graphs += [stacked_triangulation(n, random.Random(n))
               for n in (8, 20, 40, 80)]
    decomposed = [b for g in graphs for b in decompose_blocks(g) if b.tree]
    assert len(decomposed) >= 200
    for block in decomposed:
        for seed in (None, 1, 2, 3):
            state, frozen = EliminationState(block), FrozenElimination(block)
            rnd = random.Random(seed)
            while not frozen.done():
                leaves = frozen.eligible_leaves()
                assert state.eligible_leaves() == leaves
                leaf = leaves[0] if seed is None else rnd.choice(leaves)
                got, want = state.eliminate(leaf), frozen.eliminate(leaf)
                sn = state.tree.node(leaf)
                assert (got.leaf, got.virtual_edge, got.beta_plus,
                        got.beta_minus, got.gamma, got.cut_in, got.cut_out
                        ) == (want.leaf, want.virtual_edge, want.beta_plus,
                              want.beta_minus, want.gamma,
                              induced_cut(sn, want.side_in),
                              induced_cut(sn, want.side_out))
            value, edges = state.finish()
            frozen_value, assign = frozen.finish()
            assert state.done() and (value, set(edges)) == (frozen_value, {
                i for i, (u, v, _w) in enumerate(block.graph.edges)
                if assign[u] != assign[v]})


def test_enumerated_skeletons_match_bruteforce_and_tjoin():
    """Every S and R skeleton with at most MAX_ENUMERATED_NODES nodes in
    the shared corpus, and K5, as the elimination meets it (gammas on its
    virtual edges): beta+ and beta- of a leaf, or the optimum of the last
    skeleton, and their witnesses are those of `maxcut_bruteforce` with
    the same forced edge, and the values are those of the dual T-joins
    on the skeleton's embedding where it has one."""
    checked = Counter()

    def check(state, sid, sg, pinned, got):
        sn = state.tree.node(sid)
        to_sub = {x: i for i, x in enumerate(sn.nodes)}
        forceds = [fv and (sg.edge_index(to_sub[fv[0]], to_sub[fv[1]]), fv[2])
                   for fv in pinned]
        brute = [maxcut_bruteforce(sg, forced) for forced in forceds]
        assert got == [(r.value, r.cut.indicator) for r in brute], sn
        cls = "S" if sn.kind == "S" else state.r_skeletons[sid][0]
        if cls != "K5":
            tjoin = _embedded_maxcuts(state._embedding(sid, sg), forceds)
            assert [r.value for r in tjoin] == [r.value for r in brute], sn
        checked[cls] += 1

    for g in shape_corpus() + (complete(5),):
        for block in decomposed(g):
            if block.tree is None:
                continue
            state = EliminationState(block)
            small = {sn.id for sn in block.tree.nodes
                     if len(sn.nodes) <= MAX_ENUMERATED_NODES}
            while not state.done():
                leaf = state.eligible_leaves()[0]
                skeleton = state._skeleton_graph(leaf)  # before its gamma
                step = state.eliminate(leaf)
                if leaf in small:
                    a, b = step.virtual_edge
                    check(state, leaf, skeleton, [(a, b, True), (a, b, False)],
                          [(step.beta_plus, step.cut_in),
                           (step.beta_minus, step.cut_out)])
            (last,) = state.adj
            if last in small:
                check(state, last, state._skeleton_graph(last), [None],
                      state._skeleton_cuts(last, [None]))
    assert min(checked.values()) >= 100 and len(checked) == 4, checked


# a non-strict 3-piece chain R - R - R, built once as is and once with its
# second tree edge moved onto the first one's node pair
PAIR_SHARED_OUTSIDE_P = """
from dataclasses import replace
from cutpoly import (CertificationError, EliminationState, GeneratorSpec,
                     decompose_blocks, gen_k33free)
(block,) = decompose_blocks(gen_k33free(GeneratorSpec(
    seed=1, component_count=3, strict=False)))
tree = block.tree
(a, _b, first), (_c, _d, second) = tree.tree_edges
assert {sn.kind for sn in tree.nodes} == {"R"}
pair = next(e for e in tree.node(a).virtuals() if e.ref == first)
nodes = tuple(replace(sn, edges=tuple(
    replace(e, u=pair.u, v=pair.v) if e.kind == "virt" and e.ref == second
    else e for e in sn.edges)) for sn in tree.nodes)
print(EliminationState(block).run()[0] > 0)
try:
    EliminationState(replace(block, tree=replace(tree, nodes=nodes)))
except CertificationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_pair_shared_outside_one_p_skeleton_raises(flags):
    """The elimination keys weights and crossings by node pair, so two
    tree edges may share a pair only around one P skeleton; a tree that
    breaks this is refused, with or without asserts."""
    proc = run_python(*flags, "-c", PAIR_SHARED_OUTSIDE_P)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True", "two tree edges outside one P skeleton share a node pair"]


def test_eliminate_rejects_non_leaves():
    state = EliminationState(decompose_blocks(double_k5())[0])
    import pytest as _pytest
    from cutpoly import GraphError
    leaf = state.eligible_leaves()[0]
    other = [i for i in state.alive() if i != leaf]
    with _pytest.raises(GraphError):
        state.eliminate(10_000)
    # a P node is never eliminable by hand
    p_nodes = [i for i in state.alive() if state.kind[i] == "P"]
    if p_nodes:
        with _pytest.raises(GraphError):
            state.eliminate(p_nodes[0])


# -- the full solver -----------------------------------------------------------

def test_maxcut_double_k5_is_12():
    res = maxcut(double_k5())
    assert res.value == 12
    assert cut_weight(double_k5(), res.cut) == 12
    # every optimum keeps the glued pair 0, 1 on a common side
    side = set(res.cut.side_nodes())
    assert (0 in side) == (1 in side)


def test_maxcut_two_triangles_unit():
    g = two_triangles(1, 1, 1, 1, 1)
    assert maxcut(g).value == 4


def test_maxcut_k5_block():
    assert maxcut(complete(5)).value == maxcut_bruteforce(complete(5)).value == 6


def test_maxcut_rejects_k33():
    with pytest.raises(K33MinorError) as err:
        maxcut(k33())
    assert err.value.witness is not None


def test_maxcut_handles_blocks_and_components():
    # two components, one with a cut node
    g = Graph(9, [(0, 1, 3), (1, 2, -1), (1, 3, 4), (2, 3, 2),
                  (4, 5, 2), (5, 6, 5), (4, 6, -2),
                  (7, 8, -4)])
    res = maxcut(g)
    assert res.value == maxcut_bruteforce(g).value
    assert cut_weight(g, res.cut) == res.value


def test_maxcut_empty_and_tiny():
    assert maxcut(Graph(0, [])).value == 0
    assert maxcut(Graph(3, [])).value == 0
    assert maxcut(Graph(2, [(0, 1, 5)])).value == 5


class _Chooser:
    def __init__(self, seed):
        self.rnd = random.Random(seed)

    def choice(self, seq):
        return seq[self.rnd.randrange(len(seq))]


def test_leaf_order_independence():
    """Each block's elimination reaches the value of lowest-id order
    under four seeded random leaf orders, and each order's replayed
    witness cuts exactly that value."""
    from cutpoly import GeneratorSpec, gen_k33free
    for seed in (3, 17, 40, 77):
        g = gen_k33free(GeneratorSpec(seed=seed, component_count=3,
                                      strict=False, deletion_prob=(1, 10)))
        for block in decompose_blocks(g):
            if block.tree is None:
                continue
            baseline, _edges = EliminationState(block).run()
            for trial in range(4):
                order = _Chooser(seed * 100 + trial)
                value, edges = EliminationState(block).run(order)
                cut = _two_color(block.graph, set(edges))
                assert cut.edge_indices() == tuple(sorted(edges))
                assert value == baseline
                assert cut_weight(block.graph, cut) == value


def test_maxcut_matches_bruteforce_on_planar_unions():
    for seed in range(25):
        g = random_planar_2connected(seed + 300, nmax=9)
        res = maxcut(g)
        assert res.value == maxcut_bruteforce(g).value
        assert cut_weight(g, res.cut) == res.value


def test_maxcut_octahedron():
    assert maxcut(octahedron()).value == maxcut_bruteforce(octahedron()).value


def test_maxcut_oracle_equivalence_up_to_20_nodes():
    from cutpoly import GeneratorSpec, gen_k33free
    count = 0
    for seed in range(1000, 1060):
        spec = GeneratorSpec(seed=seed, component_count=2 + (seed % 3),
                             kinds=("k5", "triangulation"), tri_size=(4, 7),
                             strict=(seed % 3 == 0), deletion_prob=(4, 20),
                             weight_range=(-10, 10))
        g = gen_k33free(spec)
        if g.node_count > 20:
            continue
        count += 1
        res = maxcut(g)
        assert res.value == maxcut_bruteforce(g).value, seed
        assert cut_weight(g, res.cut) == res.value, seed
    assert count >= 40


def test_maxcut_blocks_and_unions_random():
    """Disjoint unions of generated pieces, chained through shared cut
    nodes, exercise the block-splitting and witness-gluing paths."""
    from cutpoly import GeneratorSpec, gen_k33free
    rnd = random.Random(11)
    for trial in range(20):
        g1 = gen_k33free(GeneratorSpec(seed=900 + trial, component_count=1,
                                       tri_size=(4, 5), weight_range=(-6, 6)))
        g2 = gen_k33free(GeneratorSpec(seed=950 + trial, component_count=1,
                                       tri_size=(4, 5), weight_range=(-6, 6)))
        n1 = g1.node_count
        edges = list(g1.edges) + [(u + n1, v + n1, w) for u, v, w in g2.edges]
        n = n1 + g2.node_count
        if trial % 2:
            # fuse them at a cut node by a bridge, sometimes a pendant path
            edges.append((rnd.randrange(n1), n1 + rnd.randrange(g2.node_count),
                          rnd.randint(-6, 6)))
        g = Graph(n, edges)
        if g.node_count > 22:
            continue
        res = maxcut(g)
        assert res.value == maxcut_bruteforce(g).value, trial
        assert cut_weight(g, res.cut) == res.value
