"""Work counts of the layers around the matching, by monkeypatched
counters and never by timing.  Each count is checked on a small and a
larger instance, so a bound that held only at one size shows up."""

import importlib
import itertools
import random

import pytest

from cutpoly import (GeneratorSpec, Graph, brute_hull, cut_vectors,
                     decompose_blocks, dual_graph, gen_k33free,
                     is_k_connected, maxcut, planar_embed, spr_tree)
from cutpoly import graphs as graphs_mod
from cutpoly import planar as planar_mod
from cutpoly import polytope, spqr
from cutpoly import tjoin as tjoin_mod
from helpers import (complete, decomposed, perfbench_module,
                     stacked_triangulation, triangulation, verify_small_pool)

SIZES = (24, 80)
maxcut_mod = importlib.import_module("cutpoly.maxcut")  # `maxcut` is the function


def counting(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that appends its arguments to log."""
    real = getattr(owner, name)

    def wrapper(*args):
        log.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)


def tree_work(monkeypatch, build, g):
    """Run build(g) and count its work: the lowpoint passes by masked
    node ([None] for a sweep of G itself, [] for a block split), the
    `blocks` calls, the Graphs built, and every embedding attempt through
    the block entry, failed ones included."""
    work = {"passes": [], "blocks": [], "graphs": [], "embeds": []}
    counting(monkeypatch, Graph, "__init__", work["graphs"])
    counting(monkeypatch, graphs_mod, "_lowpoint", work["passes"])
    counting(monkeypatch, spqr, "blocks", work["blocks"])
    counting(monkeypatch, planar_mod, "embed_block", work["embeds"])
    result = build(g)
    work["passes"] = [mask for _adj, *mask in work["passes"]]
    work["embeds"] = [h for (h,) in work["embeds"]]
    monkeypatch.undo()
    return result, work


@pytest.mark.parametrize("n", SIZES)
def test_spr_tree_of_triangulation_sweeps_once(n, monkeypatch):
    """A 3-connected stacked triangulation is one R skeleton, certified by
    its shape without the triconnected-components pass: the tree costs
    one sweep of G to prove it 2-connected and one embedding of G itself
    through the block entry, which sweeps nothing; it builds no Graph and
    sweeps no G-v.  `decompose_blocks` proves 2-connectivity by its block
    split instead, keeps G itself as the block's graph and the skeleton's,
    and keeps the embedding."""
    g = stacked_triangulation(n, random.Random(n))
    assert is_k_connected(g, 3)
    tree, work = tree_work(monkeypatch, spr_tree, g)
    assert [sn.kind for sn in tree.nodes] == ["R"]
    assert work["passes"] == [[None]] and not work["blocks"]
    assert not work["graphs"] and work["embeds"] == [g]
    (block,), work = tree_work(monkeypatch, decompose_blocks, g)
    assert [sn.kind for sn in block.tree.nodes] == ["R"]
    assert work["passes"] == [[]] and len(work["blocks"]) == 1
    assert not work["graphs"] and work["embeds"] == [g]
    _cls, emb, sg = block.r_skeletons[0]
    assert block.graph is sg is emb.graph is g


def test_spr_tree_of_k5_sweeps_no_g_minus_v(monkeypatch):
    """K5 is R by its shape alone: no sweep of any G-v and no embedding;
    only spr_tree's own 2-connectivity check sweeps G, and
    `decompose_blocks` replaces it by its block split."""
    g = complete(5)
    tree, work = tree_work(monkeypatch, spr_tree, g)
    assert [sn.kind for sn in tree.nodes] == ["R"]
    assert work == {"passes": [[None]], "blocks": [], "graphs": [],
                    "embeds": []}
    (block,), work = tree_work(monkeypatch, decompose_blocks, g)
    assert block.r_skeletons == {0: ("K5", None, g)}
    assert work["passes"] == [[]] and not work["embeds"]
    assert not work["graphs"] and block.r_skeletons[0][2] is g


@pytest.mark.parametrize("n", SIZES)
def test_maxcut_builds_each_graph_once(n, monkeypatch):
    """`maxcut` on a chain of n // 8 pieces and on a stacked triangulation
    of n nodes, each one block, builds no Graph for the block (it is g
    itself) and one for each S and R skeleton, the one its classification
    or its solve reads, and none for a skeleton that is the whole block;
    the block split is its only lowpoint pass."""
    chain = gen_k33free(GeneratorSpec(seed=n, component_count=n // 8))
    tri = stacked_triangulation(n, random.Random(n))
    built = []
    for g in (chain, tri):
        _result, work = tree_work(monkeypatch, maxcut, g)
        (block,) = decomposed(g)
        expected = [] if len(block.tree.nodes) == 1 else [
            spqr._skeleton_graph(sn)[0].edges for sn in block.tree.nodes
            if sn.kind != "P"]
        assert sorted(h.edges for h, *_ in work["graphs"]) == sorted(expected)
        assert work["passes"] == [[]]
        built.append(len(expected))
    assert built[0] >= n // 8 and built[1] == 0


@pytest.mark.parametrize("n", SIZES)
def test_pass_sweeps_only_uncertified_r_skeletons(n, monkeypatch):
    """Blocks that are not one certified shape go through the
    triconnected-components pass, which sweeps no G-v itself: a chain of
    K5s and triangulations (every R skeleton certified by its shape)
    sweeps none, and a thinned triangulation sweeps each G-v of exactly
    the R skeletons that no shape certifies.  Every R skeleton but a K5
    is embedded once."""
    chain = gen_k33free(GeneratorSpec(seed=n, component_count=n // 8))
    thinned = triangulation(n, thinned=True)
    swept = 0
    for g in (chain, thinned):
        decomposition, work = tree_work(monkeypatch, decompose_blocks, g)
        r_nodes = [(b, sn) for b in decomposition if b.tree
                   for sn in b.tree.nodes if sn.kind == "R"]
        uncertified = [sn for b, sn in r_nodes if b.r_skeletons[sn.id][0]
                       not in ("K5", "PlanarTriangulation")]
        masked = [mask for mask in work["passes"] if mask and mask != [None]]
        assert len(masked) == sum(len(sn.nodes) for sn in uncertified)
        assert len(work["embeds"]) == sum(b.r_skeletons[sn.id][0] != "K5"
                                          for b, sn in r_nodes)
        assert r_nodes
        swept += len(masked)
        if g is chain:
            assert not masked
    assert swept


@pytest.mark.parametrize("n", SIZES)
def test_tjoin_traces_only_matched_pairs(n, monkeypatch):
    """The dual of a triangulation has every face as a terminal; of the
    k(k-1)/2 terminal pairs only the k/2 matched ones are traced."""
    d = dual_graph(planar_embed(stacked_triangulation(n, random.Random(n))))
    rnd = random.Random(7)
    edges = [(a, b, rnd.randint(0, 9)) for a, b, _i, _w in d.edges]
    terminals = list(range(d.node_count))  # every face has degree 3
    traced = []
    counting(monkeypatch, tjoin_mod, "_trace_path", traced)
    tjoin_mod.min_weight_t_join(d.node_count, edges, terminals)
    assert len(terminals) == 2 * n - 4
    assert len(traced) == len(terminals) // 2


@pytest.mark.parametrize("n", (80, 320))
def test_tjoin_reads_a_sparse_metric(n, monkeypatch):
    """`maxcut` on a stacked triangulation (seed 1) runs its dual T-join
    on nearest-terminal candidates: each matching sees at most
    K_NEAREST * k pairs, not k(k-1)/2; the searches settle at most 40
    nodes per terminal over all rounds, pricing and path tracing
    included; and no k x k matrix reaches the dense public matching."""
    matchings, searches, dense = [], [], []
    real_init = tjoin_mod._Search.__init__

    def search_init(self, *args):
        searches.append(self)
        real_init(self, *args)

    counting(monkeypatch, tjoin_mod._Blossom, "solve", matchings)
    counting(monkeypatch, tjoin_mod, "min_weight_perfect_matching", dense)
    monkeypatch.setattr(tjoin_mod._Search, "__init__", search_init)
    maxcut(triangulation(n, thinned=False))
    (k,) = {solver.n for (solver,) in matchings}
    assert k > 2 * tjoin_mod.K_NEAREST
    assert all(len(solver.edges) <= tjoin_mod.K_NEAREST * k
               for (solver,) in matchings)
    assert len(searches) == k
    assert sum(len(s.dist) for s in searches) <= 40 * k
    assert not dense


@pytest.mark.parametrize("n", SIZES)
def test_small_skeletons_run_no_tjoin(n, monkeypatch):
    """`maxcut` on a 10-piece chain, whose skeletons all have at most
    MAX_ENUMERATED_NODES nodes, builds no dual and runs no T-join; a
    stacked triangulation of n nodes, one larger skeleton, runs exactly
    one."""
    chain = gen_k33free(GeneratorSpec(seed=n, component_count=10))
    tri = stacked_triangulation(n, random.Random(n))
    for g, joins in ((chain, 0), (tri, 1)):
        duals, tjoins = [], []
        counting(monkeypatch, planar_mod, "dual_graph", duals)
        counting(monkeypatch, tjoin_mod, "min_weight_t_join", tjoins)
        maxcut(g)
        monkeypatch.undo()
        assert len(duals) == len(tjoins) == joins
    assert max(len(sn.nodes) for b in decompose_blocks(chain)
               for sn in b.tree.nodes) <= maxcut_mod.MAX_ENUMERATED_NODES


@pytest.mark.parametrize("n", SIZES)
def test_triangulation_shapes_skip_the_fragment_method(n, monkeypatch):
    """`maxcut` on a 10-piece chain and on a stacked triangulation of n
    nodes embeds every skeleton by contraction and never reaches the
    fragment method; a thinned triangulation, whose skeletons are not
    all maximal planar, still does."""
    chain = gen_k33free(GeneratorSpec(seed=n, component_count=10))
    tri = stacked_triangulation(n, random.Random(n))
    for g, fragments in ((chain, False), (tri, False),
                         (triangulation(n, thinned=True), True)):
        contracted, routed = [], []
        counting(monkeypatch, planar_mod, "_embed_triangulation", contracted)
        counting(monkeypatch, planar_mod, "_embed_biconnected", routed)
        maxcut(g)
        monkeypatch.undo()
        assert bool(routed) == fragments
        assert contracted or fragments
        assert all(len(h.edges) == 3 * h.node_count - 6
                   for (h,) in contracted)
        assert all(len(h.edges) < 3 * h.node_count - 6 for (h,) in routed)


def first_verify_m12() -> Graph:
    """The first 12-edge graph of the benchmark's verify-small pool."""
    return next(g for g in verify_small_pool(1) if len(g.edges) == 12)


@pytest.mark.parametrize("graph", [lambda: complete(5), first_verify_m12],
                         ids=("K5", "verify-m12"))
def test_dd_cone_multiplies_each_row_with_each_live_ray_once(graph,
                                                             monkeypatch):
    """Each row added after the starting basis is multiplied once with
    every ray live at that step and with nothing else, so no combined
    ray's tight set is recomputed by products."""
    products, calls = [], []
    real_dot, real_cone = polytope._dot, polytope._dd_cone

    def dot(row, vec):
        products.append((tuple(row), vec, real_dot(row, vec)))
        return products[-1][2]

    def cone(rows):
        calls.append((rows, real_cone(rows)))
        return calls[-1][1]

    monkeypatch.setattr(polytope, "_dot", dot)
    monkeypatch.setattr(polytope, "_dd_cone", cone)
    brute_hull(cut_vectors(graph()))
    [(rows, result)] = calls
    steps: dict[tuple[int, ...], dict] = {}  # row -> {ray: product}
    for row, vec, val in products:
        assert vec not in steps.setdefault(row, {})
        steps[row][vec] = val
    # one contiguous step per non-basis row, in row order
    order = [tuple(r) for r in rows if tuple(r) in steps]
    assert [row for row, _ in itertools.groupby(r for r, _v, _x in products)] \
        == order
    assert len(steps) == len(rows) - len(rows[0])
    # every step sees the survivors of the last one, and no dropped ray
    live, dropped = set(), set()
    for vals in steps.values():
        assert live <= vals.keys() and not dropped & vals.keys()
        live = {v for v, val in vals.items() if val <= 0}
        dropped |= vals.keys() - live
    assert live <= set(result) and not dropped & set(result)


@pytest.mark.parametrize("graph", [lambda: complete(5), first_verify_m12],
                         ids=("K5", "verify-m12"))
def test_brute_hull_hands_dd_cone_one_row_per_point(graph, monkeypatch):
    """The cone has one row (p, 1) per distinct point and nothing else:
    no extra homogenizing row."""
    calls = []
    counting(monkeypatch, polytope, "_dd_cone", calls)
    points = cut_vectors(graph())
    brute_hull(points + points[:1])
    [(rows,)] = calls
    assert sorted(map(tuple, rows)) == sorted((*p, 1) for p in points)


def test_traced_names_resolve():
    """Every function the bench tracer wraps exists under its name, so
    renaming or deleting one fails here, not only in a traced bench run."""
    for modname, attr in perfbench_module("tracer").TARGETS:
        owner = importlib.import_module(f"cutpoly.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
