"""Exact MaxCut solvers.

Three layers: a brute-force oracle (cut enumeration), a planar solver
(maximum cut = total weight minus a minimum T-join in the dual), and the
main solver for K33-minor-free graphs, which eliminates SPR-tree leaves
one at a time.  Each leaf contributes the best cut value with its virtual
edge forced in (beta+) and forced out (beta-); the difference is charged
to the parallel original edge and the leaf is removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import (Cut, Graph, GraphError, NotTwoConnectedError,
                     SizeLimitError, blocks, compact_graph,
                     connected_components, cut_from_side, cut_weight,
                     is_k_connected)
from . import planar as planar_mod
from . import spqr as spqr_mod
from . import tjoin as tjoin_mod
from .spqr import K33MinorError


@dataclass(frozen=True)
class MaxCutResult:
    value: int
    cut: Cut


@dataclass(frozen=True)
class EliminationStep:
    """One SPR-tree leaf elimination.

    beta_plus / beta_minus are the best cut values of the leaf skeleton
    with the virtual edge forced into / out of the cut; side_in/side_out
    are the matching node sides, kept for witness reconstruction.
    """
    leaf: int
    virtual_edge: tuple[int, int]
    beta_plus: int
    beta_minus: int
    gamma: int
    nodes: frozenset[int] = field(repr=False, default=frozenset())
    side_in: frozenset[int] = field(repr=False, default=frozenset())
    side_out: frozenset[int] = field(repr=False, default=frozenset())


def maxcut_bruteforce(g: Graph) -> MaxCutResult:
    """Exact optimum by enumerating all cuts (guard: 24 nodes).

    Ties break toward the lexicographically smallest canonical side.
    """
    n = g.node_count
    if n > 24:
        raise SizeLimitError("maxcut_bruteforce guard: node_count <= 24")
    if n == 0 or not g.edges:
        return MaxCutResult(0, cut_from_side(g, []))
    count = 1 << (n - 1)
    if count * max(1, len(g.edges)) <= 1 << 28 and g.abs_weight() < 1 << 50:
        masks = np.arange(count, dtype=np.int64)
        zeros = np.zeros(count, dtype=np.int64)
        values = np.zeros(count, dtype=np.int64)
        for u, v, w in g.edges:
            bu = (masks >> (u - 1)) & 1 if u > 0 else zeros
            bv = (masks >> (v - 1)) & 1 if v > 0 else zeros
            values += w * (bu ^ bv)
        best = int(values.max())
        ties = np.flatnonzero(values == best)
        side = min(tuple(sorted(_mask_nodes(int(t)))) for t in ties)
        cut = cut_from_side(g, side)
    else:
        best = None
        bestside: tuple[int, ...] | None = None
        for t in range(count):
            side = _mask_nodes(t)
            c = cut_from_side(g, side)
            w = cut_weight(g, c)
            key = tuple(sorted(side))
            if best is None or w > best or (w == best and key < bestside):
                best, bestside = w, key
        cut = cut_from_side(g, bestside)
    assert cut_weight(g, cut) == best
    return MaxCutResult(best, cut)


def _mask_nodes(t: int) -> tuple[int, ...]:
    # bit i of t selects node i+1 (node 0 stays outside the side)
    out = []
    v = 1
    while t:
        if t & 1:
            out.append(v)
        t >>= 1
        v += 1
    return tuple(out)


class NonPlanarError(GraphError):
    """planar_maxcut got a non-planar graph."""


def planar_maxcut(g: Graph,
                  forced: tuple[int, bool] | None = None) -> MaxCutResult:
    """Exact MaxCut on a 2-connected planar graph via the dual T-join.

    value = sum of all weights - min T-join in the dual where T is the set
    of odd-degree dual nodes.  `forced` = (edge index, in_cut) pins one
    edge by a big-M weight shift (M = 1 + sum |w|), corrected afterwards.
    """
    if not is_k_connected(g, 2):
        raise NotTwoConnectedError("planar_maxcut needs a 2-connected graph")
    weights = [w for _u, _v, w in g.edges]
    shift = 0
    if forced is not None:
        idx, in_cut = forced
        big = 1 + g.abs_weight()
        if in_cut:
            weights[idx] += big
            shift = big
        else:
            weights[idx] -= big
    emb = planar_mod.planar_embed(g.reweighted(weights))
    if emb is None:
        raise NonPlanarError("planar_maxcut needs a planar graph")
    value, cut = _dual_tjoin_maxcut(emb)
    value -= shift
    if forced is not None:
        idx, in_cut = forced
        assert ((cut.indicator >> idx) & 1) == int(in_cut), "forcing failed"
        value2 = cut_weight(g, cut)
        assert value2 == value, "witness weight drift"
    else:
        assert cut_weight(g, cut) == value
    return MaxCutResult(value, cut)


def _dual_tjoin_maxcut(emb: planar_mod.Embedding) -> tuple[int, Cut]:
    g = emb.graph
    dual = planar_mod.dual_graph(emb)
    deg = [0] * dual.node_count
    for fa, fb, _i, _w in dual.edges:
        deg[fa] += 1
        deg[fb] += 1
    terminals = {f for f in range(dual.node_count) if deg[f] % 2}
    dedges = [(fa, fb, w) for fa, fb, _i, w in dual.edges]
    join, join_total = tjoin_mod.min_weight_t_join(dual.node_count, dedges,
                                                   terminals)
    value = g.total_weight() - join_total
    in_cut = set(range(len(g.edges))) - set(join)
    cut = _two_color(g, in_cut)
    return value, cut


def _two_color(g: Graph, cut_edges: set[int]) -> Cut:
    """Recover a node side from a consistent crossing-edge set."""
    color = [-1] * g.node_count
    for comp in connected_components(g):
        root = comp[0]
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, i in g.neighbors(x):
                c = color[x] ^ (1 if i in cut_edges else 0)
                if color[y] == -1:
                    color[y] = c
                    stack.append(y)
                else:
                    assert color[y] == c, "cut edge set is not a cut"
    return cut_from_side(g, [v for v in range(g.node_count) if color[v] == 1])


def _dense_maxcut(g: Graph,
                  forced: tuple[int, bool] | None = None) -> tuple[int, frozenset[int]]:
    """Cut enumeration for tiny skeletons (K5 leaves: 16 cuts)."""
    best = None
    best_side: frozenset[int] | None = None
    n = g.node_count
    for t in range(1 << (n - 1)):
        side = _mask_nodes(t)
        c = cut_from_side(g, side)
        if forced is not None:
            idx, in_cut = forced
            if ((c.indicator >> idx) & 1) != int(in_cut):
                continue
        w = cut_weight(g, c)
        if best is None or w > best:
            best, best_side = w, frozenset(side)
    assert best is not None
    return best, best_side


# -- SPR-tree elimination ----------------------------------------------------

class EliminationState:
    """Working state of one 2-connected block during leaf elimination.

    Holds the block's SPR tree as built (`tree`, before augmentation), the
    augmented graph's current edge weights, the shrinking tree, and the
    recorded steps.  Mutated in place by eliminate(); finish()
    solves the last component and returns (value, node side set).
    """

    def __init__(self, block: Graph):
        if len(block.edges) < 3:
            raise GraphError("elimination needs a block with >= 3 edges")
        self.tree = spqr_mod.spr_tree(block)
        aug, tree = spqr_mod.augment_with_parallel_originals(block, self.tree)
        self.graph = aug
        self.weight: dict[int, int] = {i: w for i, (_u, _v, w) in enumerate(aug.edges)}
        self.kind: dict[int, str] = {sn.id: sn.kind for sn in tree.nodes}
        self.skel_edges: dict[int, list[spqr_mod.SkelEdge]] = {
            sn.id: list(sn.edges) for sn in tree.nodes}
        self.adj: dict[int, dict[int, int]] = {sn.id: {} for sn in tree.nodes}
        for a, b, pid in tree.tree_edges:
            self.adj[a][b] = pid
            self.adj[b][a] = pid
        self.base = 0
        self.steps: list[EliminationStep] = []
        self._dissolve_p_leaves()

    # -- tree queries ----------------------------------------------------

    def alive(self) -> list[int]:
        return sorted(self.adj)

    def eligible_leaves(self) -> list[int]:
        """S/R leaves ready for elimination (P leaves dissolve on their own)."""
        return sorted(v for v in self.adj
                      if len(self.adj[v]) == 1 and self.kind[v] != "P")

    def done(self) -> bool:
        return len(self.adj) == 1

    # -- invariant upkeep -------------------------------------------------

    def _dissolve_p_leaves(self) -> None:
        while len(self.adj) > 1:
            p = next((v for v in sorted(self.adj)
                      if self.kind[v] == "P" and len(self.adj[v]) == 1), None)
            if p is None:
                return
            (nbr, pid), = self.adj[p].items()
            origs = [e for e in self.skel_edges[p] if e.kind == "orig"]
            assert len(origs) == 1, "P leaf must hold exactly one original"
            keep = origs[0]
            self.skel_edges[nbr] = [
                spqr_mod.SkelEdge(e.u, e.v, "orig", keep.ref, 0)
                if e.kind == "virt" and e.ref == pid else e
                for e in self.skel_edges[nbr]]
            del self.adj[p], self.skel_edges[p], self.kind[p]
            del self.adj[nbr][p]

    def _parallel_original(self, leaf: int, pid: int) -> int:
        """Edge index of the original parallel to virtual pair `pid`,
        held by the P neighbor."""
        nbr = next(b for b, q in self.adj[leaf].items() if q == pid)
        assert self.kind[nbr] == "P", "augmentation guarantees a P neighbor"
        origs = [e for e in self.skel_edges[nbr] if e.kind == "orig"]
        assert len(origs) == 1
        return origs[0].ref

    # -- solving one skeleton ----------------------------------------------

    def _skeleton_cut(self, sid: int,
                      forced_virtual: tuple[int, int, bool] | None,
                      ) -> tuple[int, frozenset[int]]:
        """Best cut of a skeleton graph; virtual edges take the current
        weight of their parallel originals.  Returns value and the global
        node side."""
        edges = []
        for e in self.skel_edges[sid]:
            if e.kind == "orig":
                edges.append((e.u, e.v, self.weight[e.ref]))
            else:
                edges.append((e.u, e.v, self.weight[self._parallel_original(sid, e.ref)]))
        nodes = [x for e in self.skel_edges[sid] for x in (e.u, e.v)]
        sg, to_sub = compact_graph(nodes, edges)
        back = {i: v for v, i in to_sub.items()}
        forced = None
        if forced_virtual is not None:
            a, b, in_cut = forced_virtual
            forced = (sg.edge_index(to_sub[a], to_sub[b]), in_cut)
        if sg.node_count == 5 and len(sg.edges) == 10:
            value, side = _dense_maxcut(sg, forced)
        else:
            res = planar_maxcut(sg, forced)
            value, side = res.value, frozenset(res.cut.side_nodes())
        return value, frozenset(back[v] for v in side)

    # -- the elimination step ------------------------------------------------

    def eliminate(self, leaf: int) -> EliminationStep:
        if leaf not in self.adj or len(self.adj[leaf]) != 1 \
                or self.kind[leaf] == "P":
            raise GraphError(f"node {leaf} is not an eliminable leaf")
        virtuals = [e for e in self.skel_edges[leaf] if e.kind == "virt"]
        assert len(virtuals) == 1, "leaf must contain exactly one virtual edge"
        ve = virtuals[0]
        a, b = ve.endpoints()
        ab_edge = self._parallel_original(leaf, ve.ref)
        skel_nodes = frozenset(x for e in self.skel_edges[leaf]
                               for x in (e.u, e.v))
        beta_plus, side_in = self._skeleton_cut(leaf, (a, b, True))
        beta_minus, side_out = self._skeleton_cut(leaf, (a, b, False))
        gamma = beta_plus - beta_minus
        self.weight[ab_edge] = gamma
        self.base += beta_minus
        (nbr, pid), = self.adj[leaf].items()
        del self.adj[leaf], self.skel_edges[leaf], self.kind[leaf]
        del self.adj[nbr][leaf]
        self.skel_edges[nbr] = [e for e in self.skel_edges[nbr]
                                if not (e.kind == "virt" and e.ref == pid)]
        step = EliminationStep(leaf, (a, b), beta_plus, beta_minus, gamma,
                               skel_nodes, frozenset(side_in),
                               frozenset(side_out))
        self.steps.append(step)
        self._dissolve_p_leaves()
        return step

    def finish(self) -> tuple[int, dict[int, int]]:
        """Solve the final component and replay steps for a witness."""
        assert self.done(), "finish() before the tree is down to one node"
        (sid,) = self.adj
        if self.kind[sid] == "P":
            # cannot happen: a P with one tree edge dissolves, with zero it
            # would have been the whole tree of a bond (not a simple graph)
            raise AssertionError("final node cannot be a P bundle")
        value, side = self._skeleton_cut(sid, None)
        total = self.base + value
        assign = {v: 0 for e in self.skel_edges[sid] for v in (e.u, e.v)}
        for v in side:
            assign[v] = 1
        for step in reversed(self.steps):
            a, b = step.virtual_edge
            want_cut = assign[a] != assign[b]
            side_set = step.side_in if want_cut else step.side_out
            local = {v: 0 for v in step.nodes}
            for v in side_set:
                local[v] = 1
            if local[a] != assign[a]:
                local = {v: 1 - c for v, c in local.items()}
            assert local[a] == assign[a] and local[b] == assign[b], \
                "leaf witness disagrees at the virtual edge"
            for v, c in local.items():
                if v not in (a, b):
                    assign[v] = c
        return total, assign

    def run(self, order=None) -> tuple[int, dict[int, int]]:
        """Eliminate until done.  `order` picks among eligible leaves
        (default: lowest id); pass an rng-like with .choice for tests."""
        while not self.done():
            leaves = self.eligible_leaves()
            assert leaves, "tree with >1 node must have an S/R leaf"
            leaf = order.choice(leaves) if order is not None else leaves[0]
            self.eliminate(leaf)
        return self.finish()


def maxcut(g: Graph, order=None) -> MaxCutResult:
    """Exact MaxCut for K33-minor-free graphs (block split + elimination).

    Raises K33MinorError, carrying the offending R skeleton, otherwise.
    """
    assign: dict[int, int] = {v: 0 for v in range(g.node_count)}
    total = 0
    all_blocks = blocks(g).blocks
    for comp in connected_components(g):
        comp_set = set(comp)
        comp_blocks = [blk for blk in all_blocks if blk[0] <= comp_set]
        # process blocks in an order that chains along cut nodes
        pending = list(comp_blocks)
        placed: set[int] = set()
        while pending:
            pick = next((b for b in pending if placed & b[0]), pending[0])
            pending.remove(pick)
            bnodes, bedges = pick
            value, local = _solve_block(g, bnodes, bedges, order)
            total += value
            anchor = next((v for v in sorted(bnodes) if v in placed), None)
            if anchor is not None and local[anchor] != assign[anchor]:
                local = {v: 1 - c for v, c in local.items()}
            for v, c in local.items():
                if v not in placed:
                    assign[v] = c
            placed |= bnodes
    cut = cut_from_side(g, [v for v, c in assign.items() if c == 1])
    assert cut_weight(g, cut) == total, "witness does not match value"
    return MaxCutResult(total, cut)


def _solve_block(g: Graph, bnodes: frozenset[int], bedges: tuple[int, ...],
                 order) -> tuple[int, dict[int, int]]:
    if len(bedges) == 1:
        u, v, w = g.edges[bedges[0]]
        if w > 0:
            return w, {u: 0, v: 1}
        return 0, {u: 0, v: 0}
    sub, to_sub = compact_graph(sorted(bnodes), [g.edges[i] for i in bedges])
    back = {i: v for v, i in to_sub.items()}
    state = EliminationState(sub)
    for sn in state.tree.nodes:
        if sn.kind == "R" and spqr_mod._classify_r_skeleton(sn) == "NonPlanar":
            witness = spqr_mod._relabel_skeleton(sn, back, bedges)
            raise K33MinorError("graph has a K33 minor", witness)
    value, local = state.run(order)
    return value, {back[v]: c for v, c in local.items()}
