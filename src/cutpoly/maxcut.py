"""Exact MaxCut solvers.

Three layers: a brute-force oracle (cut enumeration), a planar solver
(maximum cut = total weight minus a minimum T-join in the dual), and the
main solver for K33-minor-free graphs, `maxcut(g)`, which eliminates
leaves of the SPR tree as built, lowest id first (Barahona, ORL 1983).
Each leaf contributes the best cut value with its virtual edge forced in
(beta+) and forced out (beta-); the difference becomes the weight of the
node pair it shares with the rest of the tree, which every virtual edge
on that pair reads, no weight-0 edge is inserted, and the leaf is
removed.  A skeleton with at most MAX_ENUMERATED_NODES nodes (every K5,
and every small S cycle or planar R skeleton) is solved by the
oracle's enumeration, which yields beta+ and beta- from one pass over
its cuts; a larger one, planar by then, by the dual T-join on its
embedding, once per forced pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import (CertificationError, Cut, Graph, GraphError,
                     NotTwoConnectedError, SizeLimitError, _crossings,
                     cut_from_side, cut_weight, is_k_connected)
from . import planar as planar_mod
from . import spqr as spqr_mod
from . import tjoin as tjoin_mod
from .spqr import K33MinorError


# skeletons up to this size are solved by enumeration (see _skeleton_cuts)
MAX_ENUMERATED_NODES = 10


@dataclass(frozen=True)
class MaxCutResult:
    value: int
    cut: Cut


@dataclass(frozen=True)
class EliminationStep:
    """One SPR-tree leaf elimination.

    beta_plus / beta_minus are the best cut values of the leaf skeleton
    with its virtual edge, on node pair `virtual_edge`, forced into / out
    of the cut; cut_in / cut_out are the matching cuts, as indicators
    over the leaf skeleton's edges, kept for witness reconstruction.
    """
    leaf: int
    virtual_edge: tuple[int, int]
    beta_plus: int
    beta_minus: int
    gamma: int
    cut_in: int
    cut_out: int


def maxcut_bruteforce(g: Graph,
                      forced: tuple[int, bool] | None = None) -> MaxCutResult:
    """Exact optimum by enumerating all cuts (guard: 24 nodes).

    `forced` = (edge index, in_cut) keeps only the cuts that put that edge
    in (or out of) the cut.  Ties break toward the smallest side mask
    (node v is bit v; node 0 is never in the side), the order of
    `enumerate_cuts`.
    """
    _check_forced(g, forced)
    (res,) = _enumerated_maxcuts(g, [forced])
    return res


def _check_forced(g: Graph, forced: tuple[int, bool] | None) -> None:
    if forced is not None and not 0 <= forced[0] < len(g.edges):
        raise GraphError(f"forced edge index {forced[0]} is not an edge of g")
    if forced is not None and forced[1] not in (0, 1):
        raise GraphError(f"forced in_cut {forced[1]!r} is not 0 or 1")


def _enumerated_maxcuts(g: Graph, forceds: list[tuple[int, bool] | None],
                        ) -> list[MaxCutResult]:
    """`maxcut_bruteforce` of g once per entry of `forceds`, from one
    enumeration of its cuts; each witness is certified."""
    return [_certified(g, value, cut_from_side(
                g, [v for v in range(g.node_count) if side >> v & 1]), forced)
            for forced, (value, side) in zip(forceds, _best_sides(g, forceds))]


def _best_sides(g: Graph, forceds: list[tuple[int, bool] | None],
                ) -> list[tuple[int, int]]:
    """(value, side mask) of the best cut once per entry of `forceds`.

    Every side is evaluated once, in chunks, as one product of crossing
    indicators with the weights, in int64, or in Python integers when the
    weights could overflow it; each forced pattern then takes its own
    argmax over the sides that keep its edge where it is pinned, the
    smallest side mask on ties.
    """
    if g.node_count > 24:
        raise SizeLimitError("maxcut_bruteforce guard: node_count <= 24")
    dtype = np.int64 if g.abs_weight() < 1 << 63 else object
    ws = np.array([w for _u, _v, w in g.edges], dtype=dtype)
    best: list = [(None, 0)] * len(forceds)
    for sides, cross in _crossings(g):
        values = cross.astype(dtype, copy=False) @ ws
        for k, forced in enumerate(forceds):
            if forced is None:
                top = int(np.argmax(values))
            else:
                rows = np.flatnonzero(cross[:, forced[0]] == forced[1])
                if not len(rows):
                    continue
                top = int(rows[np.argmax(values[rows])])
            if best[k][0] is None or values[top] > best[k][0]:
                best[k] = (int(values[top]), int(sides[top]))
    return best


def _certified(g: Graph, value: int, cut: Cut,
               forced: tuple[int, bool] | None) -> MaxCutResult:
    """The result, once its witness is re-costed to the value and keeps
    the forced edge where it was pinned."""
    if forced is not None and (cut.indicator >> forced[0] & 1) != forced[1]:
        raise CertificationError("witness does not respect the forced edge")
    if cut_weight(g, cut) != value:
        raise CertificationError("witness weight does not match the value")
    return MaxCutResult(value, cut)


class NonPlanarError(GraphError):
    """planar_maxcut got a non-planar graph."""


def planar_maxcut(g: Graph,
                  forced: tuple[int, bool] | None = None) -> MaxCutResult:
    """Exact MaxCut on a 2-connected planar graph via the dual T-join.

    value = sum of all weights - min T-join in the dual where T is the set
    of odd-degree dual nodes.  `forced` = (edge index, in_cut) pins one
    edge by a big-M weight shift (M = 1 + sum |w|), corrected afterwards.
    """
    _check_forced(g, forced)
    if not is_k_connected(g, 2):
        raise NotTwoConnectedError("planar_maxcut needs a 2-connected graph")
    emb = planar_mod.embed_block(g)
    if emb is None:
        raise NonPlanarError("planar_maxcut needs a planar graph")
    (res,) = _embedded_maxcuts(emb, [forced])
    return res


def _embedded_maxcuts(emb: planar_mod.Embedding,
                      forceds: list[tuple[int, bool] | None],
                      ) -> list[MaxCutResult]:
    """`planar_maxcut` of the embedded graph once per entry of `forceds`.

    The entries share one dual graph and its terminal set (the odd faces),
    since only the edge weights differ; each runs its own dual T-join.
    """
    g = emb.graph
    dual = planar_mod.dual_graph(emb)
    terminals = tjoin_mod._odd_nodes(dual.edges, range(len(dual.edges)))
    results = []
    for forced in forceds:
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
        dedges = [(fa, fb, weights[i]) for fa, fb, i, _w in dual.edges]
        join, join_total = tjoin_mod.min_weight_t_join(
            dual.node_count, dedges, terminals)
        value = sum(weights) - join_total - shift
        cut = _two_color(g, set(range(len(g.edges))) - set(join))
        results.append(_certified(g, value, cut, forced))
    return results


def _two_color(g: Graph, cut_edges: set[int]) -> Cut:
    """Recover a node side from a consistent crossing-edge set."""
    color = [-1] * g.node_count
    for root in range(g.node_count):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, i in g.neighbors(x):
                c = color[x] ^ (1 if i in cut_edges else 0)
                if color[y] == -1:
                    color[y] = c
                    stack.append(y)
                elif color[y] != c:
                    raise CertificationError("cut edge set is not a cut")
    return cut_from_side(g, [v for v in range(g.node_count) if color[v] == 1])


# -- SPR-tree elimination ----------------------------------------------------

class EliminationState:
    """Working state of one decomposed block during leaf elimination.

    Reads the block's SPR tree as built (`tree`) and each R skeleton's
    class, embedding and graph (`r_skeletons`, built once by
    `decompose_blocks`); neither is copied or changed.  `weight` maps a
    virtual node pair to the weight every virtual edge on it reads: its
    P skeleton's original edge weight (0 without one), then the gamma of
    the last leaf eliminated onto it.  `adj` is the shrinking tree.  Node
    labels are those of `block.graph`.  Mutated in place by eliminate();
    finish() solves the last skeleton and returns (value, crossing edge
    indices of the block).
    """

    def __init__(self, block: spqr_mod.Block):
        if block.tree is None:
            raise GraphError("elimination needs a block with >= 3 edges")
        self.tree = tree = block.tree
        self.r_skeletons = block.r_skeletons
        self.kind: dict[int, str] = {sn.id: sn.kind for sn in tree.nodes}
        self.adj: dict[int, dict[int, int]] = {sn.id: {} for sn in tree.nodes}
        self.weight: dict[tuple[int, int], int] = {
            sn.nodes: sum(e.weight for e in sn.originals())
            for sn in tree.nodes if sn.kind == "P"}
        pair = {e.ref: e.endpoints() for sn in tree.nodes for e in sn.edges
                if e.kind == "virt"}
        hub: dict[tuple[int, int], int] = {}
        for a, b, pid in tree.tree_edges:
            self.adj[a][b] = pid
            self.adj[b][a] = pid
            # a pair is keyed once: its tree edges all meet one P skeleton
            p = next((x for x in (a, b) if self.kind[x] == "P"), ~pid)
            if hub.setdefault(pair[pid], p) != p:
                raise CertificationError("two tree edges outside one P "
                                         "skeleton share a node pair")
        self.base = 0
        self.steps: list[EliminationStep] = []

    # -- tree queries ----------------------------------------------------

    def eligible_leaves(self) -> list[int]:
        """S/R leaves ready for elimination (P leaves dissolve on their own)."""
        return sorted(v for v in self.adj
                      if len(self.adj[v]) == 1 and self.kind[v] != "P")

    def done(self) -> bool:
        return len(self.adj) == 1

    # -- solving one skeleton ----------------------------------------------

    def _skeleton_graph(self, sid: int) -> Graph:
        """Skeleton `sid` as a graph (node i is `sn.nodes[i]`, edge j is
        `sn.edges[j]`): an R skeleton's stored graph or an S cycle's,
        checked against its pairs, with the pairs' weights put in."""
        sn = self.tree.node(sid)
        sg = (self.r_skeletons[sid][2] if sid in self.r_skeletons
              else spqr_mod._skeleton_graph(sn)[0])
        if [(sn.nodes[u], sn.nodes[v]) for u, v, _w in sg.edges] != [
                e.endpoints() for e in sn.edges]:
            raise CertificationError("skeleton edges left the embedding's order")
        return sg.reweighted([e.weight if e.kind == "orig"
                              else self.weight.get(e.endpoints(), 0)
                              for e in sn.edges])

    def _skeleton_cuts(self, sid: int,
                       forceds: list[tuple[int, bool] | None],
                       ) -> list[tuple[int, int]]:
        """Best cut of a skeleton graph once per entry of `forceds` (None or
        (skeleton edge index, in_cut)), as (value, indicator over the
        skeleton's edges).

        A skeleton with at most MAX_ENUMERATED_NODES nodes takes every
        entry from one enumeration of its cuts, ties to the smallest side
        mask; a larger one runs a dual T-join per entry on its embedding.
        The bound is the crossover measured on generated triangulation
        pieces (`gen --kinds triangulation --tri-size n:n`, seeds 0-15 per
        n, each piece's classification embedding reused), for the
        forced-in and forced-out cuts of one edge, certification
        included; microseconds per piece, the least of nine interleaved
        rounds, Python 3.11 on one core of a shared 2-vCPU VM:

            n             4    5    6    7    8    9   10   11   12   13   14
            enumeration  34   38   43   48   56   71  103  287  794 1121 2086
            two T-joins 136  183  281  364  427  552  692  691 1027  905 1021
            ratio       4.0  4.8  6.5  7.6  7.6  7.8  6.7  2.4  1.3  0.8  0.5

        so the bound is the largest n at which one pass is at least three
        times faster.
        """
        sg = self._skeleton_graph(sid)
        if sg.node_count <= MAX_ENUMERATED_NODES:
            results = _enumerated_maxcuts(sg, forceds)
        else:
            results = _embedded_maxcuts(self._embedding(sid, sg), forceds)
        return [(res.value, res.cut.indicator) for res in results]

    def _embedding(self, sid: int, sg: Graph) -> planar_mod.Embedding:
        """Embedding of skeleton `sid`, whose graph is `sg`.  An R skeleton
        reuses the embedding its classification built, which lists the
        same node pairs in the same order (the tree's skeleton edge
        order), so only the weights change.  An S cycle is embedded
        afresh; the solver embeds only skeletons with more than
        MAX_ENUMERATED_NODES nodes, so only S cycles that long are."""
        if sid not in self.r_skeletons:
            return planar_mod.embed_block(sg)
        _cls, emb, _sg = self.r_skeletons[sid]
        if emb is None:
            raise NonPlanarError("skeleton is not planar")
        if [e[:2] for e in emb.graph.edges] != [e[:2] for e in sg.edges]:
            raise CertificationError("skeleton edges left the embedding's order")
        return replace(emb, graph=sg)

    # -- the elimination step ------------------------------------------------

    def eliminate(self, leaf: int) -> EliminationStep:
        if leaf not in self.adj or len(self.adj[leaf]) != 1 \
                or self.kind[leaf] == "P":
            raise GraphError(f"node {leaf} is not an eliminable leaf")
        (nbr, pid), = self.adj[leaf].items()
        sn = self.tree.node(leaf)
        j = next((j for j, e in enumerate(sn.edges)
                  if e.kind == "virt" and e.ref == pid), None)
        if j is None:
            raise CertificationError(
                "leaf must hold a virtual edge for its tree edge")
        pair = sn.edges[j].endpoints()
        (beta_plus, cut_in), (beta_minus, cut_out) = self._skeleton_cuts(
            leaf, [(j, True), (j, False)])
        gamma = beta_plus - beta_minus
        self.weight[pair] = gamma
        self.base += beta_minus
        del self.adj[leaf], self.adj[nbr][leaf]
        if self.kind[nbr] == "P" and len(self.adj[nbr]) == 1:
            # the P leaf dissolves; its pair lives on in its neighbor
            (other,) = self.adj.pop(nbr)
            del self.adj[other][nbr]
        step = EliminationStep(leaf, pair, beta_plus, beta_minus, gamma,
                               cut_in, cut_out)
        self.steps.append(step)
        return step

    def finish(self) -> tuple[int, list[int]]:
        """Solve the final component and replay the steps, latest first:
        each leaf takes its cut with its pair crossed if the cuts chosen
        so far cross that pair.  Cuts that agree on their shared pair
        2-sum to a cut, so the block's cut is its original edges on
        crossed pairs."""
        if not self.done():
            raise CertificationError(
                "finish() before the tree is down to one node")
        (sid,) = self.adj
        if self.kind[sid] == "P":
            # cannot happen: a P with one tree edge dissolves, with zero it
            # would have been the whole tree of a bond (not a simple graph)
            raise CertificationError("final node cannot be a P skeleton")
        ((value, cut),) = self._skeleton_cuts(sid, [None])
        crossed: dict[tuple[int, int], int] = {}

        def record(sid: int, cut: int) -> None:
            for j, e in enumerate(self.tree.node(sid).edges):
                bit = cut >> j & 1
                if crossed.setdefault(e.endpoints(), bit) != bit:
                    raise CertificationError(
                        "leaf witness disagrees at the virtual edge")

        record(sid, cut)
        for step in reversed(self.steps):
            record(step.leaf, step.cut_in if crossed[step.virtual_edge]
                   else step.cut_out)
        return self.base + value, [e.ref for sn in self.tree.nodes
                                   for e in sn.originals()
                                   if crossed[e.endpoints()]]

    def run(self, order=None) -> tuple[int, list[int]]:
        """Eliminate until done.  `order` picks among eligible leaves
        (default: lowest id); pass an rng-like with .choice for tests."""
        while not self.done():
            leaves = self.eligible_leaves()
            if not leaves:
                raise CertificationError(
                    "tree with >1 node must have an S/R leaf")
            leaf = order.choice(leaves) if order is not None else leaves[0]
            self.eliminate(leaf)
        return self.finish()


def maxcut(g: Graph) -> MaxCutResult:
    """Exact MaxCut for K33-minor-free graphs (block split + elimination).

    Raises K33MinorError, carrying the offending R skeleton, otherwise.
    """
    return _decomposed_maxcut(g, spqr_mod.decompose_blocks(g))


def _decomposed_maxcut(g: Graph, decomposition: tuple[spqr_mod.Block, ...]
                       ) -> MaxCutResult:
    """`maxcut` of g, given `decompose_blocks(g)`: the blocks' values add
    up, and their crossing edges, which share no edge, form one cut of g,
    colored once."""
    witness = spqr_mod._first_witness(decomposition)
    if witness is not None:
        raise K33MinorError("graph has a K33 minor", witness)
    total = 0
    crossing: set[int] = set()
    for block in decomposition:
        if block.tree is None:
            w = block.graph.edges[0][2]
            value, local = (w, [0]) if w > 0 else (0, [])
        else:
            value, local = EliminationState(block).run()
        total += value
        crossing.update(block.edges[i] for i in local)
    return _certified(g, total, _two_color(g, crossing), None)
