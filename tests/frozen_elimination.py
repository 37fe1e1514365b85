"""Leaf elimination on the augmented tree, as it stood before weights were
kept per virtual node pair.

A frozen copy kept as a differential oracle: the block is first copied by
`augment_with_parallel_originals`, so every virtual edge has a parallel
original (weight-0 edges are inserted where it has none), each leaf's
gamma is written to that original, and P leaves dissolve by rewriting
their neighbour's virtual edge into the original.  Skeletons are solved
by the live solver's size rule: `maxcut_bruteforce` once per forced
pattern up to MAX_ENUMERATED_NODES nodes, the dual T-join above.
`cutpoly.maxcut.EliminationState` must take the very same steps, with
the same cuts on each leaf skeleton, and reach the same witness cut.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from cutpoly import (CertificationError, GraphError, maxcut_bruteforce,
                     planar_embed)
from cutpoly.graphs import compact_graph
from cutpoly.maxcut import (MAX_ENUMERATED_NODES, NonPlanarError,
                            _embedded_maxcuts)
from cutpoly.spqr import SkelEdge, augment_with_parallel_originals


@dataclass(frozen=True)
class FrozenStep:
    """One leaf elimination, with the node sides of its two cuts."""
    leaf: int
    virtual_edge: tuple[int, int]
    beta_plus: int
    beta_minus: int
    gamma: int
    nodes: frozenset[int]
    side_in: frozenset[int]
    side_out: frozenset[int]


class FrozenElimination:
    """Working state of one decomposed block on its augmented tree."""

    def __init__(self, block):
        if block.tree is None:
            raise GraphError("elimination needs a block with >= 3 edges")
        self.r_skeletons = block.r_skeletons
        aug, tree = augment_with_parallel_originals(block.graph, block.tree)
        self.weight = {i: w for i, (_u, _v, w) in enumerate(aug.edges)}
        self.kind = {sn.id: sn.kind for sn in tree.nodes}
        self.skel_edges = {sn.id: list(sn.edges) for sn in tree.nodes}
        self.adj = {sn.id: {} for sn in tree.nodes}
        for a, b, pid in tree.tree_edges:
            self.adj[a][b] = pid
            self.adj[b][a] = pid
        self.base = 0
        self.steps = []
        self._dissolve_p_leaves()

    def eligible_leaves(self) -> list[int]:
        return sorted(v for v in self.adj
                      if len(self.adj[v]) == 1 and self.kind[v] != "P")

    def done(self) -> bool:
        return len(self.adj) == 1

    def _dissolve_p_leaves(self) -> None:
        while len(self.adj) > 1:
            p = next((v for v in sorted(self.adj)
                      if self.kind[v] == "P" and len(self.adj[v]) == 1), None)
            if p is None:
                return
            (nbr, pid), = self.adj[p].items()
            origs = [e for e in self.skel_edges[p] if e.kind == "orig"]
            if len(origs) != 1:
                raise CertificationError("P leaf must hold exactly one original")
            self.skel_edges[nbr] = [
                SkelEdge(e.u, e.v, "orig", origs[0].ref, 0)
                if e.kind == "virt" and e.ref == pid else e
                for e in self.skel_edges[nbr]]
            del self.adj[p], self.skel_edges[p], self.kind[p]
            del self.adj[nbr][p]

    def _parallel_original(self, leaf: int, pid: int) -> int:
        nbr = next(b for b, q in self.adj[leaf].items() if q == pid)
        origs = [e for e in self.skel_edges[nbr] if e.kind == "orig"]
        if self.kind[nbr] != "P" or len(origs) != 1:
            raise CertificationError("no parallel original")
        return origs[0].ref

    def _skeleton_cuts(self, sid, forced_virtuals):
        edges = []
        for e in self.skel_edges[sid]:
            ref = e.ref if e.kind == "orig" else \
                self._parallel_original(sid, e.ref)
            edges.append((e.u, e.v, self.weight[ref]))
        nodes = [x for e in self.skel_edges[sid] for x in (e.u, e.v)]
        sg, to_sub = compact_graph(nodes, edges)
        back = {i: v for v, i in to_sub.items()}
        forceds = [None if fv is None else
                   (sg.edge_index(to_sub[fv[0]], to_sub[fv[1]]), fv[2])
                   for fv in forced_virtuals]
        if sg.node_count <= MAX_ENUMERATED_NODES:
            results = [maxcut_bruteforce(sg, forced) for forced in forceds]
        else:
            results = _embedded_maxcuts(self._embedding(sid, sg), forceds)
        return [(res.value, frozenset(back[v] for v in res.cut.side_nodes()))
                for res in results]

    def _embedding(self, sid, sg):
        """An R skeleton's classification embedding, moved onto sg (its
        faces name node pairs); an S cycle embedded afresh."""
        if sid not in self.r_skeletons:
            return planar_embed(sg)
        _cls, emb, _sg = self.r_skeletons[sid]
        if emb is None:
            raise NonPlanarError("skeleton is not planar")
        return replace(emb, graph=sg)

    def eliminate(self, leaf: int) -> FrozenStep:
        if leaf not in self.adj or len(self.adj[leaf]) != 1 \
                or self.kind[leaf] == "P":
            raise GraphError(f"node {leaf} is not an eliminable leaf")
        virtuals = [e for e in self.skel_edges[leaf] if e.kind == "virt"]
        if len(virtuals) != 1:
            raise CertificationError("leaf must contain exactly one virtual edge")
        a, b = virtuals[0].endpoints()
        ab_edge = self._parallel_original(leaf, virtuals[0].ref)
        skel_nodes = frozenset(x for e in self.skel_edges[leaf]
                               for x in (e.u, e.v))
        (beta_plus, side_in), (beta_minus, side_out) = self._skeleton_cuts(
            leaf, [(a, b, True), (a, b, False)])
        gamma = beta_plus - beta_minus
        self.weight[ab_edge] = gamma
        self.base += beta_minus
        (nbr, pid), = self.adj[leaf].items()
        del self.adj[leaf], self.skel_edges[leaf], self.kind[leaf]
        del self.adj[nbr][leaf]
        self.skel_edges[nbr] = [e for e in self.skel_edges[nbr]
                                if not (e.kind == "virt" and e.ref == pid)]
        step = FrozenStep(leaf, (a, b), beta_plus, beta_minus, gamma,
                          skel_nodes, side_in, side_out)
        self.steps.append(step)
        self._dissolve_p_leaves()
        return step

    def finish(self) -> tuple[int, dict[int, int]]:
        (sid,) = self.adj
        ((value, side),) = self._skeleton_cuts(sid, [None])
        assign = {v: 0 for e in self.skel_edges[sid] for v in (e.u, e.v)}
        for v in side:
            assign[v] = 1
        for step in reversed(self.steps):
            a, b = step.virtual_edge
            want_cut = assign[a] != assign[b]
            local = {v: 0 for v in step.nodes}
            for v in step.side_in if want_cut else step.side_out:
                local[v] = 1
            if local[a] != assign[a]:
                local = {v: 1 - c for v, c in local.items()}
            if local[b] != assign[b]:
                raise CertificationError("leaf witness disagrees at the virtual edge")
            for v, c in local.items():
                if v not in (a, b):
                    assign[v] = c
        return self.base + value, assign
