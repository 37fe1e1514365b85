"""The SPR-tree builder by recursive Tutte splits, with canonical ids.

A frozen copy kept as a differential oracle.  A component is split at
the first split pair in lexicographic order, found among the cut nodes
of G-v and the pairs joined by parallel edges, until every piece is a
bond, a cycle or 3-connected; adjacent S-S and P-P pieces are then
merged.  Node ids are ordered by (smallest original ref, kind, nodes,
edge pairs) and pair ids by (sorted node pair, sorted pair of node ids),
so `cutpoly.spqr` must build `repr`-identical trees by any method.
"""

from __future__ import annotations

import functools
from collections import Counter

from cutpoly import planar_embed
from cutpoly.graphs import (CertificationError, compact_graph, disjoint_sets,
                            masked_cut_nodes)
from cutpoly.spqr import SkelEdge, SkeletonNode, SprTree


def tree(node_count: int, edges) -> SprTree:
    """SPR-tree of a 2-connected multigraph on nodes 0..node_count-1 with
    >= 3 edges, given as (u, v, weight) triples; edge i is original i."""
    tagged = [(u, v, ("orig", i, w)) for i, (u, v, w) in enumerate(edges)]
    comps = _decompose(list(range(node_count)), tagged, [0])
    return _build_tree(len(tagged), _merge_same_kind(comps))


def _skeleton_order(edge) -> tuple[bool, int]:
    return edge[2][0] != "orig", edge[2][1]


class _Sweep:
    """cuts(v) = (cut nodes of G-v, G-v connected), v None for G; and
    whether the component embeds."""

    def __init__(self, nodes, edges):
        self.nodes, self.edges = nodes, edges
        self.index = {x: i for i, x in enumerate(nodes)}
        self.adj = [[] for _ in nodes]
        for i, (a, b) in enumerate({(self.index[u], self.index[v])
                                    for u, v, _t in edges}):
            self.adj[a].append((b, i))
            self.adj[b].append((a, i))
        self._cuts = {}

    def __call__(self, v):
        if v not in self._cuts:
            found, connected = masked_cut_nodes(self.adj, self.index.get(v))
            self._cuts[v] = {self.nodes[c] for c in found}, connected
        return self._cuts[v]

    @functools.cached_property
    def embeds(self) -> bool:
        sg, _ = compact_graph(self.nodes, [(u, v, 0)
                                           for u, v, _t in self.edges])
        return planar_embed(sg) is not None

    def has_k5_at_degree_4(self) -> bool:
        nbrs = [{y for y, _i in a} for a in self.adj]
        return any(len(ns) == 4 and all(nbrs[x] >= ns - {x} for x in ns)
                   for ns in nbrs)


def _classify(nodes, edges, cuts):
    if len(nodes) == 2:
        return "P"
    if len({(min(u, v), max(u, v)) for u, v, _t in edges}) < len(edges):
        return None
    n, m = len(nodes), len(edges)
    if m == n:
        return "S"
    if n > 3 and ((n == 5 and m == 10)
                  or (m == 3 * n - 6 and not cuts.has_k5_at_degree_4()
                      and cuts.embeds)
                  or all(cuts(v) == (set(), True) for v in nodes)):
        return "R"
    return None


def _split_classes(edges, v, w):
    first_edge = {}
    pairs = []
    for i, (a, b, _t) in enumerate(edges):
        for x in (a, b):
            if x not in (v, w):
                pairs.append((first_edge.setdefault(x, i), i))
    return disjoint_sets(len(edges), pairs)


def _find_split(nodes, edges, cuts):
    for v in sorted(nodes):
        partners = Counter(b if a == v else a for a, b, _t in edges
                           if v in (a, b))
        found = cuts(v)[0] | {w for w, c in partners.items() if c >= 2}
        for w in sorted(w for w in found if w > v):
            classes = _split_classes(edges, v, w)
            singles = [c for c in classes if len(c) == 1]
            bigs = [c for c in classes if len(c) >= 2]
            if len(bigs) >= 2:
                side_a = bigs[0]
            elif len(singles) >= 2:
                side_a = [i for c in singles for i in c]
            else:
                continue
            taken = set(side_a)
            rest = [i for i in range(len(edges)) if i not in taken]
            if len(rest) >= 2:
                return v, w, side_a, rest
    return None


def _decompose(nodes, edges, next_pid):
    cuts = _Sweep(nodes, edges)
    kind = _classify(nodes, edges, cuts)
    if kind is not None:
        return [(kind, nodes, edges)]
    found = _find_split(nodes, edges, cuts)
    if found is None:
        raise CertificationError("non-final component must have a split pair")
    v, w, side_a, side_b = found
    pid = next_pid[0]
    next_pid[0] += 1
    out = []
    for side in (side_a, side_b):
        sedges = [edges[i] for i in side] + [(v, w, ("virt", pid))]
        snodes = sorted({x for a, b, _t in sedges for x in (a, b)})
        out.extend(_decompose(snodes, sedges, next_pid))
    return out


def _merge_same_kind(comps):
    while True:
        owner = {}
        for ci, (_k, _n, es) in enumerate(comps):
            for _u, _v, t in es:
                if t[0] == "virt":
                    owner.setdefault(t[1], []).append(ci)
        todo = next(((pid, a, b) for pid, (a, b) in sorted(owner.items())
                     if comps[a][0] == comps[b][0] in ("S", "P")), None)
        if todo is None:
            return comps
        pid, a, b = todo
        (ka, na, ea), (_kb, nb, eb) = comps[a], comps[b]
        merged = [e for e in ea + eb if e[2] != ("virt", pid)]
        comps = [c for i, c in enumerate(comps) if i not in (a, b)]
        comps.append((ka, sorted(set(na) | set(nb)), merged))


def _build_tree(edge_count, comps) -> SprTree:
    def sort_key(comp):
        kind, nodes, edges = comp
        origs = sorted(t[1] for _u, _v, t in edges if t[0] == "orig")
        return (origs[0] if origs else edge_count, kind, tuple(nodes),
                sorted((min(u, v), max(u, v)) for u, v, _t in edges))

    comps = sorted(comps, key=sort_key)
    owner, ends = {}, {}
    for i, (_kind, _nodes, edges) in enumerate(comps):
        for u, v, t in edges:
            if t[0] == "virt":
                owner.setdefault(t[1], []).append(i)
                ends[t[1]] = (min(u, v), max(u, v))
    canon = {pid: k for k, pid in enumerate(sorted(
        owner, key=lambda pid: (ends[pid], sorted(owner[pid]))))}
    skel_nodes = []
    for i, (kind, nodes, edges) in enumerate(comps):
        skel_edges = []
        for u, v, t in sorted(((u, v, t if t[0] == "orig"
                                else ("virt", canon[t[1]]))
                               for u, v, t in edges), key=_skeleton_order):
            if t[0] == "orig":
                skel_edges.append(SkelEdge(u, v, "orig", t[1], t[2]))
            else:
                skel_edges.append(SkelEdge(u, v, "virt", t[1], 0))
        skel_nodes.append(SkeletonNode(i, kind, tuple(nodes),
                                       tuple(skel_edges)))
    tree_edges = [(*sorted(owner[pid]), canon[pid])
                  for pid in sorted(owner, key=canon.__getitem__)]
    return SprTree(tuple(skel_nodes), tuple(tree_edges))
