"""3-connectivity decomposition (SPR-tree) via recursive Tutte splits.

Skeletons are S (cycles), P (two nodes with >= 3 parallel edges) and R
(simple 3-connected graphs), linked in a tree by paired virtual edges.
Construction splits at split pairs until every piece is a bond, a cycle
or 3-connected, then merges adjacent same-kind S/P nodes; the result is
the canonical decomposition regardless of split order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import (Graph, GraphError, NotTwoConnectedError, blocks,
                     compact_graph, is_connected, is_k_connected)
from . import planar as planar_mod


@dataclass(frozen=True)
class SkelEdge:
    """Skeleton edge: original (ref = edge index of G) or virtual (ref =
    pair id shared by exactly two skeletons)."""
    u: int
    v: int
    kind: str  # "orig" | "virt"
    ref: int
    weight: int = 0

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class SkeletonNode:
    id: int
    kind: str  # "S" | "P" | "R"
    nodes: tuple[int, ...]
    edges: tuple[SkelEdge, ...]

    def virtuals(self) -> tuple[SkelEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "virt")

    def originals(self) -> tuple[SkelEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "orig")


@dataclass(frozen=True)
class SprTree:
    nodes: tuple[SkeletonNode, ...]
    tree_edges: tuple[tuple[int, int, int], ...]  # (node_id, node_id, pair_id)

    def node(self, i: int) -> SkeletonNode:
        return self.nodes[i]

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        out = []
        for a, b, pid in self.tree_edges:
            if a == i:
                out.append((b, pid))
            elif b == i:
                out.append((a, pid))
        return sorted(out)


# decomposition works on lists of (u, v, tag) with tag ("orig", idx, weight)
# or ("virt", pair_id)

def _classify(nodes: list[int], edges: list[tuple[int, int, tuple]]) -> str | None:
    """Final-component test: 'P', 'S', 'R' or None (must split further)."""
    if len(nodes) == 2:
        return "P"
    pairs = set()
    for u, v, _t in edges:
        key = (min(u, v), max(u, v))
        if key in pairs:
            return None  # parallel edges on >= 3 nodes: split at that pair
        pairs.add(key)
    deg: dict[int, int] = {x: 0 for x in nodes}
    for u, v, _t in edges:
        deg[u] += 1
        deg[v] += 1
    g, _ = compact_graph(nodes, [(u, v, 0) for u, v, _t in edges])
    if not is_connected(g):
        return None
    if all(d == 2 for d in deg.values()) and len(edges) == len(nodes):
        return "S"
    if is_k_connected(g, 3):
        return "R"
    return None


def _split_classes(nodes: list[int], edges: list[tuple[int, int, tuple]],
                   v: int, w: int) -> list[list[int]]:
    """Split classes of pair {v, w}: edge-index groups connected through
    internal nodes outside {v, w}.  Each parallel v-w edge is a singleton."""
    parent = list(range(len(edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    at_node: dict[int, int] = {}
    for i, (a, b, _t) in enumerate(edges):
        for x in (a, b):
            if x in (v, w):
                continue
            if x in at_node:
                ra, rb = find(at_node[x]), find(i)
                if ra != rb:
                    parent[ra] = rb
            else:
                at_node[x] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(edges)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _split_candidates(nodes: list[int], edges: list[tuple[int, int, tuple]],
                      v: int) -> list[int]:
    """Partners w > v that can form a split pair with v: the cut nodes of
    G-v (then G-{v, w} is disconnected, giving two classes of >= 2 edges)
    and the nodes joined to v by parallel edges (two singleton classes)."""
    simple = {(min(a, b), max(a, b)) for a, b, _t in edges if v not in (a, b)}
    sub, to_sub = compact_graph([x for x in nodes if x != v],
                                [(a, b, 0) for a, b in simple])
    back = {i: x for x, i in to_sub.items()}
    found = {back[c] for c in blocks(sub).cut_nodes}
    partners = Counter(b if a == v else a for a, b, _t in edges if v in (a, b))
    found.update(w for w, c in partners.items() if c >= 2)
    return sorted(w for w in found if w > v)


def _find_split(nodes: list[int], edges: list[tuple[int, int, tuple]]):
    """A split pair with a bipartition of its classes, both sides >= 2 edges.

    Pairs are tried in lexicographic order; only the candidates of
    `_split_candidates` can succeed, so the first split found is the same
    as in a scan over all pairs.
    """
    for v in sorted(nodes):
        for w in _split_candidates(nodes, edges, v):
            classes = _split_classes(nodes, edges, v, w)
            singles = [c for c in classes if len(c) == 1]
            bigs = [c for c in classes if len(c) >= 2]
            if len(bigs) >= 2:
                side_a = bigs[0]
                rest = [i for i in range(len(edges)) if i not in set(side_a)]
                return v, w, side_a, rest
            if len(singles) >= 2:
                side_a = [i for c in singles for i in c]
                rest = [i for i in range(len(edges)) if i not in set(side_a)]
                if len(rest) >= 2:
                    return v, w, side_a, rest
    return None


def _decompose(nodes: list[int], edges: list[tuple[int, int, tuple]],
               next_pid: list[int]) -> list[tuple[str, list[int], list[tuple]]]:
    kind = _classify(nodes, edges)
    if kind is not None:
        return [(kind, nodes, edges)]
    found = _find_split(nodes, edges)
    assert found is not None, "non-final component must have a split pair"
    v, w, side_a, side_b = found
    pid = next_pid[0]
    next_pid[0] += 1
    out = []
    for side in (side_a, side_b):
        sedges = [edges[i] for i in side] + [(v, w, ("virt", pid))]
        snodes = sorted({x for a, b, _t in sedges for x in (a, b)})
        out.extend(_decompose(snodes, sedges, next_pid))
    return out


def _merge_same_kind(comps: list[tuple[str, list[int], list[tuple]]]):
    """Merge adjacent S-S and P-P components along their shared pair id."""
    while True:
        owner: dict[int, list[int]] = {}
        for ci, (_k, _n, es) in enumerate(comps):
            for _u, _v, t in es:
                if t[0] == "virt":
                    owner.setdefault(t[1], []).append(ci)
        todo = None
        for pid, cs in sorted(owner.items()):
            assert len(cs) == 2, "virtual pair id must occur in exactly two skeletons"
            a, b = cs
            if a != b and comps[a][0] == comps[b][0] and comps[a][0] in ("S", "P"):
                todo = (pid, a, b)
                break
        if todo is None:
            return comps
        pid, a, b = todo
        ka, na, ea = comps[a]
        _kb, nb, eb = comps[b]
        merged_edges = [e for e in ea if not (e[2][0] == "virt" and e[2][1] == pid)]
        merged_edges += [e for e in eb if not (e[2][0] == "virt" and e[2][1] == pid)]
        merged_nodes = sorted(set(na) | set(nb))
        comps = [c for i, c in enumerate(comps) if i not in (a, b)]
        comps.append((ka, merged_nodes, merged_edges))


def spr_tree(g: Graph) -> SprTree:
    """Canonical SPR-tree of a 2-connected graph with >= 3 edges."""
    if not is_k_connected(g, 2):
        raise NotTwoConnectedError("spr_tree needs a 2-connected graph")
    if len(g.edges) < 3:
        raise GraphError("spr_tree needs at least 3 edges")
    edges = [(u, v, ("orig", i)) for i, (u, v, _w) in enumerate(g.edges)]
    comps = _decompose(sorted(range(g.node_count)), edges, [0])
    comps = _merge_same_kind(comps)
    return _build_tree(g, comps)


def _build_tree(g: Graph,
                comps: list[tuple[str, list[int], list[tuple]]]) -> SprTree:
    # deterministic node ids: sort by (smallest original ref, kind, nodes)
    def sort_key(comp):
        kind, nodes, edges = comp
        origs = sorted(t[1] for _u, _v, t in edges if t[0] == "orig")
        return (origs[0] if origs else len(g.edges), kind, tuple(nodes))

    comps = sorted(comps, key=sort_key)
    skel_nodes = []
    owner: dict[int, list[int]] = {}
    for i, (kind, nodes, edges) in enumerate(comps):
        skel_edges = []
        for u, v, t in sorted(edges, key=lambda e: (e[2][0] != "orig", e[2][1])):
            if t[0] == "orig":
                skel_edges.append(SkelEdge(u, v, "orig", t[1], g.edges[t[1]][2]))
            else:
                skel_edges.append(SkelEdge(u, v, "virt", t[1], 0))
                owner.setdefault(t[1], []).append(i)
        # re-derive and check the kind
        check = _classify(list(nodes), [(e.u, e.v, None) for e in skel_edges])
        assert check == kind, f"skeleton kind drift: {check} != {kind}"
        skel_nodes.append(SkeletonNode(i, kind, tuple(nodes), tuple(skel_edges)))
    tree_edges = []
    for pid, cs in sorted(owner.items()):
        assert len(cs) == 2
        a, b = sorted(cs)
        assert not (skel_nodes[a].kind == skel_nodes[b].kind
                    and skel_nodes[a].kind in ("S", "P")), "same-kind adjacency"
        tree_edges.append((a, b, pid))
    return SprTree(tuple(skel_nodes), tuple(tree_edges))


def recompose(t: SprTree, node_count: int) -> Graph:
    """Rebuild the graph by 2-summing all skeletons: virtual pairs cancel,
    original edges (with weights) reappear at their original indices."""
    edge_map: dict[int, tuple[int, int, int]] = {}
    for sn in t.nodes:
        for e in sn.edges:
            if e.kind == "orig":
                assert e.ref not in edge_map, "original edge in two skeletons"
                edge_map[e.ref] = (e.u, e.v, e.weight)
    assert sorted(edge_map) == list(range(len(edge_map))), "missing edge index"
    return Graph(node_count, [edge_map[i] for i in range(len(edge_map))])


def augment_with_parallel_originals(g: Graph, t: SprTree) -> tuple[Graph, SprTree]:
    """Insert weight-0 original edges so every virtual edge has a parallel
    original: all-virtual P skeletons gain one, and every tree edge between
    two non-P nodes is subdivided by a fresh P node carrying one."""
    new_edges = list(g.edges)
    skels: dict[int, dict] = {
        sn.id: {"kind": sn.kind, "nodes": list(sn.nodes), "edges": list(sn.edges)}
        for sn in t.nodes}
    tree_edges = list(t.tree_edges)
    next_id = max(skels) + 1 if skels else 0
    next_pid = max((pid for _a, _b, pid in tree_edges), default=-1) + 1

    for sid in sorted(skels):
        sk = skels[sid]
        if sk["kind"] == "P" and not any(e.kind == "orig" for e in sk["edges"]):
            a, b = sk["nodes"][0], sk["nodes"][1]
            if a > b:
                a, b = b, a
            idx = len(new_edges)
            new_edges.append((a, b, 0))
            sk["edges"].append(SkelEdge(a, b, "orig", idx, 0))

    for a, b, pid in list(tree_edges):
        if skels[a]["kind"] == "P" or skels[b]["kind"] == "P":
            continue
        ea = next(e for e in skels[a]["edges"] if e.kind == "virt" and e.ref == pid)
        u, v = ea.endpoints()
        idx = len(new_edges)
        new_edges.append((u, v, 0))
        pid_a, pid_b = next_pid, next_pid + 1
        next_pid += 2
        skels[a]["edges"] = [
            SkelEdge(e.u, e.v, "virt", pid_a, 0) if e.kind == "virt" and e.ref == pid else e
            for e in skels[a]["edges"]]
        skels[b]["edges"] = [
            SkelEdge(e.u, e.v, "virt", pid_b, 0) if e.kind == "virt" and e.ref == pid else e
            for e in skels[b]["edges"]]
        skels[next_id] = {"kind": "P", "nodes": [u, v], "edges": [
            SkelEdge(u, v, "orig", idx, 0),
            SkelEdge(u, v, "virt", pid_a, 0),
            SkelEdge(u, v, "virt", pid_b, 0)]}
        tree_edges.remove((a, b, pid))
        tree_edges.append((min(a, next_id), max(a, next_id), pid_a))
        tree_edges.append((min(b, next_id), max(b, next_id), pid_b))
        next_id += 1

    new_g = Graph(g.node_count, new_edges)
    nodes = tuple(SkeletonNode(i, skels[i]["kind"], tuple(skels[i]["nodes"]),
                               tuple(skels[i]["edges"]))
                  for i in sorted(skels))
    remap = {sn.id: k for k, sn in enumerate(nodes)}
    nodes = tuple(SkeletonNode(remap[sn.id], sn.kind, sn.nodes, sn.edges)
                  for sn in nodes)
    tes = tuple(sorted((min(remap[a], remap[b]), max(remap[a], remap[b]), pid)
                       for a, b, pid in tree_edges))
    return new_g, SprTree(nodes, tes)


# -- K33-minor-free classification ------------------------------------------

@dataclass(frozen=True)
class K33Decomposition:
    is_k33_minor_free: bool
    components: tuple[tuple[SkeletonNode, str], ...]  # skeleton, class label
    is_maximal: bool
    witness: SkeletonNode | None  # a non-planar, non-K5 R-component, if any


def _skeleton_graph(sn: SkeletonNode) -> tuple[Graph, dict[int, int]]:
    """Skeleton as a simple Graph (virtual edges treated as real, weight 0)."""
    return compact_graph(sn.nodes, [(e.u, e.v, e.weight) for e in sn.edges])


def _classify_r_skeleton(sn: SkeletonNode) -> str:
    sg, _ = _skeleton_graph(sn)
    n, m = sg.node_count, len(sg.edges)
    if n == 5 and m == 10:
        return "K5"
    emb = planar_mod.planar_embed(sg)
    if emb is None:
        return "NonPlanar"
    if m == 3 * n - 6:
        return "PlanarTriangulation"
    return "Planar"


def _relabel_skeleton(sn: SkeletonNode, back: dict[int, int],
                      edge_refs) -> SkeletonNode:
    """Translate a block-local skeleton to the caller's node labels and
    original edge indices."""
    edges = tuple(SkelEdge(back[e.u], back[e.v], e.kind,
                           edge_refs[e.ref] if e.kind == "orig" else e.ref,
                           e.weight)
                  for e in sn.edges)
    return SkeletonNode(sn.id, sn.kind,
                        tuple(sorted(back[v] for v in sn.nodes)), edges)


def k33_decompose(g: Graph) -> K33Decomposition:
    """Classify every S/R component; decide K33-minor-freeness and whether
    the graph is a strict 2-sum of planar triangulations and K5s.

    Reported skeletons use g's node labels and edge indices.
    """
    comps: list[tuple[SkeletonNode, str]] = []
    witness = None
    strict = True
    single_edge_blocks = 0
    block_count = 0
    for bnodes, bedges in blocks(g).blocks:
        block_count += 1
        if len(bedges) == 1:
            single_edge_blocks += 1
            continue
        sub_edges = [g.edges[i] for i in bedges]
        sub, to_sub = compact_graph(sorted(bnodes), sub_edges)
        back = {i: v for v, i in to_sub.items()}
        t = spr_tree(sub)
        kinds = {sn.id: sn.kind for sn in t.nodes}
        for sn in t.nodes:
            glob = _relabel_skeleton(sn, back, bedges)
            if sn.kind == "S":
                comps.append((glob, "Cycle"))
            elif sn.kind == "R":
                cls = _classify_r_skeleton(sn)
                if cls == "NonPlanar":
                    if witness is None:
                        witness = glob
                    comps.append((glob, "NonPlanar"))
                else:
                    comps.append((glob, cls))
            else:  # P: used only for strictness
                if not any(e.kind == "orig" for e in sn.edges):
                    strict = False
        for a, b, _pid in t.tree_edges:
            if kinds[a] != "P" and kinds[b] != "P":
                strict = False

    free = witness is None
    connected = is_connected(g)
    if not connected:
        maximal = False
    elif len(g.edges) <= 1:
        maximal = True  # K1 / K2: nothing can be added
    elif block_count > 1 or single_edge_blocks:
        maximal = False  # a cut node always admits a safe new edge
    else:
        maximal = (free and strict
                   and all(cls in ("PlanarTriangulation", "K5")
                           or (cls == "Cycle" and len(sn.nodes) == 3)
                           for sn, cls in comps))
    return K33Decomposition(free, tuple(comps), maximal, witness)


class K33MinorError(GraphError):
    """Raised when an operation requires a K33-minor-free input."""

    def __init__(self, message: str, witness: SkeletonNode | None = None):
        super().__init__(message)
        self.witness = witness


def maximal_completion(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Extend a connected K33-minor-free graph to a maximal one.

    Strategy, repeated until stable: join blocks at cut nodes, add the
    missing parallel original of every non-strict 2-sum, fan-triangulate
    cycle skeletons, and face-triangulate planar R skeletons.  Returns the
    completed graph and the list of added node pairs, in insertion order.
    """
    if not is_connected(g):
        raise GraphError("maximal_completion needs a connected graph")
    dec = k33_decompose(g)
    if not dec.is_k33_minor_free:
        raise K33MinorError("input has a K33 minor", dec.witness)
    h = g
    added: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        nonlocal h
        assert not h.has_edge(u, v), "completion tried to re-add an edge"
        h = h.with_edge(u, v, 0)
        added.append((min(u, v), max(u, v)))

    while True:
        bd = blocks(h)
        if bd.cut_nodes:
            c = min(bd.cut_nodes)
            touching = [b for b in bd.blocks if c in b[0]]
            w1 = min(x for x, _i in _neighbors_in_block(h, touching[0], c))
            w2 = min(x for x, _i in _neighbors_in_block(h, touching[1], c))
            add(w1, w2)
            continue
        if len(h.edges) <= 1 or (len(h.edges) == 3 and h.node_count == 3):
            break
        t = spr_tree(h)
        kinds = {sn.id: sn.kind for sn in t.nodes}
        action = False
        # strictify first: every virtual pair gets a parallel original
        for sn in sorted(t.nodes, key=lambda s: s.id):
            if sn.kind == "P" and not any(e.kind == "orig" for e in sn.edges):
                a, b = sn.nodes[0], sn.nodes[1]
                add(min(a, b), max(a, b))
                action = True
                break
        if action:
            continue
        for a, b, pid in sorted(t.tree_edges):
            if kinds[a] != "P" and kinds[b] != "P":
                e = next(e for e in t.nodes[a].edges
                         if e.kind == "virt" and e.ref == pid)
                add(*e.endpoints())
                action = True
                break
        if action:
            continue
        for sn in sorted(t.nodes, key=lambda s: s.id):
            if sn.kind == "S" and len(sn.nodes) >= 4:
                cyc = _cycle_order(sn)
                v0 = min(cyc)
                i0 = cyc.index(v0)
                cyc = cyc[i0:] + cyc[:i0]
                add(min(v0, cyc[2]), max(v0, cyc[2]))
                action = True
                break
            if sn.kind == "R":
                cls = _classify_r_skeleton(sn)
                if cls == "Planar":
                    sg, to_sub = _skeleton_graph(sn)
                    back = {i: v for v, i in to_sub.items()}
                    emb = planar_mod.planar_embed(sg)
                    assert emb is not None
                    for face in planar_mod.faces_of(emb):
                        if len(face) > 3:
                            walk = _face_nodes(sg, face)
                            add(*sorted((back[walk[0]], back[walk[2]])))
                            action = True
                            break
                    assert action, "non-triangulation must have a big face"
                    break
                assert cls in ("PlanarTriangulation", "K5"), "K33 minor appeared"
        if not action:
            break
    return h, added


def _neighbors_in_block(g: Graph, block, c: int):
    bnodes, bedges = block
    for i in bedges:
        u, v, _w = g.edges[i]
        if u == c:
            yield v, i
        elif v == c:
            yield u, i


def _cycle_order(sn: SkeletonNode) -> list[int]:
    """Vertices of an S skeleton in cycle order."""
    adj: dict[int, list[int]] = {v: [] for v in sn.nodes}
    for e in sn.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    start = sn.nodes[0]
    order = [start]
    prev = None
    while len(order) < len(sn.nodes):
        nxts = [x for x in adj[order[-1]] if x != prev]
        prev = order[-1]
        order.append(nxts[0])
    return order


def _face_nodes(g: Graph, face: list[int]) -> list[int]:
    """Vertex sequence of a face given as an edge-index walk."""
    e0, e1 = face[0], face[1]
    u0, v0, _ = g.edges[e0]
    if u0 in g.edges[e1][:2]:
        u0, v0 = v0, u0
    walk = [u0, v0]
    for i in face[1:-1]:
        a, b, _ = g.edges[i]
        walk.append(b if a == walk[-1] else a)
    return walk
