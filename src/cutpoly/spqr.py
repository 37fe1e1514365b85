"""3-connectivity decomposition (SPR-tree), one linear pass per block.

Skeletons are S (cycles), P (two nodes with >= 3 parallel edges) and R
(simple 3-connected graphs), linked in a tree by paired virtual edges.
`_triconnected_components` finds them in one pass over the block read as
a multigraph, after Hopcroft & Tarjan, "Dividing a graph into
triconnected components" (SIAM J. Comput. 1973), with the corrections of
Gutwenger & Mutzel, "A linear time implementation of SPQR-trees" (GD
2000).  The decomposition is unique, and `_build_tree` numbers it
canonically, so the tree does not depend on how it was found.
`decompose_blocks` builds it once per block of a graph, with the class,
embedding and graph of each R skeleton, for the minor tests, the MaxCut
solver and the facet code to share.

Every tree is certified as it is built, by checks that raise
`CertificationError` and so also run under `python -O`: the skeletons'
original edges recompose the input, each pair id is held by exactly two
skeletons on one node pair and the pairs link the skeletons into a tree,
each skeleton has the shape of its kind, and no two S or two P skeletons
are adjacent.  An R skeleton is 3-connected by its shape alone when it is
one of the two piece types of K33-minor-free graphs: K5-shaped (5 nodes,
10 edges, so complete), or triangulation-shaped (m = 3n - 6) with a
planar embedding, so maximal planar and 3-connected (Whitney); that
embedding is the skeleton's only one, found by edge contraction (see
`planar`), which also refutes every non-planar skeleton of this shape.
Any other R skeleton is certified by one sweep of each G-v.  A block of
either shape is one R skeleton as it stands, and skips the pass.
`augment_with_parallel_originals`, the first step of completion, copies
only the skeletons it changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .graphs import (CertificationError, Graph, GraphError,
                     NotTwoConnectedError, blocks, compact_graph,
                     disjoint_sets, is_connected, is_k_connected)
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


# the class of an R skeleton ("K5", "PlanarTriangulation", "Planar" or
# "NonPlanar"), the embedding of its skeleton graph that shows it planar
# (None for K5 and non-planar skeletons), and that graph, built once
RClass = tuple[str, "planar_mod.Embedding | None", Graph]


def spr_tree(g: Graph) -> SprTree:
    """Canonical SPR-tree of a 2-connected graph with >= 3 edges."""
    if not is_k_connected(g, 2):
        raise NotTwoConnectedError("spr_tree needs a 2-connected graph")
    if len(g.edges) < 3:
        raise GraphError("spr_tree needs at least 3 edges")
    return _spr_tree(g)[0]


def _spr_tree(g: Graph) -> tuple[SprTree, dict[int, RClass]]:
    """`spr_tree` of a graph already known to be 2-connected with >= 3
    edges, with the class of each R skeleton by node id.  A graph that is
    3-connected by its shape is one R skeleton, whose graph is g itself."""
    by_shape = _shape_class(g)
    if by_shape is None:
        return _tree(g.node_count, g.edges)
    sn = SkeletonNode(0, "R", tuple(range(g.node_count)), tuple(
        SkelEdge(u, v, "orig", i, w) for i, (u, v, w) in enumerate(g.edges)))
    return SprTree((sn,), ()), {0: by_shape}


def _tree(node_count: int, edges) -> tuple[SprTree, dict[int, RClass]]:
    """SPR-tree of a 2-connected multigraph on nodes 0..node_count-1 with
    >= 3 edges, given as (u, v, weight) triples (edge i is original i),
    with the class of each R skeleton."""
    return _build_tree(edges, _triconnected_components(node_count, edges))


def _shape_class(sg: Graph) -> RClass | None:
    """The class of a simple 2-connected graph that is 3-connected by its
    shape alone: K5-shaped (5 nodes, 10 edges: complete, so 4-connected),
    or triangulation-shaped (m = 3n - 6, n >= 4) with an embedding, so
    maximal planar and 3-connected by Whitney's theorem; None otherwise.
    The embedding is `embed_block`'s contraction method, which refutes a
    non-planar graph of this shape (a K5 around a degree-4 node, say) by
    itself."""
    n, m = sg.node_count, len(sg.edges)
    if n == 5 and m == 10:
        return "K5", None, sg
    if n < 4 or m != 3 * n - 6:
        return None
    emb = planar_mod.embed_block(sg)
    return None if emb is None else ("PlanarTriangulation", emb, sg)


def _r_class(sn: SkeletonNode) -> RClass:
    """The class and graph of an R skeleton, certified 3-connected by its
    shape (`_shape_class`) or else by one sweep of each G-v."""
    sg, _ = _skeleton_graph(sn)
    by_shape = _shape_class(sg)
    if by_shape is not None:
        return by_shape
    if not is_k_connected(sg, 3):
        raise CertificationError("R skeleton is not 3-connected")
    # with m >= 3n - 6 and no shape certificate it holds a K5 or fails
    # to embed, or has too many edges to be planar
    emb = (planar_mod.embed_block(sg)
           if len(sg.edges) < 3 * sg.node_count - 6 else None)
    return ("NonPlanar", None, sg) if emb is None else ("Planar", emb, sg)


_EOS = (-1, -1, -1)  # end-of-segment mark on the triple stack


def _triconnected_components(node_count: int, edges) -> list[tuple]:
    """The triconnected components of a 2-connected multigraph on nodes
    0..node_count-1 with >= 3 edges, given as (u, v, weight) triples, as
    (kind, sorted nodes, [(u, v, tag)]), tag ("orig", i, weight) for edge
    i or ("virt", id) for one of the two virtual edges with that id.

    Gutwenger & Mutzel's steps, each DFS on an explicit frame stack:
    split off parallel edges as bonds; DFS 1 for lowpt1, lowpt2 and nd,
    orienting tree arcs down and fronds up; sort each adjacency list by
    phi; DFS 2 for the path numbering (from here on a node is its number,
    so v < w means v was numbered first) and the highpt lists; the path
    search, which cuts off a split component at every type-2 and type-1
    separation pair, keeping the pairs in the triple stack TSTACK and the
    edges in ESTACK; and last, merge adjacent bonds and adjacent
    polygons.  A split component is a polygon exactly when it has as
    many edges as nodes (the pass leaves only triangles, bonds and
    3-connected graphs before the merge).
    """
    m = len(edges)
    if node_count == 2:
        return [("P", [0, 1], [(u, v, ("orig", i, w))
                               for i, (u, v, w) in enumerate(edges)])]
    # edge e < m is original e, later ones are virtual; src/tgt are
    # oriented by DFS 1
    src = [u for u, _v, _w in edges]
    tgt = [v for _u, v, _w in edges]
    found: list[tuple[bool, list[int]]] = []  # (is a bond, edge ids)
    first: dict[tuple[int, int], list[int]] = {}
    for i, (u, v, _w) in enumerate(edges):
        first.setdefault((u, v) if u < v else (v, u), []).append(i)
    inc: list[list[int]] = [[] for _ in range(node_count)]
    for (u, v), ids in first.items():
        e = ids[0]
        if len(ids) > 1:
            e = len(src)
            src.append(u)
            tgt.append(v)
            found.append((True, [*ids, e]))
        inc[u].append(e)
        inc[v].append(e)

    # DFS 1
    etype = [0] * len(src)  # 1 tree arc, 2 frond, 0 not in the graph
    number = [0] * node_count
    father = [-1] * node_count
    low1 = [0] * node_count
    low2 = [0] * node_count
    nd = [1] * node_count
    tree_arc = [-1] * node_count
    number[0] = low1[0] = low2[0] = count = 1
    frames = [(0, iter(inc[0]))]
    while frames:
        v, it = frames[-1]
        for e in it:
            if etype[e]:
                continue
            w = tgt[e] if src[e] == v else src[e]
            src[e], tgt[e] = v, w
            if not number[w]:
                etype[e] = 1
                tree_arc[w], father[w] = e, v
                count += 1
                number[w] = low1[w] = low2[w] = count
                frames.append((w, iter(inc[w])))
                break
            etype[e] = 2
            nw = number[w]
            if nw < low1[v]:
                low1[v], low2[v] = nw, low1[v]
            elif low1[v] < nw < low2[v]:
                low2[v] = nw
        else:
            frames.pop()
            p = father[v]
            if p < 0:
                continue
            if low1[v] < low1[p]:
                low1[p], low2[p] = low1[v], min(low1[p], low2[v])
            elif low1[v] == low1[p]:
                low2[p] = min(low2[p], low2[v])
            else:
                low2[p] = min(low2[p], low1[v])
            nd[p] += nd[v]

    # adjacency lists of the arcs out of each node, sorted by phi
    def phi(e: int) -> int:
        w = tgt[e]
        if etype[e] == 2:
            return 3 * number[w] + 1
        return 3 * low1[w] + (0 if low2[w] < number[src[e]] else 2)

    adj: list[list[int]] = [[] for _ in range(node_count)]
    in_adj = [0] * len(src)  # position of an arc in its source's list
    for e in sorted((e for e in range(len(src)) if etype[e]), key=phi):
        a = adj[src[e]]
        in_adj[e] = len(a)
        a.append(e)

    # DFS 2: path numbering, path starts and highpt lists
    newnum = [0] * node_count
    starts = [False] * len(src)
    highpt: list[list[int]] = [[] for _ in range(node_count)]
    count = node_count
    newnum[0] = count - nd[0] + 1
    new_path = True
    frames = [(0, iter(adj[0]))]
    while frames:
        v, it = frames[-1]
        for e in it:
            if new_path:
                new_path, starts[e] = False, True
            w = tgt[e]
            if etype[e] == 1:
                newnum[w] = count - nd[w] + 1
                frames.append((w, iter(adj[w])))
                break
            highpt[w].append(e)
            new_path = True
        else:
            frames.pop()
            count -= 1

    # from here on every node is its number 1..n (0 is no node)
    size = node_count + 1
    node_at = [0] * size
    old2new = [0] * size
    for v in range(node_count):
        node_at[newnum[v]] = v
        old2new[number[v]] = newnum[v]
    L1, L2, ND, FA, DEG, TA = ([0] * size for _ in range(6))
    ADJ: list[list[int]] = [[] for _ in range(size)]
    HP: list[list[int]] = [[] for _ in range(size)]
    for v in range(node_count):
        x = newnum[v]
        L1[x], L2[x] = old2new[low1[v]], old2new[low2[v]]
        ND[x], DEG[x], TA[x] = nd[v], len(inc[v]), tree_arc[v]
        FA[x] = newnum[father[v]] if father[v] >= 0 else 0
        ADJ[x], HP[x] = adj[v], highpt[v]
    src = [newnum[x] for x in src]
    tgt = [newnum[x] for x in tgt]

    in_high = [False] * len(src)  # whether a frond is in a highpt list
    for fronds in HP:
        for e in fronds:
            in_high[e] = True
    hp_head = [0] * size  # first live entry of HP[x]
    hp_front: list[list[int]] = [[] for _ in range(size)]  # pushed later
    adj_head = [0] * size  # first live entry of ADJ[x]

    def high(x: int) -> int:
        """Source of the first live frond into x, else 0."""
        f = hp_front[x]
        while f and not in_high[f[-1]]:
            f.pop()
        if f:
            return src[f[-1]]
        h, k = HP[x], hp_head[x]
        while k < len(h) and not in_high[h[k]]:
            k += 1
        hp_head[x] = k
        return src[h[k]] if k < len(h) else 0

    def first_target(x: int) -> int:
        a, k = ADJ[x], adj_head[x]
        while a[k] < 0:
            k += 1
        adj_head[x] = k
        return tgt[a[k]]

    def new_edge(a: int, b: int) -> int:
        src.append(a)
        tgt.append(b)
        etype.append(0)
        in_high.append(False)
        in_adj.append(-1)
        return len(src) - 1

    # the path search; a deleted arc is -1 in its adjacency list
    TS = [_EOS]
    ES: list[int] = []
    pos = [0] * size  # next arc of each node on the frame stack
    outv = [0] * size  # arcs out of a node not searched yet
    arc = [0] * size  # the tree arc each node on the frame stack descends
    outv[1] = len(ADJ[1])
    frames = [1]
    while frames:
        v = frames[-1]
        a = ADJ[v]
        k = pos[v]
        while k < len(a):
            e = a[k]
            if e < 0:
                k += 1
                continue
            w = tgt[e]
            lw = L1[w] if etype[e] == 1 else w
            if starts[e]:
                if TS[-1][1] > lw:
                    y = 0
                    while TS[-1][1] > lw:
                        h, _a, b = TS.pop()
                        y = max(y, h)
                    TS.append((y, lw, b))
                elif etype[e] == 1:
                    TS.append((w + ND[w] - 1, lw, v))
                else:
                    TS.append((v, w, v))
            if etype[e] == 1:
                if starts[e]:
                    TS.append(_EOS)
                break
            ES.append(e)
            k += 1
        pos[v] = k
        if k < len(a):
            arc[v] = e
            outv[w] = len(ADJ[w])
            frames.append(w)
            continue
        frames.pop()
        if not frames:
            break
        w, v = v, frames[-1]
        k, e = pos[v], arc[v]
        ES.append(TA[w])

        # type-2 separation pairs
        while v != 1:
            _h, a_, b_ = TS[-1]
            deg2 = DEG[w] == 2 and first_target(w) > w
            if a_ != v and not deg2:
                break
            if a_ == v and FA[b_] == v:
                TS.pop()
                continue
            e_ab = -1
            if deg2:
                e1, e2 = ES.pop(), ES.pop()
                ADJ[w][in_adj[e2]] = -1
                x = tgt[e2]
                ev = new_edge(v, x)
                DEG[x] -= 1
                DEG[v] -= 1
                found.append((False, [e1, e2, ev]))
                if ES and src[ES[-1]] == x and tgt[ES[-1]] == v:
                    e_ab = ES.pop()
                    ADJ[x][in_adj[e_ab]] = -1
                    in_high[e_ab] = False
            else:
                h = TS.pop()[0]
                comp = []
                while True:
                    xy = ES[-1]
                    x, y = src[xy], tgt[xy]
                    if not (a_ <= x <= h and a_ <= y <= h):
                        break
                    ES.pop()
                    if (x == a_ and y == b_) or (y == a_ and x == b_):
                        e_ab = xy
                        ADJ[x][in_adj[xy]] = -1
                        in_high[xy] = False
                        continue
                    if xy != ADJ[v][k]:
                        ADJ[x][in_adj[xy]] = -1
                        in_high[xy] = False
                    comp.append(xy)
                    DEG[x] -= 1
                    DEG[y] -= 1
                ev = new_edge(v, b_)
                comp.append(ev)
                found.append((False, comp))
                x = b_
            if e_ab >= 0:
                ev2 = new_edge(v, x)
                found.append((True, [e_ab, ev, ev2]))
                ev = ev2
                DEG[x] -= 1
                DEG[v] -= 1
            ES.append(ev)
            ADJ[v][k], in_adj[ev] = ev, k
            DEG[x] += 1
            DEG[v] += 1
            FA[x], TA[x], etype[ev] = v, ev, 1
            w = x

        # type-1 separation pair
        lw = L1[w]
        if L2[w] >= v and lw < v and (FA[v] != 1 or outv[v] >= 2):
            comp = []
            end = w + ND[w]
            while ES:
                xy = ES[-1]
                x, y = src[xy], tgt[xy]
                if not (w <= x < end or w <= y < end):
                    break
                ES.pop()
                comp.append(xy)
                in_high[xy] = False
                DEG[x] -= 1
                DEG[y] -= 1
            ev = new_edge(v, lw)
            comp.append(ev)
            found.append((False, comp))
            if ES and src[ES[-1]] == v and tgt[ES[-1]] == lw:
                e_ab = ES.pop()
                ADJ[v][in_adj[e_ab]] = -1
                in_high[e_ab] = False
                ev2 = new_edge(v, lw)
                found.append((True, [e_ab, ev, ev2]))
                ev = ev2
                DEG[v] -= 1
                DEG[lw] -= 1
            if lw != FA[v]:
                ES.append(ev)
                ADJ[v][k], in_adj[ev], etype[ev] = ev, k, 2
                if high(lw) < v:
                    hp_front[lw].append(ev)
                    in_high[ev] = True
                DEG[v] += 1
                DEG[lw] += 1
            else:
                ADJ[v][k] = -1
                ev2 = new_edge(lw, v)
                eh = TA[v]
                found.append((True, [ev, ev2, eh]))
                TA[v], etype[ev2] = ev2, 1
                in_adj[ev2] = in_adj[eh]
                ADJ[lw][in_adj[eh]] = ev2

        if starts[e]:
            while TS.pop()[1] != -1:
                pass
        hv = high(v)
        while TS[-1][1] != -1 and TS[-1][2] != v and hv > TS[-1][0]:
            TS.pop()
        outv[v] -= 1
        pos[v] = k + 1
    if ES:
        found.append((False, ES))

    # merge adjacent bonds and adjacent polygons, then label
    def ends(e: int) -> tuple[int, int]:
        if e < m:
            return edges[e][0], edges[e][1]
        a, b = node_at[src[e]], node_at[tgt[e]]
        return (a, b) if a < b else (b, a)

    comps = []
    holder: dict[int, list[int]] = {}
    for ci, (bond, es) in enumerate(found):
        nodes = {x for e in es for x in ends(e)}
        comps.append(("P" if bond else "S" if len(nodes) == len(es) else "R",
                      nodes, es))
        for e in es:
            if e >= m:
                holder.setdefault(e, []).append(ci)
    merged = {e for e, cs in holder.items() if len(cs) == 2
              and comps[cs[0]][0] == comps[cs[1]][0] != "R"}
    out = []
    for group in disjoint_sets(len(comps), [holder[e] for e in merged]):
        tagged = []
        for ci in group:
            for e in comps[ci][2]:
                if e < m:
                    u, v, w = edges[e]
                    tagged.append((u, v, ("orig", e, w)))
                elif e not in merged:
                    tagged.append((*ends(e), ("virt", e)))
        out.append((comps[group[0]][0],
                    sorted(set().union(*(comps[ci][1] for ci in group))),
                    tagged))
    return out


def _build_tree(edges, comps: list[tuple]
                ) -> tuple[SprTree, dict[int, RClass]]:
    """The SPR-tree of the components of a multigraph with the given
    edges, certified, and the class of each R skeleton.

    Ids are canonical, so the tree does not depend on the order in which
    the components were found: node ids by (smallest original ref, kind,
    nodes, edge pairs), pair ids by (sorted node pair, sorted pair of the
    two node ids).  So a skeleton's virtual edges, in pair-id order, are
    in node-pair order, which its embedding reads.  Original refs are
    unique, so only all-virtual components need their edge pairs."""
    def sort_key(comp):
        kind, nodes, tagged = comp
        first = min((t[1] for _u, _v, t in tagged if t[0] == "orig"),
                    default=len(edges))
        key = (first, kind, nodes)
        return key if first < len(edges) else (*key, sorted(
            (min(u, v), max(u, v)) for u, v, _t in tagged))

    comps = sorted(comps, key=sort_key)
    owner: dict[int, list[int]] = {}
    ends: dict[int, set[tuple[int, int]]] = {}
    for i, (_kind, _nodes, tagged) in enumerate(comps):
        for u, v, t in tagged:
            if t[0] == "virt":
                owner.setdefault(t[1], []).append(i)
                ends.setdefault(t[1], set()).add((min(u, v), max(u, v)))
    if any(len(cs) != 2 or len(ends[pid]) != 1 for pid, cs in owner.items()):
        raise CertificationError(
            "virtual pair id must occur in exactly two skeletons")
    canon = {pid: k for k, pid in enumerate(sorted(
        owner, key=lambda pid: (min(ends[pid]), sorted(owner[pid]))))}
    skel_nodes = []
    held: list = [None] * len(edges)  # original i as held; () if twice
    for i, (kind, nodes, tagged) in enumerate(comps):
        # originals by index, then virtuals by pair id
        origs = sorted((t[1], u, v, t[2]) for u, v, t in tagged
                       if t[0] == "orig")
        virts = sorted((canon[t[1]], u, v) for u, v, t in tagged
                       if t[0] == "virt")
        for ref, u, v, w in origs:
            held[ref] = (u, v, w) if held[ref] is None else ()
        sn = SkeletonNode(i, kind, tuple(nodes), tuple(
            [SkelEdge(u, v, "orig", ref, w) for ref, u, v, w in origs]
            + [SkelEdge(u, v, "virt", pid) for pid, u, v in virts]))
        _check_shape(sn)
        skel_nodes.append(sn)
    tree_edges = [(*sorted(owner[pid]), canon[pid])
                  for pid in sorted(owner, key=canon.__getitem__)]
    if len(tree_edges) != len(skel_nodes) - 1 or len(disjoint_sets(
            len(skel_nodes), [te[:2] for te in tree_edges])) != 1:
        raise CertificationError("skeletons must form a tree")
    if any(skel_nodes[a].kind == skel_nodes[b].kind in ("S", "P")
           for a, b, _pid in tree_edges):
        raise CertificationError("same-kind adjacency")
    if held != list(edges):
        raise CertificationError("skeletons must recompose the input")
    return (SprTree(tuple(skel_nodes), tuple(tree_edges)),
            {sn.id: _r_class(sn)
             for sn in skel_nodes if sn.kind == "R"})


def _check_shape(sn: SkeletonNode) -> None:
    """P: two nodes, >= 3 edges; S: a cycle on >= 3 nodes; R: simple on
    >= 4 nodes (its 3-connectivity is certified by `_r_class`)."""
    n, m = len(sn.nodes), len(sn.edges)
    simple = len({e.endpoints() for e in sn.edges}) == m
    degree = Counter(x for e in sn.edges for x in (e.u, e.v))
    if sorted(degree) != list(sn.nodes):
        ok = False
    elif sn.kind == "P":
        ok = n == 2 and m >= 3
    elif sn.kind == "S":
        ok = (n == m >= 3 and simple and set(degree.values()) == {2}
              and len(set(_cycle_order(sn))) == n)
    else:
        ok = sn.kind == "R" and n >= 4 and simple
    if not ok:
        raise CertificationError(f"{sn.kind} skeleton of the wrong shape")


def recompose(t: SprTree, node_count: int) -> Graph:
    """Rebuild the graph by 2-summing all skeletons: virtual pairs cancel,
    original edges (with weights) reappear at their original indices."""
    edge_map: dict[int, tuple[int, int, int]] = {}
    for sn in t.nodes:
        for e in sn.edges:
            if e.kind == "orig":
                if e.ref in edge_map:
                    raise CertificationError("original edge in two skeletons")
                edge_map[e.ref] = (e.u, e.v, e.weight)
    if sorted(edge_map) != list(range(len(edge_map))):
        raise CertificationError("missing edge index")
    return Graph(node_count, [edge_map[i] for i in range(len(edge_map))])


def augment_with_parallel_originals(g: Graph, t: SprTree) -> tuple[Graph, SprTree]:
    """Insert weight-0 original edges so every virtual edge has a parallel
    original: all-virtual P skeletons gain one, in node order, and then
    every tree edge between two non-P nodes, in sorted order, is
    subdivided by a fresh P node carrying one.  The first step of
    `maximal_completion`.  Untouched skeletons are shared with t, whose
    node ids must be 0..N-1 in order, as built; new P nodes take N, N+1,
    ... and new pair ids follow t's largest."""
    nodes = list(t.nodes)
    if [sn.id for sn in nodes] != list(range(len(nodes))):
        raise GraphError("SPR-tree node ids must be 0..N-1 in order")
    new_edges = list(g.edges)
    for i, sn in enumerate(t.nodes):
        if sn.kind == "P" and not sn.originals():
            a, b = sorted(sn.nodes)
            new_edges.append((a, b, 0))
            nodes[i] = replace(sn, edges=sn.edges + (
                SkelEdge(a, b, "orig", len(new_edges) - 1),))
    tree_edges = []
    next_pid = max((pid for _a, _b, pid in t.tree_edges), default=-1) + 1
    for a, b, pid in sorted(t.tree_edges):
        if "P" in (nodes[a].kind, nodes[b].kind):
            tree_edges.append((a, b, pid))
            continue
        u, v = next(e for e in nodes[a].virtuals() if e.ref == pid).endpoints()
        new_edges.append((u, v, 0))
        p = len(nodes)
        p_edges = [SkelEdge(u, v, "orig", len(new_edges) - 1)]
        for end in (a, b):  # each end takes its own new pair id to p
            nodes[end] = replace(nodes[end], edges=tuple(
                SkelEdge(e.u, e.v, "virt", next_pid)
                if e.kind == "virt" and e.ref == pid else e
                for e in nodes[end].edges))
            p_edges.append(SkelEdge(u, v, "virt", next_pid))
            tree_edges.append((end, p, next_pid))
            next_pid += 1
        nodes.append(SkeletonNode(p, "P", (u, v), tuple(p_edges)))
    return (Graph(g.node_count, new_edges),
            SprTree(tuple(nodes), tuple(sorted(tree_edges))))


# -- one decomposition per block ----------------------------------------------

def _skeleton_graph(sn: SkeletonNode) -> tuple[Graph, dict[int, int]]:
    """Skeleton as a simple Graph (virtual edges treated as real, weight 0)."""
    return compact_graph(sn.nodes, [(e.u, e.v, e.weight) for e in sn.edges])


@dataclass(frozen=True)
class Block:
    """One block of a graph, decomposed once for every consumer.

    `graph` is the block on nodes 0..k-1 (g itself when g is one block):
    its node i is node `nodes[i]` of g and its edge j is edge `edges[j]`.
    `tree` is its SPR-tree (None for a single-edge block) and
    `r_skeletons` maps each R skeleton id to its class, the embedding that
    shows it planar (None for K5 and non-planar skeletons) and its graph,
    `_skeleton_graph` of it (`graph` for a block that is one R skeleton),
    built once by classification for every later consumer.
    """
    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    graph: Graph
    tree: SprTree | None
    r_skeletons: dict[int, RClass]

    def relabel(self, sn: SkeletonNode) -> SkeletonNode:
        """Skeleton `sn` of the tree in the graph's node labels and edge
        indices."""
        edges = tuple(SkelEdge(self.nodes[e.u], self.nodes[e.v], e.kind,
                               self.edges[e.ref] if e.kind == "orig" else e.ref,
                               e.weight)
                      for e in sn.edges)
        return SkeletonNode(sn.id, sn.kind,
                            tuple(self.nodes[v] for v in sn.nodes), edges)

    @property
    def witness(self) -> SkeletonNode | None:
        """The first non-planar, non-K5 R skeleton (it carries a K33
        minor), relabelled; None when the block is K33-minor-free."""
        sid = next((sid for sid, (cls, _emb, _sg) in self.r_skeletons.items()
                    if cls == "NonPlanar"), None)
        return None if sid is None else self.relabel(self.tree.node(sid))


def decompose_blocks(g: Graph) -> tuple[Block, ...]:
    """Every block of g, in the order of `blocks(g)`, with its SPR-tree
    and the class and embedding of each R skeleton."""
    out = []
    for bnodes, bedges in blocks(g).blocks:
        nodes = tuple(sorted(bnodes))
        if len(nodes) == g.node_count and len(bedges) == len(g.edges):
            sub = g  # g is one block, so it is its own compaction
        else:
            sub, _ = compact_graph(nodes, [g.edges[i] for i in bedges])
        # a block of >= 3 edges is 2-connected, so it skips spr_tree's check
        tree, r_skeletons = _spr_tree(sub) if len(bedges) >= 3 else (None, {})
        out.append(Block(nodes, bedges, sub, tree, r_skeletons))
    return tuple(out)


def _first_witness(decomposition: tuple[Block, ...]) -> SkeletonNode | None:
    """The witness of the first block that has one."""
    return next((w for b in decomposition if (w := b.witness) is not None),
                None)


# -- K33-minor-free classification ------------------------------------------

@dataclass(frozen=True)
class K33Decomposition:
    is_k33_minor_free: bool
    components: tuple[tuple[SkeletonNode, str], ...]  # skeleton, class label
    is_maximal: bool
    witness: SkeletonNode | None  # a non-planar, non-K5 R-component, if any


def k33_decompose(g: Graph) -> K33Decomposition:
    """Classify every S/R component; decide K33-minor-freeness and whether
    the graph is a strict 2-sum of planar triangulations and K5s.

    Reported skeletons use g's node labels and edge indices.
    """
    decomposition = decompose_blocks(g)
    comps = tuple((b.relabel(sn),
                   "Cycle" if sn.kind == "S" else b.r_skeletons[sn.id][0])
                  for b in decomposition if b.tree
                  for sn in b.tree.nodes if sn.kind != "P")
    witness = _first_witness(decomposition)
    if not is_connected(g) or len(decomposition) > 1:
        maximal = False  # a cut node always admits a safe new edge
    elif not decomposition or decomposition[0].tree is None:
        maximal = True  # K1 / K2: nothing can be added
    else:
        maximal = witness is None and not _completion(decomposition[0])
    return K33Decomposition(witness is None, comps, maximal, witness)


class K33MinorError(GraphError):
    """Raised when an operation requires a K33-minor-free input."""

    def __init__(self, message: str, witness: SkeletonNode | None = None):
        super().__init__(message)
        self.witness = witness


def maximal_completion(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Extend a connected K33-minor-free graph to a maximal one.

    Blocks are first joined at cut nodes, one edge at a time, until the
    graph is 2-connected: at the smallest cut node c, the edge w1w2
    between c's smallest neighbours in its first two blocks.  The rest is
    added in one pass over the SPR-tree of that block (`_completion`), in
    this order: the pair of every P skeleton without an original edge and
    the pair of every tree edge between two non-P skeletons
    (`augment_with_parallel_originals`); then, skeleton by skeleton in
    tree order, a fan from the minimum node of every S cycle with >= 4
    nodes, and a fan from the first node of every face longer than 3 of
    every planar R skeleton.  Returns the completed graph and the list of
    added node pairs, in insertion order.

    The joined graph is decomposed once, and the K33 test reads that
    decomposition, because joining keeps K33-minor-freeness either way.
    With B1 and B2 the blocks at c that hold the edges cw1 and cw2, the
    new block B1 + B2 + w1w2 is the 2-sum of B1 with the triangle
    c w1 w2 along cw1, then with B2 along cw2, each sum keeping its
    edge.  A 2-sum along a real edge joins the two SPR-trees through a P
    skeleton, and turns at most one original edge of an R skeleton
    virtual; the triangle adds only an S skeleton.  So the R skeletons of
    the joined graph are those of g, as graphs, and a graph has a K33
    minor exactly when one of its R skeletons is non-planar and not K5.
    """
    if not is_connected(g):
        raise GraphError("maximal_completion needs a connected graph")
    h = g
    added: list[tuple[int, int]] = []
    while (bd := blocks(h)).cut_nodes:
        c = min(bd.cut_nodes)
        w1, w2 = [min(u + v - c for u, v, _w in (h.edges[i] for i in bedges)
                      if c in (u, v))
                  for bnodes, bedges in bd.blocks if c in bnodes][:2]
        h = h.with_edge(w1, w2, 0)
        added.append((min(w1, w2), max(w1, w2)))
    decomposition = decompose_blocks(h)
    witness = _first_witness(decomposition)
    if witness is not None:
        raise K33MinorError("input has a K33 minor", witness)
    if decomposition and decomposition[0].tree:
        (block,) = decomposition
        more = [(block.nodes[u], block.nodes[v])
                for u, v in _completion(block)]
        h = Graph(h.node_count, list(h.edges) + [(u, v, 0) for u, v in more])
        added += more
    return h, added


def _completion(block: Block) -> list[tuple[int, int]]:
    """The additions of `maximal_completion` for a K33-minor-free block
    with a tree, in the block's labels and in that order; the first are
    the pairs `augment_with_parallel_originals` inserts.  They are
    distinct and new: skeletons share only virtual pairs, and faces of
    3-connected planar graphs have no chords.

    The completed block is the strict 2-sum along real edges of the S
    fans' triangles, the fanned planar R skeletons (checked: 3n - 6 pairs
    each) and the K5s, so every skeleton pair must be one of its edges.
    """
    g = block.graph
    aug, _tree = augment_with_parallel_originals(g, block.tree)
    added = [e[:2] for e in aug.edges[len(g.edges):]]
    for sn in block.tree.nodes:
        cls, emb, _sg = block.r_skeletons.get(sn.id, (sn.kind, None, None))
        if sn.kind == "S" and len(sn.nodes) >= 4:
            v0, *rest = _cycle_order(sn)  # starts at the minimum node
            added += [(v0, x) for x in rest[1:-1]]
        elif cls == "Planar":
            chords = []
            for face in emb.faces:
                walk = [sn.nodes[x] for x, _y in face]
                chords += [(min(walk[0], x), max(walk[0], x))
                           for x in walk[2:-1]]
            if len(sn.edges) + len(chords) != 3 * len(sn.nodes) - 6:
                raise CertificationError("planar fan is not a triangulation")
            added += chords
    new = set(added)
    if len(new) != len(added) or any(g.has_edge(*e) for e in added):
        raise CertificationError("completion tried to re-add an edge")
    if not all(g.has_edge(*e.endpoints()) or e.endpoints() in new
               for sn in block.tree.nodes for e in sn.edges):
        raise CertificationError("skeleton pair missing from the completion")
    return added


def _cycle_order(sn: SkeletonNode) -> list[int]:
    """Vertices of an S skeleton in cycle order, from its first node."""
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

