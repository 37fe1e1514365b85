"""Planarity testing, combinatorial embeddings, faces and dual graphs.

Each 2-connected graph, or block of a graph with cut nodes, is embedded
by one of two methods, chosen by its shape alone:

* Triangulation-shaped (n >= 4, m = 3n - 6), the shape of every maximal
  planar piece: `_embed_triangulation` contracts edges down to K4 and
  expands the contractions back into a rotation system.  A planar
  triangulation has only one embedding up to mirror image (Whitney), so
  any order of contractions yields it or its mirror; the method refutes
  non-planar graphs of this shape by itself (the proofs are in its
  docstring).
* Any other shape (m < 3n - 6, or a triangle; m > 3n - 6 is not
  planar): the Demoucron-Malgrange-Pertuiset face/fragment method
  ("DMP"), made incremental: from a cycle, route fragment paths through
  admissible faces; each step splits only the routed fragment into its
  remaining pieces and re-tests only the fragments that listed the face
  it split.  Non-maximal planar skeletons and arbitrary inputs of
  `planar_embed` need it.

Both give node rotations; `_face_walks` walks their faces once and
certifies the result by Euler's formula.  Graphs known to be 2-connected
(blocks and skeletons) enter through `embed_block`, which skips the
connectivity sweep `planar_embed` runs on arbitrary input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (CertificationError, Graph, GraphError, blocks,
                     compact_graph, initial_cycle, masked_cut_nodes)


class DisconnectedError(GraphError):
    """planar_embed requires a connected input."""


@dataclass(frozen=True)
class Embedding:
    """Rotation system of a planar graph, with its faces.

    rotation[v] lists the edge indices around v in cyclic order.  The faces
    are walked once, when the embedding is built: `faces` holds each face
    boundary as a walk of darts (u, v), and `face_of_dart` maps every dart
    to its face id.  Both name nodes, not edge indices, so they stay valid
    when the rotation is re-indexed to another numbering of the same node
    pairs.
    """
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    face_of_dart: dict[tuple[int, int], int] = field(repr=False,
                                                     compare=False)

    @property
    def face_count(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class DualGraph:
    """One node per face; one edge per primal edge (parallels and loops
    allowed), each carrying its primal edge index and weight."""
    node_count: int
    edges: tuple[tuple[int, int, int, int], ...]  # (face_a, face_b, primal_index, weight)


def _embed_biconnected(g: Graph) -> list[list[int]] | None:
    """Oriented face cycles of a 2-connected planar graph, else None.

    Faces are vertex cycles; across all faces every directed edge occurs
    exactly once.  Each step routes a path of one fragment through one of
    its admissible faces: the first fragment, in (attachments, edges)
    order, with a single admissible face, else the first fragment and its
    lowest admissible face id.  A fragment without an admissible face
    means g is non-planar.
    """
    cycle = initial_cycle(g)
    faces: list[list[int]] = [list(cycle), list(reversed(cycle))]
    face_sets = [set(cycle), set(cycle)]
    h_nodes = set(cycle)
    # live fragments, keyed (attachments, edges): admissible face ids and
    # inner nodes (the fragment's nodes outside H)
    admissible: dict[tuple, set[int]] = {}
    inner: dict[tuple, set[int]] = {}

    def add_fragments(edge_ids, free: set[int], fids) -> None:
        """Register the fragments formed by the given unembedded edges and
        non-H nodes, with their admissible faces among `fids`."""
        new = [((g.edges[i][:2], (i,)), set()) for i in edge_ids
               if h_nodes.issuperset(g.edges[i][:2])]
        while free:
            comp = {free.pop()}
            stack = list(comp)
            while stack:
                for y, _i in g.neighbors(stack.pop()):
                    if y not in h_nodes and y not in comp:
                        comp.add(y)
                        stack.append(y)
            free -= comp
            att = {y for x in comp for y, _i in g.neighbors(x) if y in h_nodes}
            fedges = {i for x in comp for _y, i in g.neighbors(x)}
            new.append(((tuple(sorted(att)), tuple(sorted(fedges))), comp))
        for key, comp in new:
            inner[key] = comp
            admissible[key] = {f for f in fids
                               if face_sets[f].issuperset(key[0])}

    cycle_edges = {g.edge_index(x, y)
                   for x, y in zip(cycle, cycle[1:] + cycle[:1])}
    add_fragments([i for i in range(len(g.edges)) if i not in cycle_edges],
                  set(range(g.node_count)) - h_nodes, (0, 1))
    while admissible:
        if not all(admissible.values()):
            return None  # a fragment that fits no face
        singles = [key for key, adm in admissible.items() if len(adm) == 1]
        key = min(singles) if singles else min(admissible)
        face_id = min(admissible.pop(key))
        att, fedges = key

        # a path through the fragment between two attachment nodes
        if len(att) < 2:
            raise CertificationError(
                "fragment of a 2-connected graph has >= 2 attachments")
        a, b = att[:2]
        fset = set(fedges)
        pred = {a: -1}
        frontier = [a]
        while b not in pred:
            if not frontier:
                raise CertificationError(
                    "fragment must connect its attachments")
            nxt = []
            for x in frontier:
                for y, i in g.neighbors(x):
                    if i not in fset or y in pred:
                        continue
                    if y in h_nodes and y != b:
                        continue  # paths may only touch H at the endpoints
                    pred[y] = x
                    nxt.append(y)
            frontier = nxt
        path = [b]
        while path[-1] != a:
            path.append(pred[path[-1]])  # b .. a

        ia = faces[face_id].index(a)
        face = faces[face_id][ia:] + faces[face_id][:ia]  # from a
        ib = face.index(b)
        new_id = len(faces)
        faces[face_id] = face[:ib] + path[:-1]  # a..b, then back via path
        faces.append(face[ib:] + path[:0:-1])   # b..a, then on via path
        face_sets[face_id] = set(faces[face_id])
        face_sets.append(set(faces[new_id]))
        h_nodes.update(path)

        # only the fragments that listed the split face change
        for other, adm in admissible.items():
            if face_id in adm:
                adm.discard(face_id)
                adm.update(f for f in (face_id, new_id)
                           if face_sets[f].issuperset(other[0]))
        # the rest of the fragment falls apart into pieces that each
        # attach to the path's interior, which only the two new faces hold
        used = {g.edge_index(x, y) for x, y in zip(path, path[1:])}
        add_fragments([i for i in fedges if i not in used],
                      inner.pop(key) - h_nodes, (face_id, new_id))
    return faces


def _rotation_from_faces(g: Graph, faces: list[list[int]]) -> list[list[int]]:
    """Neighbor rotation (as successor orbits) from oriented face cycles."""
    succ: list[dict[int, int]] = [{} for _ in range(g.node_count)]
    for f in faces:
        k = len(f)
        for j in range(k):
            u, v, w = f[j - 1], f[j], f[(j + 1) % k]
            succ[v][u] = w
    rot: list[list[int]] = []
    for per in succ:
        start = min(per)
        orbit = [start]
        while True:
            nxt = per[orbit[-1]]
            if nxt == start:
                break
            orbit.append(nxt)
        if len(orbit) != len(per):
            raise CertificationError("embedding darts at a node form one orbit")
        rot.append(orbit)
    return rot


def _contract(nb: list[set[int]], u: int, v: int) -> set[int]:
    """Contract the edge uv of the graph held as neighbour sets `nb` into
    u; return v's private neighbours (those that were not u's).  v's own
    set is left stale: the caller marks v removed."""
    nv = nb[v]
    nv.discard(u)
    private = nv - nb[u]
    for w in nv:
        nb[w].discard(v)
    for p in private:
        nb[p].add(u)
    nb[u] |= private
    nb[u].discard(v)
    return private


def _insert_between(orbit: list[int], a: int, b: int, new: int) -> None:
    """Put `new` between the neighbours a and b, consecutive in orbit."""
    i = orbit.index(a)
    if orbit[i - 1] == b:
        orbit.insert(i, new)
    elif orbit[(i + 1) % len(orbit)] == b:
        orbit.insert(i + 1, new)
    else:
        raise CertificationError("a split node's neighbours meet in a face")


def _embed_triangulation(g: Graph) -> list[list[int]] | None:
    """Neighbor rotation of a simple graph with n >= 4 and m = 3n - 6,
    or None if it is not planar.

    Contraction: while more than 4 nodes are left, take a node v of
    degree <= 5 and an edge uv whose ends have exactly two common
    neighbours x and y, and contract it into u.  That removes 1 node and
    3 edges, so m = 3n - 6 still holds and the graph stays simple.  Only
    x, y and u change degree, so pushing them onto a work list after
    each step keeps every node of degree <= 5 on it (stale entries are
    skipped when popped): each step costs O(1) set operations, and no
    live node is ever rescanned.  Four nodes with 6 edges are K4.

    Expansion: from a fixed K4 rotation, undo the contractions in
    reverse.  v's private neighbours must be exactly one of the two arcs
    strictly between x and y in u's rotation; u is split along that arc
    and renamed v at the arc's nodes, and v goes between u and the arc's
    first node at x and between u and its last node at y (between u and
    y, and u and x, when the arc is empty).  The side is picked by the
    arc's node set, never by which neighbour of x in u's rotation is
    adjacent to v: when u keeps no private neighbour, both are.

    Exactness, for the graph G met at any step:

    * A node v of degree d <= 5 without such an edge => G is not
      planar.  In a planar triangulation with n >= 5, v's neighbours form
      a cycle C around v, and an edge va lies in a third triangle
      exactly when a chord of C ends at a.  The chords lie on the side
      of C away from v and do not cross, so there are at most d - 3 of
      them, with at most 2(d - 3) < d ends: some edge at v has exactly
      two common neighbours.  Such a node always exists, as m = 3n - 6
      keeps the average degree below 6.
    * A failed split => G is not planar.  If it were, G/uv would be a
      planar triangulation, hence 3-connected with one embedding up to
      mirror image (Whitney), and G's embedding would contract to it; in
      that embedding v's private neighbours form one arc between x and y.
    * Contraction keeps planarity, so either verdict also refutes g; and
      splitting a node along an arc of a planar rotation keeps it planar,
      so the result is a planar embedding.  `_face_walks` re-certifies
      it by Euler's formula in any case.
    """
    n = g.node_count
    nb = [{y for y, _i in adj} for adj in g._adj]
    steps: list[tuple[int, int, int, int, set[int]]] = []
    removed = [False] * n
    work = list(range(n))
    for _ in range(n - 4):
        while True:
            if not work:
                raise CertificationError(
                    "a graph with m = 3n - 6 has a node of degree <= 5")
            v = work.pop()
            if not removed[v] and len(nb[v]) <= 5:
                break
        for u in nb[v]:
            common = nb[u] & nb[v]
            if len(common) == 2:
                break
        else:
            return None
        x, y = common
        steps.append((u, v, x, y, _contract(nb, u, v)))
        removed[v] = True
        work += (x, y, u)  # the only nodes whose degree changed
    a, b, c, d = live = [w for w in range(n) if not removed[w]]
    if any(nb[w] != set(live) - {w} for w in live):
        raise CertificationError("contraction must end at K4")

    rot: list[list[int]] = [[] for _ in range(n)]
    rot[a], rot[b], rot[c], rot[d] = [b, c, d], [a, d, c], [a, b, d], [a, c, b]
    for u, v, x, y, private in reversed(steps):
        r = rot[u]
        i, j = r.index(x), r.index(y)
        if i > j:
            i, j, x, y = j, i, y, x
        inner, outer = r[i + 1:j], r[j + 1:] + r[:i]  # x, inner, y, outer
        if len(inner) == len(private) and private.issuperset(inner):
            s, arc, t, rest = x, inner, y, outer
        elif len(outer) == len(private) and private.issuperset(outer):
            s, arc, t, rest = y, outer, x, inner
        else:
            return None
        rot[u] = [s, v, t, *rest]
        rot[v] = [s, *arc, t, u]
        for p in arc:
            rp = rot[p]
            rp[rp.index(u)] = v
        _insert_between(rot[s], u, arc[0] if arc else t, v)
        _insert_between(rot[t], u, arc[-1] if arc else s, v)
    return rot


def _block_rotation(g: Graph) -> list[list[int]] | None:
    """Neighbor rotation of a 2-connected graph with >= 3 nodes, or None
    if it is not planar; the method is chosen by the shape of g."""
    n, m = g.node_count, len(g.edges)
    if m > 3 * n - 6:
        return None
    if n >= 4 and m == 3 * n - 6:
        return _embed_triangulation(g)
    faces = _embed_biconnected(g)
    return None if faces is None else _rotation_from_faces(g, faces)


def embed_block(g: Graph) -> Embedding | None:
    """`planar_embed` of a graph known to be 2-connected, n >= 3."""
    rot = _block_rotation(g)
    return None if rot is None else Embedding(g, *_face_walks(g, rot))


def planar_embed(g: Graph) -> Embedding | None:
    """Return a combinatorial embedding, or None if g is non-planar.

    Requires a connected graph, checked by one lowpoint sweep.  A
    2-connected graph is embedded as it is; otherwise blocks are embedded
    independently and their rotations concatenated at the cut nodes.
    """
    if g.node_count == 0:
        raise DisconnectedError("empty graph")
    cut, connected = masked_cut_nodes(g._adj, None)
    if not connected:
        raise DisconnectedError("planar_embed needs a connected graph")
    if len(g.edges) > 3 * g.node_count - 6 and g.node_count >= 3:
        return None
    if g.node_count >= 3 and not cut:
        return embed_block(g)
    rot = [[] for _ in range(g.node_count)]
    for bnodes, bedges in blocks(g).blocks:
        if len(bedges) == 1:
            u, v, _w = g.edges[bedges[0]]
            rot[u].append(v)
            rot[v].append(u)
            continue
        bnodes = sorted(bnodes)
        sub, _ = compact_graph(bnodes, [g.edges[i] for i in bedges])
        sub_rot = _block_rotation(sub)
        if sub_rot is None:
            return None
        for sv, orbit in enumerate(sub_rot):
            rot[bnodes[sv]].extend(bnodes[su] for su in orbit)
    return Embedding(g, *_face_walks(g, rot))


def _face_walks(g: Graph, rot: list[list[int]]
                ) -> tuple[tuple[tuple[int, ...], ...],
                           tuple[tuple[tuple[int, int], ...], ...],
                           dict[tuple[int, int], int]]:
    """Certify the neighbor rotation system `rot` of the connected graph g
    as a planar embedding and traverse all its faces; return (rotation
    as edge indices, dart walks, dart -> face id map).

    Each rotation must list each of its node's neighbours once.
    Traversal starts from the lexicographically smallest unused dart, so
    face ids are deterministic.  The face count must satisfy Euler's
    formula f = m - n + 2, which certifies the rotation system as a
    planar (genus 0) embedding.
    """
    rotation: list[tuple[int, ...]] = []
    succ: list[dict[int, int]] = []
    for adj, orbit in zip(g._adj, rot):
        index = dict(adj)
        nxt = dict(zip(orbit, orbit[1:] + orbit[:1]))
        if len(orbit) != len(index) or nxt.keys() != index.keys():
            raise CertificationError("a rotation lists each neighbour once")
        rotation.append(tuple(map(index.__getitem__, orbit)))
        succ.append(nxt)
    walks: list[tuple[tuple[int, int], ...]] = []
    face_of_dart: dict[tuple[int, int], int] = {}
    for start in [(v, w) for v, adj in enumerate(g._adj) for w, _i in adj]:
        if start in face_of_dart:
            continue
        fid = len(walks)
        walk: list[tuple[int, int]] = []
        u, v = start
        while (dart := (u, v)) not in face_of_dart:
            face_of_dart[dart] = fid
            walk.append(dart)
            u, v = v, succ[v][u]
        walks.append(tuple(walk))
    if not walks:
        walks = [()]  # single node: one (outer) face
    if len(walks) != len(g.edges) - g.node_count + 2:
        raise CertificationError(
            "face count breaks Euler's formula f = m - n + 2")
    return tuple(rotation), tuple(walks), face_of_dart


def faces_of(emb: Embedding) -> list[list[int]]:
    """Face boundary walks as edge-index lists; each directed edge used once."""
    g = emb.graph
    return [[g.edge_index(u, v) for u, v in face] for face in emb.faces]


def dual_graph(emb: Embedding) -> DualGraph:
    """Dual graph of an embedding: a node per face, an edge per primal edge.

    A bridge shows up as a self-loop; parallel dual edges are normal.
    """
    face_of_dart = emb.face_of_dart
    return DualGraph(emb.face_count, tuple(
        (face_of_dart[(u, v)], face_of_dart[(v, u)], i, w)
        for i, (u, v, w) in enumerate(emb.graph.edges)))
