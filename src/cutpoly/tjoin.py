"""Exact minimum-weight perfect matching and minimum-weight T-joins.

The matching solver is a primal-dual blossom algorithm on dense instances
(all pair weights given).  Duals are kept doubled in plain integers, as in
Van Rantwijk's `mwmatching`, so integer inputs give exact optima without
rationals; the matching itself is always re-costed from the original
integer weights.  T-joins reduce to matching on the terminal
shortest-path metric, with negative weights removed up front by the usual
symmetric-difference transformation.
"""

from __future__ import annotations

import heapq
import itertools

from .graphs import CertificationError, GraphError, disjoint_sets


class MatchingError(GraphError):
    """Bad matching instance (odd point count, non-square weights)."""


class TJoinError(GraphError):
    """Bad T-join instance (odd terminal set, disconnected graph)."""


def min_weight_perfect_matching(
        weights: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching on the complete graph K_n.

    `weights` is a full symmetric n x n matrix (diagonal ignored); n must
    be even.  Returns (sorted vertex pairs, total weight).
    """
    n = len(weights)
    if any(len(row) != n for row in weights):
        raise MatchingError("weight matrix must be square")
    if n % 2:
        raise MatchingError("perfect matching needs an even point count")
    if n == 0:
        return [], 0
    for i, j in itertools.combinations(range(n), 2):
        if weights[i][j] != weights[j][i]:
            raise MatchingError("weight matrix must be symmetric")
    mate = _Blossom([[-weights[i][j] for j in range(n)] for i in range(n)]).solve()
    pairs = sorted((i, j) for i, j in enumerate(mate) if i < j)
    total = sum(weights[i][j] for i, j in pairs)
    return pairs, total


class _Blossom:
    """Maximum-weight perfect matching on a dense instance.

    Classic Edmonds primal-dual: grow alternating forests from unmatched
    vertices over tight edges, shrink odd cycles into blossoms, expand
    odd-side blossoms when their dual hits zero, adjust duals when stuck.
    Deltas are recomputed by full scans instead of slack caching: the
    instances here are small and the bookkeeping stays simple.

    Every dual is stored doubled: `y[v]` starts at the top weight, the
    slack of uv is y[u] + y[v] - 2 w(uv), and `z[b]` is twice the blossom
    dual.  All labelled vertices share one parity of y (tight edges join
    them, and each dual update moves them together), so with integer
    weights an S-S slack is even, as is every z; the two halvings of the
    dual update are exact, and `_half` raises CertificationError should
    one ever be odd.
    """

    FREE, S, T = 0, 1, 2

    def __init__(self, w: list[list[int]]):
        self.n = n = len(w)
        self.w2 = [[2 * x for x in row] for row in w]
        top = max(max(row) for row in w)
        self.y = [top] * n
        self.mate = [-1] * n
        # blossom structure (ids >= n are nontrivial)
        self.parent: dict[int, int] = {v: -1 for v in range(n)}
        self.base: dict[int, int] = {v: v for v in range(n)}
        self.childs: dict[int, list[int]] = {}
        self.child_edges: dict[int, list[tuple[int, int]]] = {}
        self.z: dict[int, int] = {}
        self.members: dict[int, list[int]] = {v: [v] for v in range(n)}
        self.label: dict[int, int] = {}
        self.label_edge: dict[int, tuple[int, int] | None] = {}
        self.next_id = n

    # -- structure helpers ---------------------------------------------

    def surface(self, x: int) -> int:
        while self.parent[x] != -1:
            x = self.parent[x]
        return x

    def child_containing(self, b: int, v: int) -> int:
        x = v
        while self.parent[x] != b:
            x = self.parent[x]
        return x

    @staticmethod
    def _half(x: int) -> int:
        if x % 2:
            raise CertificationError("odd doubled dual: the halving is inexact")
        return x // 2

    # -- phase machinery -------------------------------------------------

    def solve(self) -> list[int]:
        for _phase in range(self.n // 2):
            if all(m != -1 for m in self.mate):
                break
            self._run_phase()
        if -1 in self.mate:
            raise CertificationError("perfect matching left a vertex unmatched")
        return self.mate

    def _surfaces(self) -> list[int]:
        return [b for b in self.parent if self.parent[b] == -1]

    def _run_phase(self) -> None:
        self.label = {b: self.FREE for b in self._surfaces()}
        self.label_edge = {b: None for b in self.label}
        queue: list[int] = []
        for b in self.label:
            if self.mate[self.base[b]] == -1:
                self.label[b] = self.S
                queue.extend(self.members[b])
        for _step in range(100 * (self.n + 1) ** 3):
            aug = self._scan(queue)
            if aug:
                self._augment(*aug)
                self._cleanup_phase()
                return
            if not self._dual_update(queue):
                raise MatchingError("dual update stalled: infeasible instance")
        raise CertificationError("matching phase failed to converge")

    def _scan(self, queue: list[int]) -> tuple[int, int] | None:
        while queue:
            u = queue.pop()
            bu = self.surface(u)
            if self.label.get(bu) != self.S:
                continue
            # the duals stay fixed while scanning, so test tightness first
            yu, wu, y = self.y[u], self.w2[u], self.y
            for v in range(self.n):
                if yu + y[v] != wu[v]:
                    continue
                bv = self.surface(v)
                if bv == bu:
                    continue
                lab = self.label[bv]
                if lab == self.FREE:
                    self._grow(u, v, bv, queue)
                elif lab == self.S:
                    r1 = self._trace(bu)
                    r2 = self._trace(bv)
                    if r1[-1] != r2[-1]:
                        return (u, v)
                    self._add_blossom(r1, r2, u, v, queue)
                    break  # u's surface changed; rescan via queue
        return None

    def _grow(self, u: int, v: int, bv: int, queue: list[int]) -> None:
        self.label[bv] = self.T
        self.label_edge[bv] = (u, v)
        bm = self.base[bv]
        m = self.mate[bm]
        if m == -1:
            raise CertificationError("free non-root blossom must be matched")
        bs = self.surface(m)
        self.label[bs] = self.S
        self.label_edge[bs] = (bm, m)
        queue.extend(self.members[bs])

    def _trace(self, b: int) -> list[int]:
        path = [b]
        while self.label_edge[path[-1]] is not None:
            q, _p = self.label_edge[path[-1]]
            nxt = self.surface(q)
            path.append(nxt)
        return path

    # -- blossoms ----------------------------------------------------------

    def _add_blossom(self, r1: list[int], r2: list[int], u: int, v: int,
                     queue: list[int]) -> None:
        set2 = set(r2)
        lca = next(x for x in r1 if x in set2)
        path_u = r1[:r1.index(lca)]
        path_v = r2[:r2.index(lca)]
        childs = [lca] + list(reversed(path_u)) + path_v
        edges: list[tuple[int, int]] = []
        for j in range(len(childs) - 1):
            a, b = childs[j], childs[j + 1]
            if j < len(path_u):
                q, p = self.label_edge[b]  # a is parent of b
                edges.append((q, p))
            elif j == len(path_u):
                edges.append((u, v))
            else:
                q, p = self.label_edge[a]  # b is parent of a
                edges.append((p, q))
        if path_v:
            q, p = self.label_edge[childs[-1]]
            edges.append((p, q))  # wrap: last child -> lca
        else:
            edges.append((u, v))  # surface(v) == lca: the tight edge wraps
        if len(childs) % 2 == 0:
            raise CertificationError("blossom cycle must be odd")
        nb = self.next_id
        self.next_id += 1
        for c in childs:
            self.parent[c] = nb
        self.parent[nb] = -1
        self.base[nb] = self.base[lca]
        self.childs[nb] = childs
        self.child_edges[nb] = edges
        self.z[nb] = 0
        self.members[nb] = [x for c in childs for x in self.members[c]]
        self.label[nb] = self.S
        self.label_edge[nb] = self.label_edge[lca]
        for c in childs:
            if self.label.get(c) == self.T:
                queue.extend(self.members[c])

    def _rotate(self, b: int, v: int) -> None:
        """Make v the base of blossom b by flipping its internal matching.

        Iterative, so deep nesting needs no call stack: `todo` holds the
        pending rotations (blossom, new base) and matched pairs
        (-1 - x, y), and pops them in the order a recursive walk runs
        them (each pair's two sub-rotations, then its flip, then the
        child holding v)."""
        todo = [(b, v)]
        while todo:
            b, v = todo.pop()
            if b < 0:
                x = -1 - b
                self.mate[x] = v
                self.mate[v] = x
                continue
            if b < self.n:
                continue
            childs = self.childs[b]
            edges = self.child_edges[b]
            k = len(childs)
            c = self.child_containing(b, v)
            i = childs.index(c)
            pairs = range(0, i, 2) if i % 2 == 0 else range(i + 1, k, 2)
            work = []
            for j in pairs:
                x, ynode = edges[j]
                work += [(childs[j], x), (childs[(j + 1) % k], ynode),
                         (-1 - x, ynode)]
            work.append((c, v))
            self.childs[b] = childs[i:] + childs[:i]
            self.child_edges[b] = edges[i:] + edges[:i]
            self.base[b] = v
            todo.extend(reversed(work))

    def _expand(self, b: int, queue: list[int] | None) -> None:
        """Dissolve blossom b.  With `queue` given, b is an odd-side (T)
        blossom with zero dual: relabel the even alternating path from its
        entry to its base, leave the rest free."""
        childs = self.childs[b]
        edges = self.child_edges[b]
        k = len(childs)
        for c in childs:
            self.parent[c] = -1
        if queue is not None:
            entry_dart = self.label_edge[b]
            q0, p0 = entry_dart
            centry = self.child_containing_after_dissolve(p0, childs)
            i = childs.index(centry)
            for c in childs:
                self.label[c] = self.FREE
                self.label_edge[c] = None
            seq = list(range(i, -1, -1)) if i % 2 == 0 \
                else list(range(i, k)) + [0]
            self.label[centry] = self.T
            self.label_edge[centry] = entry_dart
            for t in range(1, len(seq)):
                a, bnode = childs[seq[t - 1]], childs[seq[t]]
                if i % 2 == 0:
                    x, ynode = edges[seq[t]]      # edge childs[seq[t]] -> childs[seq[t-1]]
                    dart = (ynode, x)
                else:
                    x, ynode = edges[seq[t - 1]]  # edge childs[seq[t-1]] -> childs[seq[t]]
                    dart = (x, ynode)
                self.label[bnode] = self.T if t % 2 == 0 else self.S
                self.label_edge[bnode] = dart
                if self.label[bnode] == self.S:
                    queue.extend(self.members[bnode])
        del self.childs[b], self.child_edges[b], self.z[b]
        del self.members[b], self.parent[b], self.base[b]
        self.label.pop(b, None)
        self.label_edge.pop(b, None)

    def child_containing_after_dissolve(self, v: int, childs: list[int]) -> int:
        x = v
        while x not in childs:
            x = self.parent[x]
            if x == -1:
                raise CertificationError("vertex lies in no child of the blossom")
        return x

    # -- augmenting --------------------------------------------------------

    def _augment(self, u: int, v: int) -> None:
        for s, t in ((u, v), (v, u)):
            while True:
                bs = self.surface(s)
                le = self.label_edge[bs]
                self._rotate(bs, s)
                self.mate[s] = t
                if le is None:
                    break
                q, _p = le
                bt = self.surface(q)
                u2, v2 = self.label_edge[bt]
                self._rotate(bt, v2)
                self.mate[v2] = u2
                s, t = u2, v2

    def _cleanup_phase(self) -> None:
        # drop zero-dual blossoms so they cannot linger across phases
        while True:
            stale = [b for b in self._surfaces()
                     if b >= self.n and self.z[b] == 0]
            if not stale:
                return
            for b in stale:
                self._expand(b, None)

    # -- dual adjustment -----------------------------------------------------

    def _dual_update(self, queue: list[int]) -> bool:
        surf = [self.surface(v) for v in range(self.n)]
        lbl = [self.label[b] for b in surf]
        y = self.y
        delta = None
        for u in range(self.n):
            if lbl[u] != self.S:
                continue
            su, yu, wu = surf[u], y[u], self.w2[u]
            for v in range(self.n):
                if surf[v] == su:
                    continue
                if lbl[v] == self.FREE:
                    cand = yu + y[v] - wu[v]
                elif lbl[v] == self.S:
                    cand = self._half(yu + y[v] - wu[v])
                else:
                    continue
                if delta is None or cand < delta:
                    delta = cand
        for b in self._surfaces():
            if b >= self.n and self.label[b] == self.T:
                cand = self._half(self.z[b])
                if delta is None or cand < delta:
                    delta = cand
        if delta is None:
            return False
        if delta < 0:
            raise CertificationError("negative delta breaks dual feasibility")
        for v in range(self.n):
            if lbl[v] == self.S:
                self.y[v] -= delta
            elif lbl[v] == self.T:
                self.y[v] += delta
        for b in self._surfaces():
            if b >= self.n:
                if self.label[b] == self.S:
                    self.z[b] += 2 * delta
                elif self.label[b] == self.T:
                    self.z[b] -= 2 * delta
        while True:
            ripe = [b for b in self._surfaces()
                    if b >= self.n and self.label[b] == self.T and self.z[b] == 0]
            if not ripe:
                break
            self._expand(min(ripe), queue)
        for v in range(self.n):
            if self.label[self.surface(v)] == self.S:
                queue.append(v)
        return True


# -- T-joins ------------------------------------------------------------------

def min_weight_t_join(node_count: int,
                      edges: list[tuple[int, int, int]],
                      terminals: set[int] | frozenset[int] | list[int],
                      ) -> tuple[tuple[int, ...], int]:
    """Minimum-weight T-join on a connected multigraph (loops allowed).

    Weights may be negative: negative edges N are flipped to |w|, the join
    for T xor odd(N) is computed on the nonnegative instance, and N is
    xored back in.  Returns (sorted edge indices, total original weight).
    """
    tset = set(terminals)
    if len(tset) % 2:
        raise TJoinError("terminal set must have even size")
    if node_count == 0:
        return (), 0
    if len(disjoint_sets(node_count, [e[:2] for e in edges])) > 1:
        raise TJoinError("T-join needs a connected graph")
    if any(not 0 <= x < node_count for e in edges for x in e[:2]):
        raise TJoinError("edge endpoint out of range")

    neg = [i for i, (_u, _v, w) in enumerate(edges) if w < 0]
    work_t = sorted(tset ^ _odd_nodes(edges, neg))

    join: set[int] = set()
    if work_t:
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(node_count)]
        for i, (u, v, w) in enumerate(edges):
            if u != v:  # loops never lie on a shortest path
                adj[u].append((v, abs(w), i))
                adj[v].append((u, abs(w), i))
        # the tree of the later terminal of each pair holds its distance
        # and is the one its path is traced in
        trees = [_dijkstra(adj, t, work_t[:j]) for j, t in enumerate(work_t)]
        k = len(work_t)
        matrix = [[0] * k for _ in range(k)]
        for i, j in itertools.combinations(range(k), 2):
            matrix[i][j] = matrix[j][i] = trees[j][0][work_t[i]]
        pairs, _total = min_weight_perfect_matching(matrix)
        for i, j in pairs:
            join ^= _trace_path(adj, *trees[j], work_t[i], work_t[j])
    join ^= set(neg)
    total = sum(edges[i][2] for i in join)

    if _odd_nodes(edges, join) != tset:
        raise CertificationError("join parity broken")
    return tuple(sorted(join)), total


def _odd_nodes(edges, ids) -> set[int]:
    """Nodes of odd degree in the edges `ids` (a loop adds 2)."""
    odd: set[int] = set()
    for i in ids:
        odd ^= {edges[i][0]} ^ {edges[i][1]}
    return odd


def _dijkstra(adj, source: int, targets
              ) -> tuple[list[int | None], list[int]]:
    """Distances from `source` and the order in which Dijkstra settles
    nodes (0 = unsettled).  Stops once every target is settled: nodes
    settled later can neither shorten nor precede them."""
    dist: list[int | None] = [None] * len(adj)
    settle = [0] * len(adj)
    pending = set(targets)
    heap = [(0, source)]
    tick = 0
    while heap and pending:
        d, x = heapq.heappop(heap)
        if dist[x] is not None:
            continue
        dist[x] = d
        tick += 1
        settle[x] = tick
        pending.discard(x)
        for y, w, _i in adj[x]:
            if dist[y] is None:
                heapq.heappush(heap, (d + w, y))
    return dist, settle


def _trace_path(adj, dist, settle, a: int, b: int) -> set[int]:
    """Canonical shortest a-b path (edge indices) in the Dijkstra tree of
    b given by `dist` and `settle`.

    Ties break deterministically: each node's parent toward b is the
    smallest (node, edge) among neighbours settled earlier on a shortest
    path, which stays well-defined even on zero-weight cycles.  Parents
    are found only for the nodes on the path.
    """
    if dist[a] is None:
        raise CertificationError("matched terminal not reached")
    path: set[int] = set()
    x = a
    while x != b:
        dx, sx = dist[x], settle[x]
        x, i = min((y, i) for y, w, i in adj[x]
                   if dist[y] is not None and settle[y] < sx
                   and dx == w + dist[y])
        path.add(i)
    return path
