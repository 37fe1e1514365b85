"""Exact minimum-weight perfect matching and minimum-weight T-joins.

The matching solver is a primal-dual blossom algorithm on a sparse graph,
with Galil's least-slack edges kept per vertex and per blossom, so a dual
update costs O(n).  Duals are kept doubled in plain integers, so integer
weights give exact optima without rationals; the matching itself is
always re-costed from the original integer weights.

T-joins reduce to matching on the terminal shortest-path metric, with
negative weights removed up front by the usual symmetric-difference
transformation.  The k x k metric is never formed: each terminal's
Dijkstra stops once its `K_NEAREST` nearest other terminals are settled,
the matching runs on those candidate pairs, and pricing (after Cook &
Rohe, "Computing minimum-weight perfect matchings", 1999) resumes the
searches just far enough to prove that no other pair violates the duals,
adding any pair that does and solving again.  The final duals are checked
against every pair a search has reached.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .graphs import CertificationError, GraphError, disjoint_sets

# each terminal's search stops once this many other terminals are settled
K_NEAREST = 6


class MatchingError(GraphError):
    """Bad matching instance (odd point count, non-square weights)."""


class TJoinError(GraphError):
    """Bad T-join instance (odd terminal set, disconnected graph)."""


def min_weight_perfect_matching(
        weights: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching on the complete graph K_n.

    `weights` is a full symmetric n x n matrix (diagonal ignored); n must
    be even.  Returns (sorted vertex pairs, total weight).  Runs the same
    sparse solver as the T-join, on all n(n-1)/2 pairs.
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
    mate = _Blossom(n, [(i, j, weights[i][j]) for i, j
                        in itertools.combinations(range(n), 2)]).solve()
    if mate is None:
        raise CertificationError("perfect matching left a vertex unmatched")
    pairs = sorted((i, j) for i, j in enumerate(mate) if i < j)
    total = sum(weights[i][j] for i, j in pairs)
    return pairs, total


class _Blossom:
    """Minimum-weight perfect matching on a sparse graph.

    Edmonds' primal-dual method as in Van Rantwijk's `mwmatching`: each
    phase grows alternating trees from every exposed vertex over tight
    edges, shrinks odd cycles into blossoms, expands odd-side (T)
    blossoms whose dual reaches zero, and adjusts duals when stuck, until
    one augmenting path is found.  Least-slack edges are kept per free
    vertex and per even-side (S) blossom, so each dual update scans O(n)
    entries, not the edges.

    Vertices are 0..n-1 and blossoms n..2n-1.  Edge k has the endpoints
    2k and 2k+1; `mate[v]` is the far endpoint of v's matched edge.  Duals
    are doubled integers: edge k = (i, j, w) has slack 2w - y[i] - y[j],
    plus 2 z[B] for every blossom B holding both ends, and a blossom dual
    z[B] moves by the same delta as its vertices.  The start is greedy:
    y[v] is v's least incident weight; then each exposed vertex in turn
    raises y[v] until an edge at v is tight and takes the first tight
    edge to an exposed vertex; every vertex left exposed is rounded down
    to even.  Exposed vertices stay S roots, and every other labelled
    vertex is joined to them by tight edges, so all labelled vertices
    share one parity of y: the slack of an edge between two S blossoms is
    even, and `_half` raises CertificationError should one ever be odd.
    `solve` returns None when the graph has no perfect matching; the S
    vertices of the stalled forest are then in `stuck`.
    """

    FREE, S, T = 0, 1, 2

    def __init__(self, n: int, edges: list[tuple[int, int, int]]):
        self.n = n
        self.edges = edges
        self.w2 = [2 * w for _i, _j, w in edges]
        self.endpoint = [x for i, j, _w in edges for x in (i, j)]
        self.neighbend: list[list[int]] = [[] for _ in range(n)]
        for k, (i, j, _w) in enumerate(edges):
            self.neighbend[i].append(2 * k + 1)
            self.neighbend[j].append(2 * k)
        self.mate = [-1] * n
        self.y = [0] * n
        self.z = [0] * (2 * n)
        self.label = [self.FREE] * (2 * n)
        self.label_end = [-1] * (2 * n)
        self.in_blossom = list(range(n))
        self.parent = [-1] * (2 * n)
        self.childs: list[list[int] | None] = [None] * (2 * n)
        self.endps: list[list[int] | None] = [None] * (2 * n)
        self.base = list(range(n)) + [-1] * n
        self.best_edge = [-1] * (2 * n)
        self.best_edges: list[list[int] | None] = [None] * (2 * n)
        self.unused = list(range(2 * n - 1, n - 1, -1))
        self.allowed = [False] * len(edges)
        self.queue: list[int] = []
        self.stuck: list[int] = []

    # -- helpers -----------------------------------------------------------

    def slack(self, k: int) -> int:
        return (self.w2[k] - self.y[self.endpoint[2 * k]]
                - self.y[self.endpoint[2 * k + 1]])

    @staticmethod
    def _half(x: int) -> int:
        if x % 2:
            raise CertificationError("odd doubled dual: the halving is inexact")
        return x // 2

    def _leaves(self, b: int) -> list[int]:
        out, stack = [], [b]
        while stack:
            x = stack.pop()
            if x < self.n:
                out.append(x)
            else:
                stack.extend(self.childs[x])
        return out

    def _child_of(self, b: int, v: int) -> int:
        """The child of blossom b that holds vertex v."""
        while self.parent[v] != b:
            v = self.parent[v]
            if v == -1:
                raise CertificationError("vertex lies in no child of the blossom")
        return v

    def pair_slack(self, i: int, j: int, w: int) -> int:
        """Doubled slack of a pair (i, j) of weight w under the current
        duals, counting the blossoms that hold both ends."""
        holding_i = set()
        x = self.parent[i]
        while x != -1:
            holding_i.add(x)
            x = self.parent[x]
        s = 2 * w - self.y[i] - self.y[j]
        x = self.parent[j]
        while x != -1:
            if x in holding_i:
                s += 2 * self.z[x]
            x = self.parent[x]
        return s

    # -- phases --------------------------------------------------------------

    def solve(self) -> list[int] | None:
        """Vertex mates of a minimum-weight perfect matching, or None when
        the graph has none."""
        self._greedy_start()
        for _phase in range(self.n // 2 + 1):
            if -1 not in self.mate:
                break
            if not self._run_phase():
                self.stuck = [v for v in range(self.n)
                              if self.label[self.in_blossom[v]] == self.S]
                return None
        if -1 in self.mate:
            raise CertificationError("perfect matching left a vertex unmatched")
        return [self.endpoint[p] for p in self.mate]

    def _greedy_start(self) -> None:
        y, mate, endpoint, w2 = self.y, self.mate, self.endpoint, self.w2
        for v, ends in enumerate(self.neighbend):
            if ends:
                y[v] = min(w2[p >> 1] for p in ends) // 2
        for v, ends in enumerate(self.neighbend):
            if mate[v] != -1 or not ends:
                continue
            # every slack at v, 2w - y[v] - y[u], drops by the least one
            y[v] = min(w2[p >> 1] - y[endpoint[p]] for p in ends)
            for p in ends:
                u = endpoint[p]
                if mate[u] == -1 and w2[p >> 1] == y[v] + y[u]:
                    mate[v], mate[u] = p, p ^ 1
                    break
        for v in range(self.n):
            if mate[v] == -1:
                y[v] -= y[v] & 1

    def _run_phase(self) -> bool:
        """Grow the forest until one augmentation; False if it stalls."""
        n = self.n
        self.label = [self.FREE] * (2 * n)
        self.best_edge = [-1] * (2 * n)
        self.best_edges[n:] = [None] * n
        self.allowed = [False] * len(self.edges)
        self.queue = []
        for v in range(n):
            if self.mate[v] == -1 and self.label[self.in_blossom[v]] == self.FREE:
                self._assign_label(v, self.S, -1)
        for _step in range((n + 1) ** 2):
            if self._scan():
                self._end_phase()
                return True
            if not self._dual_update():
                return False
        raise CertificationError("matching phase failed to converge")

    def _end_phase(self) -> None:
        for b in range(self.n, 2 * self.n):
            if (self.parent[b] == -1 and self.base[b] >= 0
                    and self.label[b] == self.S and self.z[b] == 0):
                self._expand(b, end_phase=True)

    def _assign_label(self, w: int, t: int, p: int) -> None:
        b = self.in_blossom[w]
        self.label[w] = self.label[b] = t
        self.label_end[w] = self.label_end[b] = p
        self.best_edge[w] = self.best_edge[b] = -1
        if t == self.S:
            self.queue.extend(self._leaves(b))
            return
        base = self.base[b]
        if self.mate[base] == -1:
            raise CertificationError("free non-root blossom must be matched")
        self._assign_label(self.endpoint[self.mate[base]], self.S,
                           self.mate[base] ^ 1)

    def _scan(self) -> bool:
        """Scan S vertices over their edges; True once augmented."""
        S, T, FREE = self.S, self.T, self.FREE
        label, in_blossom, endpoint = self.label, self.in_blossom, self.endpoint
        allowed, best_edge, queue = self.allowed, self.best_edge, self.queue
        y, w2, slack = self.y, self.w2, self.slack
        while queue:
            v = queue.pop()
            bv = in_blossom[v]
            for p in self.neighbend[v]:
                k = p >> 1
                w = endpoint[p]
                bw = in_blossom[w]
                if bv == bw:
                    continue
                if not allowed[k]:
                    kslack = w2[k] - y[v] - y[w]
                    if kslack <= 0:
                        allowed[k] = True
                if allowed[k]:
                    if label[bw] == FREE:
                        self._assign_label(w, T, p ^ 1)
                    elif label[bw] == S:
                        base = self._scan_blossom(v, w)
                        if base >= 0:
                            self._add_blossom(base, k)
                            bv = in_blossom[v]
                        else:
                            self._augment(k)
                            return True
                    elif label[w] == FREE:
                        # w sits unreached inside a T blossom: mark it
                        # for relabelling should that blossom expand
                        label[w] = T
                        self.label_end[w] = p ^ 1
                elif label[bw] == S:
                    if best_edge[bv] == -1 or kslack < slack(best_edge[bv]):
                        best_edge[bv] = k
                elif label[w] == FREE:
                    if best_edge[w] == -1 or kslack < slack(best_edge[w]):
                        best_edge[w] = k
        return False

    def _scan_blossom(self, v: int, w: int) -> int:
        """Trace back from v and w: the base of their first common
        S blossom, or -1 when they lie in different trees."""
        label, label_end, endpoint = self.label, self.label_end, self.endpoint
        path, base = [], -1
        while v != -1 or w != -1:
            b = self.in_blossom[v]
            if label[b] & 4:
                base = self.base[b]
                break
            path.append(b)
            label[b] = 5
            if label_end[b] == -1:
                v = -1
            else:
                v = endpoint[label_end[self.in_blossom[endpoint[label_end[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = self.S
        return base

    # -- blossoms ----------------------------------------------------------

    def _add_blossom(self, base: int, k: int) -> None:
        v, w, _wt = self.edges[k]
        in_blossom, label_end, endpoint = self.in_blossom, self.label_end, self.endpoint
        bb, bv, bw = in_blossom[base], in_blossom[v], in_blossom[w]
        b = self.unused.pop()
        self.base[b] = base
        self.parent[b] = -1
        self.parent[bb] = b
        path, endps = [], []
        while bv != bb:
            self.parent[bv] = b
            path.append(bv)
            endps.append(label_end[bv])
            bv = in_blossom[endpoint[label_end[bv]]]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            self.parent[bw] = b
            path.append(bw)
            endps.append(label_end[bw] ^ 1)
            bw = in_blossom[endpoint[label_end[bw]]]
        if len(path) % 2 == 0:
            raise CertificationError("blossom cycle must be odd")
        self.childs[b], self.endps[b] = path, endps
        self.label[b] = self.S
        label_end[b] = label_end[bb]
        self.z[b] = 0
        for x in self._leaves(b):
            if self.label[in_blossom[x]] == self.T:
                self.queue.append(x)
            in_blossom[x] = b
        # least-slack edges from b to every other S blossom
        best_to: dict[int, int] = {}
        for c in path:
            if self.best_edges[c] is None:
                ks = [p >> 1 for x in self._leaves(c) for p in self.neighbend[x]]
            else:
                ks = self.best_edges[c]
            for kk in ks:
                i, j, _w = self.edges[kk]
                if in_blossom[j] == b:
                    i, j = j, i
                bj = in_blossom[j]
                if (bj != b and self.label[bj] == self.S
                        and (bj not in best_to
                             or self.slack(kk) < self.slack(best_to[bj]))):
                    best_to[bj] = kk
            self.best_edges[c] = None
            self.best_edge[c] = -1
        self.best_edges[b] = list(best_to.values())
        self.best_edge[b] = min(self.best_edges[b], key=self.slack, default=-1)

    def _expand(self, b: int, end_phase: bool) -> None:
        """Dissolve blossom b.  At the end of a phase, zero-dual children
        dissolve too; within a phase b is a T blossom whose dual reached
        zero, and its children are relabelled along the even path from
        the entry child to the base."""
        n = self.n
        stack = [b]
        while stack:
            c = stack.pop()
            for s in self.childs[c]:
                self.parent[s] = -1
                if s < n:
                    self.in_blossom[s] = s
                elif end_phase and self.z[s] == 0:
                    stack.append(s)
                else:
                    for v in self._leaves(s):
                        self.in_blossom[v] = s
            if c != b:
                self._free(c)
        if not end_phase and self.label[b] == self.T:
            self._relabel_expanded(b)
        self._free(b)

    def _relabel_expanded(self, b: int) -> None:
        label, label_end, endpoint = self.label, self.label_end, self.endpoint
        childs, endps = self.childs[b], self.endps[b]
        # the children are dissolved, so in_blossom names the child
        entry = self.in_blossom[endpoint[label_end[b] ^ 1]]
        if entry not in childs:
            raise CertificationError("vertex lies in no child of the blossom")
        j = childs.index(entry)
        if j & 1:
            j -= len(childs)
            step, trick = 1, 0
        else:
            step, trick = -1, 1
        p = label_end[b]
        while j != 0:
            label[endpoint[p ^ 1]] = self.FREE
            label[endpoint[endps[j - trick] ^ trick ^ 1]] = self.FREE
            self._assign_label(endpoint[p ^ 1], self.T, p)
            self.allowed[endps[j - trick] >> 1] = True
            j += step
            p = endps[j - trick] ^ trick
            self.allowed[p >> 1] = True
            j += step
        bv = childs[j]
        label[endpoint[p ^ 1]] = label[bv] = self.T
        label_end[endpoint[p ^ 1]] = label_end[bv] = p
        self.best_edge[bv] = -1
        j += step
        while childs[j] != entry:
            bv = childs[j]
            j += step
            if label[bv] == self.S:
                continue
            reached = [v for v in self._leaves(bv) if label[v] != self.FREE]
            if reached:
                v = reached[0]
                label[v] = self.FREE
                label[endpoint[self.mate[self.base[bv]]]] = self.FREE
                self._assign_label(v, self.T, label_end[v])

    def _free(self, b: int) -> None:
        self.label[b] = self.label_end[b] = -1
        self.childs[b] = self.endps[b] = self.best_edges[b] = None
        self.base[b] = self.best_edge[b] = -1
        self.unused.append(b)

    # -- augmenting --------------------------------------------------------

    def _augment_blossom(self, b: int, v: int) -> None:
        """Make v the base of blossom b by flipping its internal matching.

        Iterative, so deep nesting needs no call stack; each child's own
        rotation is independent of its siblings', so `todo` may run them
        in any order."""
        n, endpoint, mate = self.n, self.endpoint, self.mate
        todo = [(b, v)]
        while todo:
            b, v = todo.pop()
            t = self._child_of(b, v)
            if t >= n:
                todo.append((t, v))
            childs, endps = self.childs[b], self.endps[b]
            i = j = childs.index(t)
            if i & 1:
                j -= len(childs)
                step, trick = 1, 0
            else:
                step, trick = -1, 1
            while j != 0:
                j += step
                p = endps[j - trick] ^ trick
                if childs[j] >= n:
                    todo.append((childs[j], endpoint[p]))
                j += step
                if childs[j] >= n:
                    todo.append((childs[j], endpoint[p ^ 1]))
                mate[endpoint[p]] = p ^ 1
                mate[endpoint[p ^ 1]] = p
            self.childs[b] = childs[i:] + childs[:i]
            self.endps[b] = endps[i:] + endps[:i]
            self.base[b] = v

    def _augment(self, k: int) -> None:
        v, w, _wt = self.edges[k]
        endpoint, label_end, in_blossom = self.endpoint, self.label_end, self.in_blossom
        for s, p in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = in_blossom[s]
                if bs >= self.n:
                    self._augment_blossom(bs, s)
                self.mate[s] = p
                if label_end[bs] == -1:
                    break
                bt = in_blossom[endpoint[label_end[bs]]]
                s = endpoint[label_end[bt]]
                j = endpoint[label_end[bt] ^ 1]
                if bt >= self.n:
                    self._augment_blossom(bt, j)
                self.mate[j] = label_end[bt]
                p = label_end[bt] ^ 1

    # -- dual adjustment -----------------------------------------------------

    def _dual_update(self) -> bool:
        """Move the duals by the largest step that keeps them feasible and
        act on the event that limits it; False if nothing limits it."""
        n, S, T, FREE = self.n, self.S, self.T, self.FREE
        label, in_blossom, parent = self.label, self.in_blossom, self.parent
        best_edge = self.best_edge
        delta, kind, arg = None, 0, -1
        for v in range(n):
            if label[in_blossom[v]] == FREE and best_edge[v] != -1:
                d = self.slack(best_edge[v])
                if delta is None or d < delta:
                    delta, kind, arg = d, 2, best_edge[v]
        for b in range(2 * n):
            if parent[b] == -1 and label[b] == S and best_edge[b] != -1:
                d = self._half(self.slack(best_edge[b]))
                if delta is None or d < delta:
                    delta, kind, arg = d, 3, best_edge[b]
        for b in range(n, 2 * n):
            if (self.base[b] >= 0 and parent[b] == -1 and label[b] == T
                    and (delta is None or self.z[b] < delta)):
                delta, kind, arg = self.z[b], 4, b
        if delta is None:
            return False
        if delta < 0:
            raise CertificationError("negative delta breaks dual feasibility")
        y, z = self.y, self.z
        for v in range(n):
            lab = label[in_blossom[v]]
            if lab == S:
                y[v] += delta
            elif lab == T:
                y[v] -= delta
        for b in range(n, 2 * n):
            if self.base[b] >= 0 and parent[b] == -1:
                if label[b] == S:
                    z[b] += delta
                elif label[b] == T:
                    z[b] -= delta
        if kind == 4:
            self._expand(arg, end_phase=False)
        else:
            self.allowed[arg] = True
            i, j, _w = self.edges[arg]
            if label[in_blossom[i]] != S:
                i = j
            self.queue.append(i)
        return True


# -- T-joins ------------------------------------------------------------------

def min_weight_t_join(node_count: int,
                      edges: list[tuple[int, int, int]],
                      terminals: set[int] | frozenset[int] | list[int],
                      ) -> tuple[tuple[int, ...], int]:
    """Minimum-weight T-join on a connected multigraph (loops allowed).

    Weights may be negative: negative edges N are flipped to |w|, the join
    for T xor odd(N) is computed on the nonnegative instance, and N is
    xored back in.  The terminals are matched over nearest-terminal
    candidate pairs with pricing (see the module docstring), and each
    matched pair's path is traced in the search of its later terminal.
    Returns (sorted edge indices, total original weight).
    """
    tset = set(terminals)
    if len(tset) % 2:
        raise TJoinError("terminal set must have even size")
    if any(not 0 <= x < node_count for e in edges for x in e[:2]):
        raise TJoinError("edge endpoint out of range")
    if any(not 0 <= x < node_count for x in tset):
        raise TJoinError("terminal out of range")
    if node_count == 0:
        return (), 0
    if len(disjoint_sets(node_count, [e[:2] for e in edges])) > 1:
        raise TJoinError("T-join needs a connected graph")

    neg = [i for i, (_u, _v, w) in enumerate(edges) if w < 0]
    work_t = sorted(tset ^ _odd_nodes(edges, neg))

    join: set[int] = set()
    if work_t:
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(node_count)]
        for i, (u, v, w) in enumerate(edges):
            if u != v:  # loops never lie on a shortest path
                adj[u].append((v, abs(w), i))
                adj[v].append((u, abs(w), i))
        metric = _TerminalMetric(adj, work_t)
        for i, j in metric.matching():
            search = metric.searches[j]
            search.grow(node=work_t[i])
            join ^= _trace_path(adj, search.dist, search.settle,
                                work_t[i], work_t[j])
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


class _Search:
    """A resumable Dijkstra from one terminal.

    `dist` and `settle` (the settle order, from 1) hold the settled nodes
    only; `found` lists the other terminals in the order settled.  Every
    node nearer than `radius()` is settled, so a terminal not yet found is
    at least that far."""

    def __init__(self, adj, source: int, index: list[int]):
        self.adj, self.index = adj, index
        self.dist: dict[int, int] = {}
        self.settle: dict[int, int] = {}
        self.heap = [(0, source)]
        self.found: list[tuple[int, int]] = []  # (terminal index, distance)

    def radius(self) -> float:
        return self.heap[0][0] if self.heap else math.inf

    def grow(self, count: int = 0, bound: int = 0, node: int = -1) -> None:
        """Settle nodes until `count` other terminals are found, every
        node nearer than `bound` is settled and `node` is settled, or
        until no node is left."""
        adj, index, heap = self.adj, self.index, self.heap
        dist, settle, found = self.dist, self.settle, self.found
        while heap and (len(found) < count or heap[0][0] < bound
                        or node >= 0 and node not in dist):
            d, x = heapq.heappop(heap)
            if x in dist:
                continue
            dist[x] = d
            settle[x] = len(dist)
            if index[x] >= 0 and len(dist) > 1:  # not the source
                found.append((index[x], d))
            for y, w, _i in adj[x]:
                if y not in dist:
                    heapq.heappush(heap, (d + w, y))


class _TerminalMetric:
    """The terminal shortest-path metric, read only as far as the
    matching needs it.

    `known` holds every terminal pair (i, j), i < j, that some search has
    settled, with its distance; `candidates` is the part the matching
    runs on.  Pricing rests on one bound.  The solver's doubled dual y[i]
    is 2 Y_i, where Y_i is i's dual plus those of the blossoms holding i
    (blossom duals counted on the cut), and a pair violates the duals only
    if d(i, j) < Y_i + Y_j, as blossom duals are nonnegative.  A pair no
    search has found is at least as far as either search's radius.  So
    once every search i has radius >= 2 Y_i, no unfound pair can violate,
    since Y_i + Y_j <= 2 max(Y_i, Y_j) <= max(radius_i, radius_j) <=
    d(i, j); this radius is never larger than the Y_i + max Y that the
    same bound gives with the largest dual in place of Y_j."""

    def __init__(self, adj, terminals: list[int]):
        self.k = k = len(terminals)
        index = [-1] * len(adj)
        for i, t in enumerate(terminals):
            index[t] = i
        self.searches = [_Search(adj, t, index) for t in terminals]
        self.known: dict[tuple[int, int], int] = {}
        for i, search in enumerate(self.searches):
            search.grow(count=min(K_NEAREST, k - 1))
            self._note(i)
        self.candidates = dict(self.known)

    def _note(self, i: int) -> None:
        """Record the pairs search i has found."""
        for j, d in self.searches[i].found:
            self.known[(i, j) if i < j else (j, i)] = d

    def radius(self, i: int) -> float:
        search = self.searches[i]
        return math.inf if len(search.found) == self.k - 1 else search.radius()

    def matching(self) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j, of a minimum-weight perfect matching
        of the terminal metric, certified by `certify`."""
        for _round in range(self.k * self.k):
            solver = _Blossom(self.k, [(i, j, d) for (i, j), d
                                       in sorted(self.candidates.items())])
            mate = solver.solve()
            if mate is None:
                # no perfect matching among the candidates: widen the
                # searches of the stalled forest's S vertices, and let
                # the matching see every pair found so far
                for i in solver.stuck:
                    search = self.searches[i]
                    search.grow(count=len(search.found) + K_NEAREST)
                    self._note(i)
                if len(self.known) == len(self.candidates):
                    raise CertificationError("candidate pairs admit no perfect matching")
                self.candidates = dict(self.known)
                continue
            for i, search in enumerate(self.searches):
                if self.radius(i) < solver.y[i]:
                    search.grow(bound=solver.y[i])
                    self._note(i)
            violated = [p for p, d in self.known.items()
                        if p not in self.candidates
                        and solver.pair_slack(*p, d) < 0]
            if not violated:
                self.certify(solver)
                return [(i, j) for i, j in enumerate(mate) if i < j]
            self.candidates.update((p, self.known[p]) for p in violated)
        raise CertificationError("pricing did not converge")

    def certify(self, solver: _Blossom) -> None:
        """The final duals are feasible for every pair found, and every
        search reaches its pricing radius, so they are feasible for all
        pairs and the matching is optimal on the whole metric."""
        for i in range(self.k):
            if self.radius(i) < solver.y[i]:
                raise CertificationError("a terminal's search stops short of "
                                         "its pricing radius")
        for (i, j), d in self.known.items():
            if solver.pair_slack(i, j, d) < 0:
                raise CertificationError("pricing left a violated terminal pair")


def _trace_path(adj, dist, settle, a: int, b: int) -> set[int]:
    """Canonical shortest a-b path (edge indices) in the Dijkstra tree of
    b given by `dist` and `settle` (both keyed by settled node).

    Ties break deterministically: each node's parent toward b is the
    smallest (node, edge) among neighbours settled earlier on a shortest
    path, which stays well-defined even on zero-weight cycles.  Parents
    are found only for the nodes on the path.
    """
    if a not in dist:
        raise CertificationError("matched terminal not reached")
    path: set[int] = set()
    x = a
    while x != b:
        dx, sx = dist[x], settle[x]
        x, i = min((y, i) for y, w, i in adj[x]
                   if y in settle and settle[y] < sx and dx == w + dist[y])
        path.add(i)
    return path
