"""The dense blossom matching as it stood before the sparse solver.

A frozen copy kept as a differential oracle: `DenseBlossom` scans the
full weight matrix at every step, starts every dual at the top weight and
keeps no least-slack edges, so it shares no search or pricing code with
`cutpoly.tjoin`.  `dense_matching` is the public entry point as it
stood, and `unique_optimum` tells whether a minimum-weight perfect
matching is the only one, which is where two exact solvers must agree
on the mates and not only on the value.
"""

from __future__ import annotations

from cutpoly import CertificationError, MatchingError


def dense_matching(
        weights: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Minimum-weight perfect matching on the complete graph K_n.

    `weights` is a full symmetric n x n matrix (diagonal ignored); n must
    be even.  Returns (sorted vertex pairs, total weight).
    """
    n = len(weights)
    if n == 0:
        return [], 0
    mate = DenseBlossom([[-weights[i][j] for j in range(n)]
                         for i in range(n)]).solve()
    pairs = sorted((i, j) for i, j in enumerate(mate) if i < j)
    total = sum(weights[i][j] for i, j in pairs)
    return pairs, total


def unique_optimum(weights: list[list[int]],
                   pairs: list[tuple[int, int]]) -> bool:
    """Whether `pairs`, a minimum-weight perfect matching, is the only one.

    Every weight is scaled by s = n/2 + 1 and each pair of `pairs` costs
    one more: another optimum then costs less than s * OPT + n/2, while
    any worse matching costs at least s * (OPT + 1).
    """
    n = len(weights)
    s = n // 2 + 1
    penalised = [[s * x for x in row] for row in weights]
    for i, j in pairs:
        penalised[i][j] += 1
        penalised[j][i] += 1
    best = sum(weights[i][j] for i, j in pairs)
    return dense_matching(penalised)[1] == s * best + len(pairs)


class DenseBlossom:
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
