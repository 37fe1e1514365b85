"""The blossom matching as it stood with exact `Fraction` duals.

A frozen copy kept as a differential oracle: the integer solver in
`cutpoly.tjoin` must pick the same mate for every vertex.  Its `_rotate`
is still recursive.
"""

from __future__ import annotations

from fractions import Fraction

from cutpoly import CertificationError, MatchingError


class FractionBlossom:
    """Maximum-weight perfect matching on a dense instance.

    Classic Edmonds primal-dual: grow alternating forests from unmatched
    vertices over tight edges, shrink odd cycles into blossoms, expand
    odd-side blossoms when their dual hits zero, adjust duals when stuck.
    Deltas are recomputed by full scans instead of slack caching: the
    instances here are small and the bookkeeping stays simple.
    """

    FREE, S, T = 0, 1, 2

    def __init__(self, w: list[list[int]]):
        self.n = n = len(w)
        self.w = w
        top = max(max(row) for row in w)
        self.y = [Fraction(top, 2) for _ in range(n)]
        self.mate = [-1] * n
        # blossom structure (ids >= n are nontrivial)
        self.parent: dict[int, int] = {v: -1 for v in range(n)}
        self.base: dict[int, int] = {v: v for v in range(n)}
        self.childs: dict[int, list[int]] = {}
        self.child_edges: dict[int, list[tuple[int, int]]] = {}
        self.z: dict[int, Fraction] = {}
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

    def slack(self, u: int, v: int) -> Fraction:
        return self.y[u] + self.y[v] - self.w[u][v]

    # -- phase machinery -------------------------------------------------

    def solve(self) -> list[int]:
        for _phase in range(self.n // 2):
            if all(m != -1 for m in self.mate):
                break
            self._run_phase()
        assert all(m != -1 for m in self.mate), "instance must be matchable"
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
        raise AssertionError("matching phase failed to converge")

    def _scan(self, queue: list[int]) -> tuple[int, int] | None:
        while queue:
            u = queue.pop()
            bu = self.surface(u)
            if self.label.get(bu) != self.S:
                continue
            for v in range(self.n):
                bv = self.surface(v)
                if bv == bu or self.slack(u, v) != 0:
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
        assert m != -1, "free non-root blossom must be matched"
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
        assert len(childs) % 2 == 1, "blossom cycle must be odd"
        nb = self.next_id
        self.next_id += 1
        for c in childs:
            self.parent[c] = nb
        self.parent[nb] = -1
        self.base[nb] = self.base[lca]
        self.childs[nb] = childs
        self.child_edges[nb] = edges
        self.z[nb] = Fraction(0)
        self.members[nb] = [x for c in childs for x in self.members[c]]
        self.label[nb] = self.S
        self.label_edge[nb] = self.label_edge[lca]
        for c in childs:
            if self.label.get(c) == self.T:
                queue.extend(self.members[c])

    def _rotate(self, b: int, v: int) -> None:
        """Make v the base of blossom b by flipping its internal matching."""
        if b < self.n:
            return
        childs = self.childs[b]
        edges = self.child_edges[b]
        k = len(childs)
        c = self.child_containing(b, v)
        i = childs.index(c)
        pairs = range(0, i, 2) if i % 2 == 0 else range(i + 1, k, 2)
        for j in pairs:
            x, ynode = edges[j]
            self._rotate(childs[j], x)
            self._rotate(childs[(j + 1) % k], ynode)
            self.mate[x] = ynode
            self.mate[ynode] = x
        self.childs[b] = childs[i:] + childs[:i]
        self.child_edges[b] = edges[i:] + edges[:i]
        self._rotate(c, v)
        self.base[b] = v

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
            assert x != -1
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
        lbl = [self.label[self.surface(v)] for v in range(self.n)]
        delta = None
        for u in range(self.n):
            if lbl[u] != self.S:
                continue
            for v in range(self.n):
                if v == u or self.surface(v) == self.surface(u):
                    continue
                if lbl[v] == self.FREE:
                    cand = self.slack(u, v)
                elif lbl[v] == self.S:
                    cand = self.slack(u, v) / 2
                else:
                    continue
                if delta is None or cand < delta:
                    delta = cand
        for b in self._surfaces():
            if b >= self.n and self.label[b] == self.T:
                cand = self.z[b] / 2
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
