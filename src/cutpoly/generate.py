"""Deterministic instance generation.

The random source is xoshiro256** seeded through splitmix64, implemented
here so instances are reproducible from the seed alone, independent of
platform and Python version.  Generated graphs are K33-minor-free by
construction: 2-sums of K5 copies and stacked planar triangulations,
optionally non-strict, optionally thinned by connectivity-preserving edge
deletions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_WEIGHT, Graph, GraphError, disjoint_sets

_MASK = (1 << 64) - 1


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding (Blackman & Vigna)."""

    def __init__(self, seed: int):
        self.s = []
        x = seed & _MASK
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & _MASK
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            self.s.append(z ^ (z >> 31))

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & _MASK

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (self._rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n > 0")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.randrange(den) < num


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one K33-minor-free instance."""
    seed: int
    component_count: int = 2
    kinds: tuple[str, ...] = ("k5", "triangulation")  # pool to draw from
    tri_size: tuple[int, int] = (4, 6)
    strict: bool = True
    deletion_prob: tuple[int, int] = (0, 1)  # numerator, denominator
    weight_range: tuple[int, int] = (-10, 10)

    def validate(self) -> None:
        if self.component_count < 1:
            raise GraphError("need at least one component")
        if not self.kinds or any(k not in ("k5", "triangulation") for k in self.kinds):
            raise GraphError("kinds must be 'k5' and/or 'triangulation'")
        lo, hi = self.tri_size
        if lo < 4 or hi < lo:
            raise GraphError("triangulation size range must be 4 <= lo <= hi")
        num, den = self.deletion_prob
        if den <= 0 or num < 0 or num > den:
            raise GraphError("deletion probability must be a fraction in [0, 1]")
        lo, hi = self.weight_range
        if lo > hi:
            raise GraphError("empty weight range")
        if max(-lo, hi) > MAX_WEIGHT:
            raise GraphError(f"|weight| exceeds {MAX_WEIGHT}")


def _component_edges(rng: Xoshiro256StarStar, kind: str,
                     tri_size: tuple[int, int]) -> tuple[int, list[tuple[int, int]]]:
    if kind == "k5":
        return 5, [(u, v) for u in range(5) for v in range(u + 1, 5)]
    n = rng.randint(*tri_size)
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        f = faces.pop(rng.randrange(len(faces)))
        edges.extend([(f[0], v), (f[1], v), (f[2], v)])
        faces.extend([(f[0], f[1], v), (f[0], f[2], v), (f[1], f[2], v)])
    return n, edges


def gen_k33free(spec: GeneratorSpec) -> Graph:
    """Deterministic K33-minor-free instance for a GeneratorSpec."""
    spec.validate()
    rng = Xoshiro256StarStar(spec.seed)
    pairs: list[tuple[int, int]] = []
    n = 0
    for c in range(spec.component_count):
        kind = spec.kinds[rng.randrange(len(spec.kinds))]
        cn, cedges = _component_edges(rng, kind, spec.tri_size)
        if c == 0:
            n = cn
            pairs = list(cedges)
            continue
        # glue on a 2-sum: random edge here, random edge there
        ga, gb = pairs[rng.randrange(len(pairs))]
        ca, cb = cedges[rng.randrange(len(cedges))]
        if rng.chance(1, 2):
            ca, cb = cb, ca
        relabel = {ca: ga, cb: gb}
        for x in range(cn):
            if x not in relabel:
                relabel[x] = n
                n += 1
        existing = set(pairs)
        for u, v in cedges:
            ru, rv = relabel[u], relabel[v]
            key = (min(ru, rv), max(ru, rv))
            if key in existing:
                continue
            existing.add(key)
            pairs.append(key)
        if not spec.strict:
            pairs.remove((min(ga, gb), max(ga, gb)))
    # optional deletions, keeping the graph connected
    num, den = spec.deletion_prob
    if num:
        kept = list(pairs)
        for p in list(kept):
            if not rng.chance(num, den):
                continue
            trial = [q for q in kept if q != p]
            if len(disjoint_sets(n, trial)) <= 1:
                kept = trial
        pairs = kept
    lo, hi = spec.weight_range
    return Graph(n, [(u, v, rng.randint(lo, hi)) for u, v in pairs])
