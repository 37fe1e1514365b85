"""Workload families, instance generation and the correctness gate.

Every instance comes from `cutpoly.generate.gen_k33free`.  Draw `j` of a
workload with seed `S` uses generator seed `(S << 20) + j`, so a workload
seed pins the whole instance list.  Each workload keeps only draws inside
its family (the family filter) and stratifies the kept draws by shape
(node or edge count), cycling through a fixed list of shapes.  The
stratification gives every seed the same mix of instance sizes, so the
seed moves weights and structure but not the mix of cheap and costly
shapes (a K5+K5 facet instance costs about 500 times a planar one).
Where shape costs differ widely, the middle shape appears three times in
the cycle, so the median latency is the median of that shape's many
samples rather than a sample at the edge between two shapes.
Rejected draws are counted by reason so that the family stays visible.

The checks here use only the generated edge lists and the CLI's stdout;
they never call the solver whose answer they judge.  The one exception
is the brute-force MaxCut oracle, which the references are cross-checked
against wherever n <= 20.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"
DEFAULT_SEED = 1
BRUTE_MAX_NODES = 20
MAX_DRAWS_PER_INSTANCE = 1000


@dataclass(frozen=True)
class Instance:
    index: int
    node_count: int
    edges: tuple[tuple[int, int, int], ...]  # 0-based (u, v, w)
    text: str  # the `p cut` file the CLI reads

    @property
    def input_digest(self) -> str:
        return sha256(self.text)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments before the graph file
    kind: str  # "maxcut" | "facets" | "verify": which check applies
    pool_size: int
    strata: tuple[int, ...]
    spec: Callable  # (generator seed, stratum) -> GeneratorSpec keyword args
    shape: Callable  # graph -> the value matched against the stratum
    family: Callable  # graph -> rejection reason, or None when in the family


def _no_filter(g) -> str | None:
    return None


def _facets_family(g) -> str | None:
    return None if 7 <= g.node_count <= 8 else "n outside 7..8"


def _verify_family(g) -> str | None:
    if len(g.edges) > 12:
        return "m > 12"
    if g.node_count > 7:
        return "n > 7"
    return None


WORKLOADS = {w.name: w for w in (
    Workload(
        "maxcut-chain", ("maxcut", "--witness"), "maxcut", 64,
        strata=(31, 32, 33, 34),
        spec=lambda seed, _s: dict(seed=seed, component_count=10),
        shape=lambda g: g.node_count, family=_no_filter),
    Workload(
        "maxcut-tri", ("maxcut", "--witness"), "maxcut", 60,
        strata=(20, 21, 22, 23, 24),
        spec=lambda seed, n: dict(seed=seed, component_count=1,
                                  kinds=("triangulation",), tri_size=(n, n)),
        shape=lambda g: g.node_count, family=_no_filter),
    Workload(
        "facets-nonstrict", ("facets",), "facets", 60,
        strata=(18, 14, 13, 14, 17, 14, 16),
        spec=lambda seed, _s: dict(seed=seed, component_count=2,
                                   strict=False),
        shape=lambda g: len(g.edges), family=_facets_family),
    Workload(
        "verify-small", ("verify",), "verify", 100,
        strata=(8, 10, 9, 10, 11, 10, 12),
        spec=lambda seed, _s: dict(seed=seed, component_count=2,
                                   strict=False, deletion_prob=(1, 3)),
        shape=lambda g: len(g.edges), family=_verify_family),
)}


def make_pool(wl: Workload, seed: int, size: int, gen_k33free, spec_cls,
              format_graph) -> tuple[list[Instance], Counter]:
    """The first `size` kept draws of a workload, plus rejections by reason.

    The generator and formatter are passed in so the caller decides which
    import of cutpoly they come from (set-up re-imports it).
    """
    pool: list[Instance] = []
    rejected: Counter = Counter()
    draw = 0
    while len(pool) < size:
        if draw >= MAX_DRAWS_PER_INSTANCE * size:
            raise RuntimeError(f"{wl.name}: family filter rejects too much")
        stratum = wl.strata[len(pool) % len(wl.strata)]
        g = gen_k33free(spec_cls(**wl.spec((seed << 20) + draw, stratum)))
        draw += 1
        reason = wl.family(g)
        if reason is None and wl.shape(g) != stratum:
            reason = "shape stratum"
        if reason is not None:
            rejected[reason] += 1
            continue
        pool.append(Instance(len(pool), g.node_count, tuple(g.edges),
                             format_graph(g)))
    return pool, rejected


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- references ----------------------------------------------------------------

def refs_path(workload: str, seed: int) -> Path:
    return REFS_DIR / f"{workload}-seed{seed}.json"


def load_refs(workload: str, seed: int) -> list[dict] | None:
    path = refs_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())["instances"]


def write_refs(workload: str, seed: int, entries: list[dict],
               rejected: Counter) -> Path:
    path = refs_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    head = json.dumps({"workload": workload, "seed": seed,
                       "rejected": dict(sorted(rejected.items()))})
    rows = ",\n".join(json.dumps(e) for e in entries)  # one line per instance
    path.write_text(f'{head[:-1]}, "instances": [\n{rows}\n]}}\n')
    return path


# -- the correctness gate --------------------------------------------------------

class CheckFailed(Exception):
    """An output that fails the correctness gate."""


def cut_matrix(inst: Instance) -> np.ndarray:
    """All 2^(n-1) cut indicator vectors as rows (node 0 stays outside)."""
    n = inst.node_count
    masks = np.arange(1 << (n - 1), dtype=np.int64) << 1
    bits = (masks[:, None] >> np.arange(n)) & 1
    u = np.array([e[0] for e in inst.edges])
    v = np.array([e[1] for e in inst.edges])
    return bits[:, u] ^ bits[:, v]


def check_maxcut(inst: Instance, out: str) -> int:
    """Re-cost the printed side; returns the printed value."""
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("value ") \
            or lines[1].split()[:1] != ["side"]:
        raise CheckFailed(f"unexpected maxcut output {out[:80]!r}")
    value = int(lines[0].split()[1])
    ids = [int(x) for x in lines[1].split()[1:]]
    side = {x - 1 for x in ids}
    if len(side) != len(ids) or not side <= set(range(inst.node_count)):
        raise CheckFailed("witness side holds bad or repeated node ids")
    cost = sum(w for u, v, w in inst.edges if (u in side) != (v in side))
    if cost != value:
        raise CheckFailed(f"witness re-costs to {cost}, printed {value}")
    return value


def check_facets(inst: Instance, out: str) -> str:
    """Every row valid on all cuts and tight on an (m-1)-dimensional face;
    returns the digest of the inequality set."""
    lines = out.splitlines()
    m = len(inst.edges)
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[:3] != ["dim", str(m), "count"] \
            or int(head[3]) != len(lines) - 1:
        raise CheckFailed(f"bad facets header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        lhs, sep, rhs = line.partition("<=")
        coeffs = [int(c) for c in lhs.split()]
        if not sep or len(coeffs) != m:
            raise CheckFailed(f"bad facet row {line!r}")
        rows.append(coeffs + [int(rhs)])
    if not rows:
        raise CheckFailed("empty facet list")
    a = np.array(rows, dtype=np.int64)
    cuts = cut_matrix(inst)
    lhs = a[:, :m] @ cuts.T
    slack = a[:, m:] - lhs
    if (slack < 0).any():
        raise CheckFailed("a printed inequality cuts off a cut vector")
    for k in range(len(rows)):
        tight = cuts[slack[k] == 0]
        if len(tight) < m or np.linalg.matrix_rank(tight[1:] - tight[0]) != m - 1:
            raise CheckFailed(f"row {k} is valid but not a facet")
    return sha256("\n".join(sorted(lines[1:])))


def check_verify(out: str) -> None:
    lines = out.splitlines()
    want = ("maxcut ok", "facets ok", "classify ok")
    if len(lines) != 3 or any(not l.startswith(w) for l, w in zip(lines, want)):
        raise CheckFailed(f"verify reported {out!r}")


def reference_entry(wl: Workload, inst: Instance, rc: int, out: str,
                    brute: Callable | None) -> dict:
    """Check one output on its own terms and return its reference record.

    `brute` (instance -> optimum) is the program's brute-force MaxCut.
    When given, it is the independent oracle for MaxCut values on graphs
    with at most BRUTE_MAX_NODES nodes.
    """
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    value = None
    if wl.kind == "maxcut":
        value = check_maxcut(inst, out)
        if brute is not None and inst.node_count <= BRUTE_MAX_NODES:
            best = brute(inst)
            if best != value:
                raise CheckFailed(f"value {value}, brute force {best}")
    elif wl.kind == "facets":
        value = check_facets(inst, out)
    else:
        check_verify(out)
    return {"input": inst.input_digest, "stdout": sha256(out), "value": value}


def compare_to_ref(entry: dict, ref: dict) -> None:
    if entry["input"] != ref["input"]:
        raise CheckFailed("generated input differs from the reference input")
    if entry["value"] != ref["value"]:
        raise CheckFailed(f"value {entry['value']!s:.16} != reference "
                          f"{ref['value']!s:.16}")
