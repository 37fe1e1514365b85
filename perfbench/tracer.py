"""Outside-in tracing: wrap cutpoly's public functions from the outside.

A function is wrapped by rebinding every module attribute that holds it,
in every loaded `cutpoly` module, so that names imported with
`from .graphs import is_k_connected` are traced too; a method is wrapped
on its class.  Each call records one span (name, start, end, parent span,
instance) in memory, plus its arguments and result when a per-layer
count is derived from them.  Nothing under `src/` changes.

Self time of a span is its duration minus the durations of the spans
directly nested in it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function; span name "layer.function"
TARGETS = (
    ("graphs", "is_k_connected"), ("graphs", "blocks"),
    ("graphs", "parse_graph"), ("graphs", "chordless_cycles"),
    ("graphs", "cut_vectors"),
    ("spqr", "spr_tree"), ("spqr", "augment_with_parallel_originals"),
    ("spqr", "k33_decompose"), ("spqr", "maximal_completion"),
    ("planar", "planar_embed"), ("planar", "dual_graph"),
    ("tjoin", "min_weight_t_join"), ("tjoin", "min_weight_perfect_matching"),
    ("maxcut", "maxcut"), ("maxcut", "planar_maxcut"),
    ("maxcut", "maxcut_bruteforce"), ("maxcut", "EliminationState.eliminate"),
    ("minors", "has_minor"),
    ("polytope", "facet_description"), ("polytope", "fourier_motzkin_project"),
    ("polytope", "brute_hull"),
    ("classify", "classify"), ("classify", "brute_classify"),
    ("generate", "gen_k33free"),
)

# spans whose arguments and result feed a count
_KEEP_CALLS = {"spqr.spr_tree", "tjoin.min_weight_t_join",
               "tjoin.min_weight_perfect_matching",
               "polytope.fourier_motzkin_project"}

# self time for every traced function except the method (counted only)
# and the generator (set-up, reported per generated instance)
SELF_TIMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS
                   if "." not in attr and mod != "generate")
CALL_COUNTS = (
    "graphs.is_k_connected", "graphs.cut_vectors", "spqr.spr_tree",
    "planar.planar_embed", "tjoin.min_weight_t_join",
    "tjoin.min_weight_perfect_matching", "maxcut.planar_maxcut",
    "maxcut.eliminate", "minors.has_minor", "polytope.fourier_motzkin_project",
    "polytope.brute_hull",
)


class Tracer:
    """Span recorder; install() patches cutpoly, uninstall() restores it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, t0, t1, parent, instance)
        self.calls: list[tuple] = []  # (name, instance, args, kwargs, result)
        self.instance: int | None = None  # current instance, None in set-up
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = {name[len("cutpoly."):]: mod for name, mod in sys.modules.items()
                if name.startswith("cutpoly.")}
        loaded = [m for name, m in sys.modules.items()
                  if name == "cutpoly" or name.startswith("cutpoly.")]
        for modname, attr in TARGETS:
            owner, targets = mods[modname], loaded
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            name = f"{modname}.{attr}"
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._patches.append((target, key, orig))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches.clear()

    def _wrap(self, name: str, orig):
        spans, stack, calls = self.spans, self._stack, self.calls
        keep = name in _KEEP_CALLS
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.instance)
            if keep:
                calls.append((name, self.instance, args, kwargs, result))
            return result
        return wrapper

    def root(self, name: str, instance: int, fn, *args):
        """Run fn(*args) as the root span of one instance."""
        self.instance = instance
        return self._wrap(name, fn)(*args)

    def self_times(self) -> tuple[dict, Counter]:
        """Per (name, instance) self seconds, and span counts per name."""
        child = defaultdict(float)
        for name, t0, t1, parent, _inst in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict = defaultdict(float)
        counts: Counter = Counter()
        for idx, (name, t0, t1, _parent, inst) in enumerate(self.spans):
            own[name, inst] += t1 - t0 - child[idx]
            counts[name, inst] += 1
        return own, counts

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, inst in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, inst]) + "\n")


def _bound(args, kwargs, *names):
    """Positional-or-keyword arguments of a traced call, by parameter name."""
    return [args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names)]


def layer_metrics(tracer: Tracer, instances: set[int], generated: int,
                  speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced instances, normalised per instance
    (self times, calls, node and candidate counts) or per call (sizes).
    Self times are multiplied by `speed`, the machine speed over the
    reference speed."""
    own, counts = tracer.self_times()
    own = {key: v * speed for key, v in own.items()}
    k = max(1, len(instances))

    def per_inst(table, name):
        return sum(v for (n, i), v in table.items()
                   if n == name and i in instances) / k

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (per_inst(own, name), "s/inst")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (per_inst(counts, name), "calls/inst")
    out["cli.self_s"] = (per_inst(own, "cli"), "s/inst")
    out["generate.gen_k33free.self_s"] = (
        sum(v for (n, i), v in own.items()
            if n == "generate.gen_k33free" and i is None) / max(1, generated),
        "s/inst")

    trees: dict[int, dict] = defaultdict(dict)  # distinct graphs per instance
    kinds: Counter = Counter()
    terminals, t_calls, pairs, m_calls = 0, 0, 0, 0
    candidates, kept = 0, 0
    for name, inst, args, kwargs, result in tracer.calls:
        if inst not in instances:
            continue
        if name == "spqr.spr_tree":
            trees[inst][_bound(args, kwargs, "g")[0]] = result
        elif name == "tjoin.min_weight_t_join":
            terminals += len(set(_bound(args, kwargs, "node_count",
                                        "edges", "terminals")[2]))
            t_calls += 1
        elif name == "tjoin.min_weight_perfect_matching":
            pairs += len(result[0])
            m_calls += 1
        elif name == "polytope.fourier_motzkin_project":
            system, col = _bound(args, kwargs, "system", "edge_index")
            signs = Counter((q.coeffs[col] > 0) - (q.coeffs[col] < 0)
                            for q in system.inequalities)
            candidates += signs[0] + signs[1] * signs[-1]
            kept += len(result.inequalities)
    for per_inst_trees in trees.values():
        for tree in per_inst_trees.values():
            kinds.update(sn.kind for sn in tree.nodes)
    for kind in "SPR":
        out[f"spqr.nodes.{kind}"] = (kinds[kind] / k, "nodes/inst")
    out["tjoin.terminals"] = (terminals / max(1, t_calls), "terminals/call")
    out["tjoin.matching_size"] = (pairs / max(1, m_calls), "pairs/call")
    out["polytope.fm.candidates"] = (candidates / k, "ineqs/inst")
    out["polytope.fm.kept"] = (kept / k, "ineqs/inst")
    out["polytope.fm.kept_ratio"] = (kept / candidates if candidates else 0.0,
                                     "ratio")
    return out
