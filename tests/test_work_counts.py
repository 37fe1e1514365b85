"""Work counts of the layers around the matching, by monkeypatched
counters and never by timing.  Each count is checked on a small and a
larger instance, so a bound that held only at one size shows up."""

import itertools
import random

import pytest

from cutpoly import (Graph, brute_hull, cut_vectors, dual_graph,
                     is_k_connected, planar_embed, spr_tree)
from cutpoly import graphs as graphs_mod
from cutpoly import polytope, spqr
from cutpoly import tjoin as tjoin_mod
from helpers import complete, stacked_triangulation, verify_small_pool

SIZES = (24, 80)


def counting(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that appends its arguments to log."""
    real = getattr(owner, name)

    def wrapper(*args):
        log.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("n", SIZES)
def test_spr_tree_of_triangulation_sweeps_once(n, monkeypatch):
    """A 3-connected stacked triangulation is one R skeleton: spr_tree
    builds no Graph per node, calls `blocks` on no G-v, and sweeps G and
    each G-v exactly once, the kind re-check included."""
    g = stacked_triangulation(n, random.Random(n))
    assert is_k_connected(g, 3)
    built, block_calls, sweeps = [], [], []
    counting(monkeypatch, Graph, "__init__", built)
    counting(monkeypatch, graphs_mod, "blocks", block_calls)
    counting(monkeypatch, spqr, "blocks", block_calls)
    counting(monkeypatch, spqr, "masked_cut_nodes", sweeps)
    tree = spr_tree(g)
    assert [sn.kind for sn in tree.nodes] == ["R"]
    assert len(built) <= 2
    assert all(h.node_count == n for (h,) in block_calls)
    assert sorted(v for _adj, v in sweeps if v is not None) == list(range(n))
    assert len(sweeps) == n + 1


@pytest.mark.parametrize("n", SIZES)
def test_tjoin_traces_only_matched_pairs(n, monkeypatch):
    """The dual of a triangulation has every face as a terminal; of the
    k(k-1)/2 terminal pairs only the k/2 matched ones are traced."""
    d = dual_graph(planar_embed(stacked_triangulation(n, random.Random(n))))
    rnd = random.Random(7)
    edges = [(a, b, rnd.randint(0, 9)) for a, b, _i, _w in d.edges]
    terminals = list(range(d.node_count))  # every face has degree 3
    traced = []
    counting(monkeypatch, tjoin_mod, "_trace_path", traced)
    tjoin_mod.min_weight_t_join(d.node_count, edges, terminals)
    assert len(terminals) == 2 * n - 4
    assert len(traced) == len(terminals) // 2


def first_verify_m12() -> Graph:
    """The first 12-edge graph of the benchmark's verify-small pool."""
    return next(g for g in verify_small_pool(1) if len(g.edges) == 12)


@pytest.mark.parametrize("graph", [lambda: complete(5), first_verify_m12],
                         ids=("K5", "verify-m12"))
def test_dd_cone_multiplies_each_row_with_each_live_ray_once(graph,
                                                             monkeypatch):
    """Each row added after the starting basis is multiplied once with
    every ray live at that step and with nothing else, so no combined
    ray's tight set is recomputed by products."""
    products, calls = [], []
    real_dot, real_cone = polytope._dot, polytope._dd_cone

    def dot(row, vec):
        products.append((tuple(row), vec, real_dot(row, vec)))
        return products[-1][2]

    def cone(rows):
        calls.append((rows, real_cone(rows)))
        return calls[-1][1]

    monkeypatch.setattr(polytope, "_dot", dot)
    monkeypatch.setattr(polytope, "_dd_cone", cone)
    brute_hull(cut_vectors(graph()))
    [(rows, result)] = calls
    steps: dict[tuple[int, ...], dict] = {}  # row -> {ray: product}
    for row, vec, val in products:
        assert vec not in steps.setdefault(row, {})
        steps[row][vec] = val
    # one contiguous step per non-basis row, in row order
    order = [tuple(r) for r in rows if tuple(r) in steps]
    assert [row for row, _ in itertools.groupby(r for r, _v, _x in products)] \
        == order
    assert len(steps) == len(rows) - len(rows[0])
    # every step sees the survivors of the last one, and no dropped ray
    live, dropped = set(), set()
    for vals in steps.values():
        assert live <= vals.keys() and not dropped & vals.keys()
        live = {v for v, val in vals.items() if val <= 0}
        dropped |= vals.keys() - live
    assert live <= set(result) and not dropped & set(result)
