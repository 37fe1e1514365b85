"""Work counts of the layers around the matching, by monkeypatched
counters and never by timing.  Each count is checked on a small and a
larger instance, so a bound that held only at one size shows up."""

import random

import pytest

from cutpoly import Graph, dual_graph, is_k_connected, planar_embed, spr_tree
from cutpoly import graphs as graphs_mod
from cutpoly import spqr
from cutpoly import tjoin as tjoin_mod
from helpers import stacked_triangulation

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
