import dataclasses
import importlib
import random
import warnings

import pytest

from cutpoly import (GeneratorSpec, Graph, blocks, brute_hull, classify, cli,
                     format_graph, gen_k33free, has_minor, k33_decompose,
                     maxcut_bruteforce, minors, parse_graph, polytope, spqr)
from cutpoly.cli import main
from cutpoly.maxcut import EliminationState
from helpers import complete, cycle, double_k5, k33, path, run_python, \
    stacked_triangulation

classify_mod = importlib.import_module("cutpoly.classify")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k5_file(tmp_path):
    f = tmp_path / "k5.cut"
    f.write_text(format_graph(complete(5)))
    return str(f)


def test_maxcut_command(k5_file, capsys):
    code, out, _ = run_cli(["maxcut", k5_file], capsys)
    assert code == 0 and out == "value 6\n"


def test_maxcut_witness_and_brute(k5_file, capsys):
    code, out, _ = run_cli(["maxcut", k5_file, "--witness"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 6" and lines[1].startswith("side ")
    side = [int(x) for x in lines[1].split()[1:]]
    assert all(1 <= v <= 5 for v in side)
    code, out2, _ = run_cli(["maxcut", k5_file, "--brute"], capsys)
    assert code == 0 and out2.splitlines()[0] == "value 6"


def test_decompose_output_format(tmp_path, capsys):
    f = tmp_path / "g.cut"
    f.write_text(format_graph(double_k5()))
    code, out, _ = run_cli(["decompose", str(f)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("node ")) == 2
    assert all("kind=R" in l for l in lines if l.startswith("node "))
    assert sum(1 for l in lines if l.startswith("tree ")) == 1
    assert "via" in [l for l in lines if l.startswith("tree ")][0]


def test_facets_header_and_rows(k5_file, capsys):
    code, out, _ = run_cli(["facets", k5_file], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim 10 count 56"
    assert len(lines) == 57
    for row in lines[1:]:
        lhs, rhs = row.split("<=")
        assert len(lhs.split()) == 10
        int(rhs)


def test_classify_command(tmp_path, capsys):
    f = tmp_path / "c4.cut"
    f.write_text(format_graph(cycle(4)))
    code, out, _ = run_cli(["classify", str(f)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "simple no"
    assert lines[2] == "simplicial yes"
    assert lines[1].startswith("reason ") and lines[3].startswith("reason ")


@pytest.mark.parametrize("text, nodes", [
    ("p cut 7 4\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 5 2 1\n", (2, 3, 4, 5)),
    ("p cut 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 1 1\n", (1, 2, 3, 4))])
def test_classify_names_the_c4_block_by_input_ids(text, nodes, tmp_path,
                                                  capsys):
    """The C4-minor block is named by the file's 1-indexed node ids, with
    isolated nodes or without, and the report's witness by g's own ids."""
    f = tmp_path / "c4.cut"
    f.write_text(text)
    code, out, _ = run_cli(["classify", str(f)], capsys)
    assert code == 0 and out.splitlines()[1] == (
        f"reason block on nodes {nodes} is neither an edge nor a triangle "
        "(C4 minor)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = classify(parse_graph(text))
    assert rep.c4_witness == tuple(v - 1 for v in nodes)


# stdout of each command on graphs without edges, or with several
# components and isolated nodes (nodes 6 and 8 here)
EDGE_CASES = {
    "p cut 0 0\n": {
        "maxcut": "value 0\nside\n",
        "facets": "dim 0 count 0\n",
        "classify": "simple yes\nreason trivial polytope\nsimplicial yes\n"
                    "reason trivial polytope\n",
        "verify": "maxcut ok value 0\nfacets ok count 0\n"
                  "classify ok simple=yes simplicial=yes\n"},
    "p cut 3 0\n": {
        "maxcut": "value 0\nside\n",
        "facets": "dim 0 count 0\n",
        "classify": "simple yes\nreason trivial polytope\nsimplicial yes\n"
                    "reason trivial polytope\n",
        "verify": "maxcut ok value 0\nfacets ok count 0\n"
                  "classify ok simple=yes simplicial=yes\n"},
    "p cut 8 5\ne 1 3 2\ne 3 4 -1\ne 2 5 3\ne 5 7 1\ne 2 7 4\n": {
        "maxcut": "value 9\nside 2 3 4\n",
        "facets": "dim 5 count 8\n-1 0 0 0 0 <= 0\n0 -1 0 0 0 <= 0\n"
                  "0 0 -1 -1 1 <= 0\n0 0 -1 1 -1 <= 0\n0 0 1 -1 -1 <= 0\n"
                  "0 0 1 1 1 <= 2\n0 1 0 0 0 <= 1\n1 0 0 0 0 <= 1\n",
        "classify": "simple yes\nreason every block is an edge or a triangle"
                    "\nsimplicial no\nreason five or more non-isolated "
                    "nodes\n",
        "verify": "maxcut ok value 9\nfacets ok count 8\n"
                  "classify ok simple=yes simplicial=no\n"}}


@pytest.mark.parametrize("text, command", [
    (text, command) for text in EDGE_CASES for command in EDGE_CASES[text]])
def test_edge_case_graphs_print_exact_output(text, command, tmp_path, capsys):
    f = tmp_path / "g.cut"
    f.write_text(text)
    argv = ["maxcut", "--brute", "--witness"] if command == "maxcut" \
        else [command]
    code, out, _ = run_cli([*argv, str(f)], capsys)
    assert code == 0 and out == EDGE_CASES[text][command]


def _value_one_more(g):
    res = maxcut_bruteforce(g)
    return dataclasses.replace(res, value=res.value + 1)


@pytest.mark.parametrize("owner, name, fake, line", [
    (cli, "maxcut_bruteforce", _value_one_more, "maxcut MISMATCH 4 != 5"),
    (polytope, "brute_hull", lambda vectors: brute_hull(vectors)[1:],
     "facets MISMATCH 16 vs hull 15"),
    (cli, "hull_verdicts", lambda _vectors, _hull: (True, True),
     "classify MISMATCH against hull incidences")])
def test_verify_reports_each_stage_mismatch(owner, name, fake, line, tmp_path,
                                            monkeypatch, capsys):
    """An oracle that disagrees with its stage on C4 gives that stage's
    mismatch line and exit 1."""
    f = tmp_path / "c4.cut"
    f.write_text(format_graph(cycle(4)))
    monkeypatch.setattr(owner, name, fake)
    code, out, _ = run_cli(["verify", str(f)], capsys)
    assert code == 1 and line in out.splitlines()


def test_verify_skips_stages_past_the_cut_enumeration_guard(tmp_path, capsys):
    """On 25 nodes both enumerations refuse, and verify reports each
    guard word for word and exits 0."""
    f = tmp_path / "wide.cut"
    f.write_text("p cut 25 1\ne 1 2 5\n")
    code, out, _ = run_cli(["verify", str(f)], capsys)
    assert code == 0 and out.splitlines() == [
        "maxcut skipped (maxcut_bruteforce guard: node_count <= 24)",
        "facets skipped (enumerate_cuts guard: node_count <= 24)",
        "classify ok simple=yes simplicial=yes"]


@pytest.mark.parametrize("command, out", [
    ("classify", ["simple yes", "reason every block is an edge or a triangle",
                  "simplicial yes", "reason isomorphic to K2"]),
    ("verify", ["maxcut ok value 5", "facets ok count 2",
                "classify ok simple=yes simplicial=yes"])])
def test_isolated_node_warning_is_one_line(command, out, tmp_path):
    """In a fresh process, with Python's own warning display, an isolated
    node costs one line of stderr and changes neither stdout nor the exit
    code."""
    f = tmp_path / "isolated.cut"
    f.write_text("p cut 3 1\ne 1 2 5\n")
    proc = run_python("-m", "cutpoly.cli", command, str(f))
    assert proc.returncode == 0 and proc.stdout.splitlines() == out
    assert proc.stderr == \
        "warning: isolated nodes dropped before classification\n"


def test_verify_ok_and_facet_file_round_trip(k5_file, tmp_path, capsys):
    code, out, _ = run_cli(["verify", k5_file], capsys)
    assert code == 0
    assert "maxcut ok value 6" in out
    assert "facets ok count 56" in out
    facet_file = tmp_path / "facets.txt"
    code, out, _ = run_cli(["facets", k5_file, "--out", str(facet_file)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", k5_file, "--facets", str(facet_file)],
                           capsys)
    assert code == 0 and "facets ok" in out


def test_verify_c4_reports_16_facets(tmp_path, capsys):
    f = tmp_path / "c4.cut"
    f.write_text(format_graph(cycle(4)))
    code, out, _ = run_cli(["verify", str(f)], capsys)
    assert code == 0
    assert "facets ok count 16" in out
    assert "maxcut ok value 4" in out


def test_verify_corrupted_facet_file(k5_file, tmp_path, capsys):
    facet_file = tmp_path / "facets.txt"
    run_cli(["facets", k5_file, "--out", str(facet_file)], capsys)
    text = facet_file.read_text().replace("<= 6", "<= 5", 1)
    facet_file.write_text(text)
    code, out, _ = run_cli(["verify", k5_file, "--facets", str(facet_file)],
                           capsys)
    assert code == 1 and "MISMATCH" in out


@pytest.mark.parametrize("edit", [
    lambda lines: lines[1:],  # no header
    lambda lines: ["dim 10 count 55", *lines[1:]],  # a wrong count
    lambda lines: [lines[0], lines[1].split(" ", 1)[1], *lines[2:]],  # short
])
def test_verify_malformed_facet_file_is_an_input_error(edit, k5_file, tmp_path,
                                                        capsys):
    facet_file = tmp_path / "facets.txt"
    run_cli(["facets", k5_file, "--out", str(facet_file)], capsys)
    lines = facet_file.read_text().splitlines()
    assert lines[0] == "dim 10 count 56"
    facet_file.write_text("\n".join(edit(lines)) + "\n")
    code, out, err = run_cli(["verify", k5_file, "--facets", str(facet_file)],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("input error: facet file")


def test_exit_code_unsupported(tmp_path, capsys):
    f = tmp_path / "k33.cut"
    f.write_text(format_graph(k33()))
    code, _, err = run_cli(["maxcut", str(f)], capsys)
    assert code == 3 and "unsupported" in err
    f2 = tmp_path / "path.cut"
    f2.write_text(format_graph(path(4)))
    code, _, err = run_cli(["decompose", str(f2)], capsys)
    assert code == 3


def test_verify_k33_runs_every_stage(tmp_path, capsys):
    f = tmp_path / "k33.cut"
    f.write_text(format_graph(k33()))
    code, out, _ = run_cli(["verify", str(f)], capsys)
    lines = out.splitlines()
    assert code == 0 and "MISMATCH" not in out
    assert lines[0] == "maxcut skipped (K33 minor)"
    assert sum(l.startswith("facets ok") for l in lines) == 1
    assert sum(l.startswith("classify ok") for l in lines) == 1


def test_internal_error_exit_code(k5_file, monkeypatch, capsys):
    def broken(_g):
        raise AssertionError("witness does not match value")

    monkeypatch.setattr(cli, "solve_maxcut", broken)
    code, out, err = run_cli(["maxcut", k5_file], capsys)
    assert code == 4 and out == ""
    assert err.startswith("internal error: AssertionError")


def test_certification_error_exit_code(tmp_path, monkeypatch, capsys):
    # a projection that never drops its variable fails the final check
    f = tmp_path / "double_k5.cut"
    f.write_text(format_graph(double_k5()))
    monkeypatch.setattr(polytope, "fourier_motzkin_project",
                        lambda system, _idx: system)
    code, out, err = run_cli(["facets", str(f)], capsys)
    assert code == 4 and out == ""
    assert err.startswith("internal error: CertificationError")


def test_wrong_witness_exit_code(k5_file, monkeypatch, capsys):
    # a witness that crosses no edge fails its re-costing
    finish = EliminationState.finish

    def wrong(self):
        total, _edges = finish(self)
        return total, []

    monkeypatch.setattr(EliminationState, "finish", wrong)
    code, out, err = run_cli(["maxcut", k5_file, "--witness"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("internal error: CertificationError")


def test_verify_unsupported_class(tmp_path, capsys):
    f = tmp_path / "k6.cut"
    f.write_text(format_graph(complete(6)))
    code, _, err = run_cli(["verify", str(f)], capsys)
    assert code == 3 and "unsupported" in err


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cut"
    bad.write_text("e 1 1 2\n")
    code, _, err = run_cli(["maxcut", str(bad)], capsys)
    assert code == 2 and "input error" in err
    code, _, err = run_cli(["maxcut", str(tmp_path / "missing.cut")], capsys)
    assert code == 2


def test_gen_deterministic_and_round_trip(capsys):
    code, out1, _ = run_cli(["gen", "--seed", "42"], capsys)
    code2, out2, _ = run_cli(["gen", "--seed", "42"], capsys)
    assert code == code2 == 0 and out1 == out2
    g = parse_graph(out1)
    assert g.node_count > 0
    code, out3, _ = run_cli(["gen", "--seed", "43"], capsys)
    assert out3 != out1


def test_gen_options_and_verify_round_trip(tmp_path, capsys):
    f = tmp_path / "gen.cut"
    code, _, _ = run_cli(["gen", "--seed", "7", "--components", "2",
                          "--non-strict", "--delete-prob", "1/8",
                          "--weights=-5:5", "--out", str(f)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", str(f)], capsys)
    assert code == 0, out


def test_console_script_installed():
    proc = run_python("-m", "cutpoly.cli", "--help")
    # argparse prints usage and exits 0 for --help
    assert proc.returncode == 0 and "maxcut" in proc.stdout


def test_facets_same_without_asserts(tmp_path, capsys):
    """Certification is explicit code, so `python -O` prints what a plain
    run in this process prints."""
    double = tmp_path / "double_k5.cut"  # non-strict K5+K5: needs projection
    double.write_text(format_graph(double_k5()))
    ear = tmp_path / "k5_ear.cut"  # small enough for the hull oracle
    ear.write_text(format_graph(Graph(6, list(complete(5).edges)
                                      + [(0, 5, 2), (1, 5, -1)])))
    tri = tmp_path / "tri16.cut"  # its dual T-join shrinks blossoms
    tri.write_text(format_graph(stacked_triangulation(16, random.Random(1))))
    for args, head in ((["facets", str(double)], "dim 18 count "),
                       (["maxcut", "--witness", str(double)], "value 12\n"),
                       (["maxcut", "--witness", str(tri)], "value 28\n"),
                       (["verify", str(ear)], "maxcut ok value ")):
        code, plain, _err = run_cli(args, capsys)
        optimized = run_python("-O", "-m", "cutpoly.cli", *args)
        assert code == optimized.returncode == 0, args
        assert plain.startswith(head), plain
        assert optimized.stdout == plain


# each certificate of an SPR tree, broken by a pass that hands back wrong
# components: an original edge with another weight, a pair id held once,
# a K5 called a cycle, a 5-cycle called R, two skeletons joined by two
# pairs, and two adjacent cycles
SPR_CHECKS = """
from cutpoly import CertificationError, spqr
c5 = [(i, (i + 1) % 5, 1) for i in range(5)]
k5 = [(u, v, 1) for u in range(5) for v in range(u + 1, 5)]
bond = [(0, 1, w) for w in range(4)]

def orig(edges, *ids):
    return [(edges[i][0], edges[i][1], ("orig", i, edges[i][2])) for i in ids]

def virt(u, v, pid):
    return u, v, ("virt", pid)

def two_cycles(pid_a, pid_b):
    return [("S", [0, 1, 2], orig(c5, 0, 1) + [virt(0, 2, pid_a)]),
            ("S", [0, 2, 3, 4], orig(c5, 2, 3, 4) + [virt(0, 2, pid_b)])]

cases = [
    (c5, [("S", [0, 1, 2, 3, 4], orig(c5, 0, 1, 2, 3) + [(4, 0, ("orig", 4, 2))])]),
    (c5, two_cycles(7, 8)),
    (k5, [("S", [0, 1, 2, 3, 4], orig(k5, *range(10)))]),
    (c5, [("R", [0, 1, 2, 3, 4], orig(c5, *range(5)))]),
    (bond, [("P", [0, 1], orig(bond, 0, 1) + [virt(0, 1, 7), virt(0, 1, 8)]),
            ("P", [0, 1], orig(bond, 2, 3) + [virt(0, 1, 7), virt(0, 1, 8)])]),
    (c5, two_cycles(7, 7)),
]
for edges, comps in cases:
    spqr._triconnected_components = lambda n, e, comps=comps: comps
    try:
        spqr._tree(len({x for e in edges for x in e[:2]}), edges)
    except CertificationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_spr_checks_raise_without_asserts(flags):
    proc = run_python(*flags, "-c", SPR_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "skeletons must recompose the input",
        "virtual pair id must occur in exactly two skeletons",
        "S skeleton of the wrong shape",
        "R skeleton is not 3-connected",
        "skeletons must form a tree",
        "same-kind adjacency"]


# the invariants of the MaxCut leaf elimination that its witness replay
# relies on, each broken on a fresh state of a 3-piece strict 2-sum
ELIMINATION_INVARIANTS = """
import importlib
from cutpoly import (CertificationError, GeneratorSpec, Graph,
                     decompose_blocks, gen_k33free)
from cutpoly.maxcut import EliminationState
maxcut_mod = importlib.import_module("cutpoly.maxcut")
(block,) = decompose_blocks(gen_k33free(GeneratorSpec(seed=1,
                                                      component_count=3)))

def tree_edge_without_virtual(s):
    leaf = s.eligible_leaves()[0]
    (nbr, _pid), = s.adj[leaf].items()
    s.adj[leaf][nbr] = -1  # a pair id no skeleton holds
    s.eliminate(leaf)

def no_leaf(s):
    s.kind = {v: "P" for v in s.kind}
    s.run()

def side_breaking_the_forced_edge(s):
    # the empty side cuts no edge, so beta+ loses its forced edge
    real = maxcut_mod._best_sides
    maxcut_mod._best_sides = lambda g, forceds: [(0, 0)] * len(forceds)
    try:
        s.eliminate(s.eligible_leaves()[0])
    finally:
        maxcut_mod._best_sides = real

def stored_graph_out_of_order(s):
    # an R skeleton's stored graph listing its pairs in reverse
    sid, (cls, emb, sg) = next(iter(s.r_skeletons.items()))
    s.r_skeletons = {**s.r_skeletons,
                     sid: (cls, emb, Graph(sg.node_count, sg.edges[::-1]))}
    s.run()

for breaking in (tree_edge_without_virtual, EliminationState.finish,
                 no_leaf, side_breaking_the_forced_edge,
                 stored_graph_out_of_order):
    try:
        breaking(EliminationState(block))
    except CertificationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_elimination_invariants_raise_without_asserts(flags):
    proc = run_python(*flags, "-c", ELIMINATION_INVARIANTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "leaf must hold a virtual edge for its tree edge",
        "finish() before the tree is down to one node",
        "tree with >1 node must have an S/R leaf",
        "witness does not respect the forced edge",
        "skeleton edges left the embedding's order"]


# classify's non-simplicity certificate needs every chordless cycle: C4
# without its one cycle leaves edges uncovered, and K4 with every cycle
# listed twice repeats a facet
BROKEN_CYCLES = """
import importlib, sys
from cutpoly import cli
classify = importlib.import_module("cutpoly.classify")
real = classify.chordless_cycles
classify.chordless_cycles = {patch}
sys.exit(cli.main(["classify", sys.argv[1]]))
"""


@pytest.mark.parametrize("graph, patch", [
    (cycle(4), "lambda g: real(g)[1:]"),
    (complete(4), "lambda g: [c for c in real(g) for _ in (0, 1)]"),
], ids=("dropped", "doubled"))
def test_classify_certificate_error_exit_code(graph, patch, tmp_path,
                                              monkeypatch, capsys):
    """The same patch exits 4 here and under `python -O`."""
    f = tmp_path / "g.cut"
    f.write_text(format_graph(graph))
    optimized = run_python("-O", "-c", BROKEN_CYCLES.format(patch=patch),
                           str(f))
    broken = eval(patch, {"real": classify_mod.chordless_cycles})
    monkeypatch.setattr(classify_mod, "chordless_cycles", broken)
    runs = [run_cli(["classify", str(f)], capsys),
            (optimized.returncode, optimized.stdout, optimized.stderr)]
    for code, out, err in runs:
        assert code == 4 and out == ""
        assert err.startswith("internal error: CertificationError")


def test_one_decomposition_per_block(tmp_path, capsys, monkeypatch):
    """On a non-strict 2-sum of a K5 and a triangulation, facets build
    one SPR-tree (the completed pieces are read off it) and run no
    whole-graph minor test; verify builds one SPR-tree per block.  Trees
    are counted at `_spr_tree`, which the public `spr_tree` and
    `decompose_blocks` both build them with."""
    g = gen_k33free(GeneratorSpec(seed=1, tri_size=(4, 5), strict=False))
    assert not k33_decompose(g).is_maximal and has_minor(g, "K5")
    f = tmp_path / "nonstrict.cut"
    f.write_text(format_graph(g))
    trees = []
    real = spqr._spr_tree

    def count(h):
        trees.append(h)
        return real(h)

    def refuse(*args):
        raise AssertionError("whole-graph minor test")

    monkeypatch.setattr(spqr, "_spr_tree", count)
    monkeypatch.setattr(minors, "has_minor", refuse)
    monkeypatch.setattr(spqr, "k33_decompose", refuse)
    code, _out, _err = run_cli(["facets", str(f)], capsys)
    assert code == 0 and len(trees) == 1
    trees.clear()
    code, out, _err = run_cli(["verify", str(f)], capsys)
    assert code == 0 and out.startswith("maxcut ok")
    assert len(trees) == sum(len(e) >= 3 for _n, e in blocks(g).blocks) == 1


def outcome(argv, capsys):
    """Exit code (returned or raised by argparse), stdout and stderr of
    one in-process `main` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_keeps_calls_independent(k5_file, tmp_path, capsys,
                                               monkeypatch):
    """`main` builds its parser once per process.  Argparse errors and
    input errors between valid calls leave no trace: each call gives the
    same exit code and output as when it runs alone on a fresh parser."""
    calls = [["maxcut", "--witness", k5_file],
             ["maxcut", "--no-such-flag", k5_file],
             ["decompose", k5_file],
             ["maxcut", str(tmp_path / "missing.cut")],
             ["facets", k5_file],
             [],
             ["verify", k5_file],
             ["gen", "--seed", "3", "--non-strict"],
             ["classify", "--out"],
             ["maxcut", k5_file]]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(outcome(argv, capsys))
    built = []
    real = cli.build_parser

    def build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    shared = [outcome(argv, capsys) for argv in calls]
    assert shared == alone and len(built) == 1
    assert [code for code, _out, _err in shared] == [0, 2, 0, 2, 0, 2, 0, 0,
                                                     2, 0]
    assert alone[0][1] == "value 6\nside 2 3\n"
