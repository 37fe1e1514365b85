"""Command-line front end.

Subcommands: maxcut, decompose, facets, classify, verify, gen.  All
graphs travel in the `p cut` text format; all numeric output is decimal.
Exit codes: 0 ok, 1 verification mismatch, 2 input error, 3 unsupported
graph class, 4 internal error (a failed internal check or any other bug).
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
import warnings

from .graphs import (Graph, NotTwoConnectedError, ParseError,
                     SizeLimitError, cut_vectors, format_graph, parse_graph)
from .classify import (classify as classify_graph, guarded_cut_vectors,
                       hull_verdicts)
from .generate import GeneratorSpec, gen_k33free
from .maxcut import (_decomposed_maxcut, maxcut as solve_maxcut,
                     maxcut_bruteforce)
from . import polytope as polytope_mod
from . import spqr as spqr_mod
from .spqr import K33MinorError

OK, MISMATCH, INPUT_ERROR, UNSUPPORTED, INTERNAL_ERROR = 0, 1, 2, 3, 4


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_maxcut(args) -> int:
    g = _read_graph(args.file)
    if args.brute:
        res = maxcut_bruteforce(g)
    else:
        res = solve_maxcut(g)
    lines = [f"value {res.value}"]
    if args.witness:
        side = " ".join(str(v + 1) for v in res.cut.side_nodes())
        lines.append(f"side {side}".rstrip())
    _emit(lines, args.out)
    return OK


def cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    tree = spqr_mod.spr_tree(g)
    lines = []
    for sn in tree.nodes:
        parts = []
        for e in sn.edges:
            if e.kind == "orig":
                parts.append(f"orig:{e.ref}({e.u + 1},{e.v + 1},{e.weight})")
            else:
                parts.append(f"virt:{e.ref}({e.u + 1},{e.v + 1})")
        nodes = ",".join(str(v + 1) for v in sn.nodes)
        lines.append(f"node {sn.id} kind={sn.kind} nodes={nodes} "
                     f"edges={' '.join(parts)}")
    for a, b, pid in sorted(tree.tree_edges, key=lambda t: t[2]):
        lines.append(f"tree {a} {b} via {pid}")
    _emit(lines, args.out)
    return OK


def cmd_facets(args) -> int:
    g = _read_graph(args.file)
    system = polytope_mod.facet_description(g)
    lines = [f"dim {len(g.edges)} count {len(system.inequalities)}"]
    for q in system.inequalities:
        lines.append(" ".join(str(c) for c in q.coeffs) + f" <= {q.rhs}")
    _emit(lines, args.out)
    return OK


def cmd_classify(args) -> int:
    g = _read_graph(args.file)
    rep = classify_graph(g)
    lines = [
        f"simple {'yes' if rep.simple else 'no'}",
        f"reason {rep.simple_reason}",
        f"simplicial {'yes' if rep.simplicial else 'no'}",
        f"reason {rep.simplicial_reason}",
    ]
    _emit(lines, args.out)
    return OK


def cmd_verify(args) -> int:
    g = _read_graph(args.file)
    lines: list[str] = []
    failed = False
    # the maxcut and facets stages share one decomposition of g's blocks;
    # the facets stage builds the hull when both stages' guards admit g,
    # and the classify stage reuses it
    decomposition = spqr_mod.decompose_blocks(g)
    vectors = hull = None

    try:
        exact = _decomposed_maxcut(g, decomposition)
        brute = maxcut_bruteforce(g)
        if exact.value != brute.value:
            failed = True
            lines.append(f"maxcut MISMATCH {exact.value} != {brute.value}")
        else:
            lines.append(f"maxcut ok value {exact.value}")
    except SizeLimitError as exc:
        lines.append(f"maxcut skipped ({exc})")
    except K33MinorError:
        lines.append("maxcut skipped (K33 minor)")

    try:
        system = polytope_mod._decomposed_facets(g, decomposition)
        if args.facets:
            with open(args.facets, "r", encoding="utf-8") as fh:
                expected = _parse_facet_file(fh.read(), len(g.edges))
            if expected != set(system.inequalities):
                failed = True
                lines.append("facets MISMATCH against provided file")
            else:
                lines.append(f"facets ok count {len(system.inequalities)}")
        elif len(g.edges) <= 12 and len(vectors := cut_vectors(g)) <= 64:
            hull = polytope_mod.brute_hull(vectors)
            if set(hull) != set(system.inequalities):
                failed = True
                lines.append(f"facets MISMATCH {len(system.inequalities)} "
                             f"vs hull {len(hull)}")
            else:
                lines.append(f"facets ok count {len(system.inequalities)}")
        else:
            lines.append("facets skipped (hull guard)")
    except SizeLimitError as exc:
        lines.append(f"facets skipped ({exc})")
    except K33MinorError:
        lines.append("facets skipped (K5 and K33 minors)")

    try:
        rep = classify_graph(g)
        if hull is None:
            vectors = guarded_cut_vectors(g)
            hull = polytope_mod.brute_hull(vectors)
        bs, bsl = hull_verdicts(vectors, hull)
        if (rep.simple, rep.simplicial) != (bs, bsl):
            failed = True
            lines.append("classify MISMATCH against hull incidences")
        else:
            lines.append(f"classify ok simple={'yes' if bs else 'no'} "
                         f"simplicial={'yes' if bsl else 'no'}")
    except SizeLimitError as exc:
        lines.append(f"classify skipped ({exc})")

    _emit(lines, args.out)
    return MISMATCH if failed else OK


def _parse_facet_file(text: str, edge_count: int
                      ) -> set[polytope_mod.LinearInequality]:
    """The inequalities of a `facets` output, whose `dim <m> count <k>`
    header must give the graph's edge count and the file's row count."""
    head, *lines = text.splitlines() or [""]
    rows = [(no, line) for no, line in enumerate(lines, 2) if line.strip()]
    if head.split() != ["dim", str(edge_count), "count", str(len(rows))]:
        raise ParseError(f"facet file line 1: {head!r} is not the header "
                         f"'dim {edge_count} count {len(rows)}'")
    out = set()
    for no, line in rows:
        lhs, rhs = line.split("<=")
        coeffs = tuple(int(c) for c in lhs.split())
        if len(coeffs) != edge_count:
            raise ParseError(f"facet file line {no}: {len(coeffs)} "
                             f"coefficients for {edge_count} edges")
        out.add(polytope_mod.LinearInequality.canonical(coeffs, int(rhs)))
    return out


def cmd_gen(args) -> int:
    lo, hi = (int(x) for x in args.weights.split(":"))
    tlo, thi = (int(x) for x in args.tri_size.split(":"))
    num, den = (int(x) for x in args.delete_prob.split("/"))
    spec = GeneratorSpec(
        seed=args.seed,
        component_count=args.components,
        kinds=tuple(args.kinds.split(",")),
        tri_size=(tlo, thi),
        strict=not args.non_strict,
        deletion_prob=(num, den),
        weight_range=(lo, hi),
    )
    g = gen_k33free(spec)
    text = format_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cutpoly",
                                description="Exact MaxCut and cut-polytope "
                                            "toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("maxcut", help="solve MaxCut exactly")
    q.add_argument("file")
    q.add_argument("--brute", action="store_true",
                   help="use the enumeration oracle instead of the solver")
    q.add_argument("--witness", action="store_true",
                   help="print one optimal side (1-indexed nodes)")
    q.add_argument("--out")
    q.set_defaults(func=cmd_maxcut)

    q = sub.add_parser("decompose", help="print the SPR-tree")
    q.add_argument("file")
    q.add_argument("--out")
    q.set_defaults(func=cmd_decompose)

    q = sub.add_parser("facets", help="print the complete facet description")
    q.add_argument("file")
    q.add_argument("--out")
    q.set_defaults(func=cmd_facets)

    q = sub.add_parser("classify", help="simple/simplicial classification")
    q.add_argument("file")
    q.add_argument("--out")
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("verify", help="cross-check solvers against oracles")
    q.add_argument("file")
    q.add_argument("--facets", help="facet file to compare against")
    q.add_argument("--out")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("gen", help="generate a K33-minor-free instance")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--components", type=int, default=2)
    q.add_argument("--kinds", default="k5,triangulation")
    q.add_argument("--tri-size", default="4:6")
    q.add_argument("--non-strict", action="store_true")
    q.add_argument("--delete-prob", default="0/1")
    q.add_argument("--weights", default="-10:10",
                   help="weight range, as --weights=LO:HI when LO < 0")
    q.add_argument("--out")
    q.set_defaults(func=cmd_gen)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, so
    in-process callers share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # a library warning is one line of stderr, not Python's display
            warnings.showwarning = lambda message, *_where: print(
                f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        if isinstance(exc, (K33MinorError, NotTwoConnectedError)):
            print(f"unsupported graph class: {exc}", file=sys.stderr)
            return UNSUPPORTED
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
