"""Self-test of the benchmark (about 15 s).

    python3 perfbench/selftest.py

1. A tiny configuration of every workload, plain and traced, prints
   exactly the metric names and units that BENCHMARK.json lists, and
   passes the gate.
2. Corrupted outputs (a flipped witness node, a dropped facet) fail the
   gate, so failed_frac rises above 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads as wls
from speed import SpeedProbe

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seconds", "0.3", "--pool", "3", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metric_names() -> None:
    want = {0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
            1: {m["name"]: m["unit"] for m in BENCH["per_layer"]}}
    for workload in wls.WORKLOADS:
        for trace in (0, 1):
            result = tiny_run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                raise AssertionError(f"{workload} --trace {trace}: metrics "
                                     f"differ from BENCHMARK.json: {diff}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                raise AssertionError(f"{workload}: tiny run failed {result}")
            print(f"PASS metric names and units {workload} --trace {trace}")


def flip_witness(inst: wls.Instance, out: str) -> str:
    """Move one node across the printed cut, choosing a node whose move
    changes the cut weight (so the output is no longer consistent)."""
    value_line, side_line = out.splitlines()
    side = {int(x) - 1 for x in side_line.split()[1:]}
    for v in range(inst.node_count):
        delta = sum(w if (a in side) == (b in side) else -w
                    for a, b, w in inst.edges if v in (a, b))
        if delta:
            side ^= {v}
            ids = " ".join(str(x + 1) for x in sorted(side))
            return f"{value_line}\nside {ids}\n"
    raise AssertionError("no node changes the cut weight")


def drop_facet(_inst: wls.Instance, out: str) -> str:
    head, *rows = out.splitlines()
    dim, m, count, _k = head.split()
    return "\n".join([f"{dim} {m} {count} {len(rows) - 1}", *rows[1:]]) + "\n"


def check_corruption_fails() -> None:
    sys.path.insert(0, str(run.SRC))
    for workload, mangle in (("maxcut-chain", flip_witness),
                             ("facets-nonstrict", drop_facet)):
        wl = wls.WORKLOADS[workload]
        prog, pool, _rej, paths, _setup = run.set_up(wl, wls.DEFAULT_SEED, 2,
                                                   SpeedProbe())
        refs = wls.load_refs(workload, wls.DEFAULT_SEED)
        runs = [run.call_cli(prog.main, i.index, [*wl.argv, paths[i.index]])
                for i in pool]
        failures, _ = run.gate(wl, pool, runs, refs, prog.brute)
        if failures:
            raise AssertionError(f"{workload}: clean outputs failed {failures}")
        runs[1].out = mangle(pool[1], runs[1].out)
        failures, changed = run.gate(wl, pool, runs, refs, prog.brute)
        if len(failures) != 1 or changed != {1}:
            raise AssertionError(f"{workload}: corrupted output passed the "
                                 f"gate ({failures}, changed {changed})")
        print(f"PASS {mangle.__name__} fails the gate: {failures[0]}")


if __name__ == "__main__":
    check_metric_names()
    check_corruption_fails()
    print("selftest ok")
