"""Outside-in benchmark of the cutpoly command line.

    python3 perfbench/run.py --workload maxcut-chain [--seed 1] [--seconds 25] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --workload maxcut-tri --seed 7 --make-refs

One process runs one workload as a single closed-loop client: it calls
`cutpoly.cli.main([...])` in-process on one generated `p cut` file at a
time, with stdout captured, and starts the next instance only when the
previous one has returned.  Outputs are checked after the timed loop.
Times are reported at a fixed reference machine speed (see speed.py).
The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the metrics are the end-to-end ones, or with
`--trace 1` the per-layer ones.  The exit code is 0 only when every
output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import workloads as wls
from speed import SpeedProbe
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it


@dataclass
class Run:
    index: int  # pool index of the instance
    rc: int | str  # exit code, or the exception the CLI raised
    out: str
    latency: float


def load_program() -> SimpleNamespace:
    """Import cutpoly afresh from the checkout's src/ (earlier imports of
    cutpoly modules are dropped; third-party modules stay loaded)."""
    for name in [n for n in sys.modules
                 if n == "cutpoly" or n.startswith("cutpoly.")]:
        del sys.modules[name]
    import cutpoly.cli
    from cutpoly.generate import GeneratorSpec, gen_k33free
    from cutpoly.graphs import Graph, format_graph
    from cutpoly.maxcut import maxcut_bruteforce
    if not Path(cutpoly.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cutpoly imported from {cutpoly.__file__}, "
                          f"not from {SRC}")

    def brute(inst: wls.Instance) -> int:
        return maxcut_bruteforce(Graph(inst.node_count, list(inst.edges))).value

    return SimpleNamespace(main=cutpoly.cli.main, gen=gen_k33free,
                           spec=GeneratorSpec, fmt=format_graph, brute=brute)


def generate(prog, wl, seed: int, size: int):
    pool, rejected = wls.make_pool(wl, seed, size, prog.gen, prog.spec,
                                   prog.fmt)
    folder = WORK / wl.name
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in pool:
        path = folder / f"{inst.index}.cut"
        path.write_text(inst.text, encoding="utf-8")
        paths.append(str(path))
    return pool, rejected, paths


def set_up(wl, seed: int, size: int, probe: SpeedProbe):
    """Import plus instance generation, repeated; returns the last set-up
    and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prog = load_program()
        pool, rejected, paths = generate(prog, wl, seed, size)
        times.append(time.perf_counter() - t0)
        probe.sample(8)
    return prog, pool, rejected, paths, statistics.median(times)


def closed_loop(pool, seconds: float, step,
                probe: SpeedProbe) -> tuple[list, float]:
    """Call step(instance) on the pool in order, wrapping around, until
    `seconds` have passed, sampling the machine speed after each step;
    returns the results and the elapsed time outside the probe."""
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    probe_before = probe.seconds
    while True:
        results.append(step(pool[len(results) % len(pool)]))
        probe.sample()
        now = time.perf_counter()
        if now >= deadline:
            return results, now - start - (probe.seconds - probe_before)


def call_cli(main, index: int, argv: list[str]) -> Run:
    """One timed CLI call with stdout captured."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = main(argv)
    except Exception as exc:  # one failed instance must not end the run
        rc = f"raised {exc!r}"
    return Run(index, rc, buf.getvalue(), time.perf_counter() - t0)


def gate(wl, pool, runs: list[Run], refs, brute) -> tuple[list[str], set[int]]:
    """Failures (one message per failed run) and the pool indices whose
    stdout differs from the reference (or, without references, from the
    first output of the same instance in this run)."""
    verdicts: dict[tuple, str | None] = {}
    failures: list[str] = []
    changed: set[int] = set()
    first: dict[int, str] = {}
    for r in runs:
        key = (r.index, r.rc, r.out)
        if key not in verdicts:
            verdicts[key] = _judge(wl, pool[r.index], r, refs, brute)
        if verdicts[key]:
            failures.append(f"instance {r.index}: {verdicts[key]}")
        digest = wls.sha256(r.out)
        if refs is not None and r.index < len(refs):
            want = refs[r.index]["stdout"]
        else:
            want = first.setdefault(r.index, digest)
        if digest != want:
            changed.add(r.index)
    return failures, changed


def _judge(wl, inst, r: Run, refs, brute) -> str | None:
    ref = refs[r.index] if refs is not None and r.index < len(refs) else None
    try:
        entry = wls.reference_entry(wl, inst, r.rc, r.out,
                                    brute if ref is None else None)
        if ref is not None:
            wls.compare_to_ref(entry, ref)
    except (wls.CheckFailed, ValueError) as exc:
        return str(exc) or type(exc).__name__
    return None


def end_to_end(runs: list[Run], elapsed: float, setup_s: float,
               speed: float = 1.0) -> dict:
    """End-to-end metrics; times are multiplied by `speed`, the machine
    speed over the reference speed."""
    lat = sorted(r.latency * speed for r in runs)
    n = len(lat)
    tail = lat[-TAIL_BEYOND - 1] if n > TAIL_BEYOND else lat[-1]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (n / (elapsed * speed), "1/s"),
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.tail": (tail, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def tail_label(n: int) -> str:
    if n <= TAIL_BEYOND:
        return f"(max; only {n} samples, fewer than {TAIL_BEYOND + 1})"
    return f"(p{100 * (n - TAIL_BEYOND) / n:.1f}, {TAIL_BEYOND} of {n} samples beyond)"


def traced_run(prog, wl, seed, pool, paths, seconds, refs, probe):
    """Each instance runs twice, untraced and traced, in alternating order;
    the paired latencies give the tracing overhead without drift between
    two halves of the run."""
    tracer = Tracer()
    tracer.install()
    try:
        gen = sys.modules["cutpoly.generate"].gen_k33free  # the traced one
        again, _ = wls.make_pool(wl, seed, len(pool), gen, prog.spec, prog.fmt)
        tracer.uninstall()
        plain, traced = [], []

        def step(inst):
            argv = [*wl.argv, paths[inst.index]]
            seq = len(traced)
            for traced_turn in ((False, True) if seq % 2 else (True, False)):
                if traced_turn:
                    tracer.install()
                    traced.append(call_cli(
                        lambda a: tracer.root("cli", seq, prog.main, a),
                        inst.index, argv))
                    tracer.uninstall()
                else:
                    plain.append(call_cli(prog.main, inst.index, argv))

        closed_loop(pool, seconds, step, probe)
    finally:
        tracer.uninstall()
    runs = plain + traced
    failures, changed = gate(wl, pool, runs, refs, prog.brute)
    if [i.text for i in again] != [i.text for i in pool]:
        failures.append("generation is not deterministic")
    metrics = layer_metrics(tracer, set(range(len(traced))), len(pool),
                            probe.factor())
    overhead = (sum(r.latency for r in traced)
                / sum(r.latency for r in plain) - 1)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["cli.stdout_changed"] = (len(changed), "instances")
    tracer.dump(WORK / wl.name / "spans.jsonl")
    own, _ = tracer.self_times()
    totals: dict[str, float] = {}
    for (name, inst), v in own.items():
        if inst is not None:
            totals[name] = totals.get(name, 0.0) + v
    whole = sum(totals.values())
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:3]
    print("top self time: " + ", ".join(
        f"{name} {100 * v / whole:.1f}%" for name, v in top))
    return runs, failures, metrics


def make_refs(prog, wl, seed, pool, paths, rejected) -> int:
    entries = []
    for inst in pool:
        r = call_cli(prog.main, inst.index, [*wl.argv, paths[inst.index]])
        try:
            entries.append(wls.reference_entry(wl, inst, r.rc, r.out,
                                               prog.brute))
        except wls.CheckFailed as exc:
            print(f"instance {inst.index}: {exc}", file=sys.stderr)
            return 1
    print(f"wrote {wls.write_refs(wl.name, seed, entries, rejected)}")
    return 0


def run_workload(args) -> int:
    wl = wls.WORKLOADS[args.workload]
    size = args.pool or wl.pool_size
    setup_probe = SpeedProbe()
    try:
        prog, pool, rejected, paths, setup_s = set_up(wl, args.seed, size,
                                                      setup_probe)
    except ImportError as exc:
        print(f"cannot import cutpoly from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(f"workload {wl.name} seed {args.seed}: {len(pool)} instances; "
          f"rejected draws {dict(sorted(rejected.items()))}")
    if args.make_refs:
        return make_refs(prog, wl, args.seed, pool, paths, rejected)
    refs = wls.load_refs(wl.name, args.seed)
    probe = SpeedProbe()
    if args.trace:
        runs, failures, metrics = traced_run(prog, wl, args.seed, pool, paths,
                                             args.seconds, refs, probe)
    else:
        runs, elapsed = closed_loop(pool, args.seconds, lambda inst: call_cli(
            prog.main, inst.index, [*wl.argv, paths[inst.index]]), probe)
        speed = probe.factor()
        metrics = end_to_end(runs, elapsed, setup_s * setup_probe.factor(),
                             speed)
        raw = end_to_end(runs, elapsed, setup_s)
        print(f"machine speed {speed:.4f} in the loop, "
              f"{setup_probe.factor():.4f} in set-up; unscaled: " + ", ".join(
                  f"{name} {raw[name][0]:.6g}" for name in
                  ("throughput_per_s", "latency_s.p50", "latency_s.tail",
                   "setup_s")))
        failures, changed = gate(wl, pool, runs, refs, prog.brute)
        print(f"stdout differs from {'reference' if refs else 'first run'} "
              f"on {len(changed)} instances")
    for msg in failures[:10]:
        print(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        extra = f" {tail_label(len(runs))}" if name == "latency_s.tail" else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    print(f"failed_frac {len(failures) / len(runs):.6g} "
          f"({len(failures)} of {len(runs)})")
    print(json.dumps({
        "correct": not failures, "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*wls.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=wls.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool", type=int, default=0,
                   help="instances per pool (default: the workload's own)")
    p.add_argument("--make-refs", action="store_true",
                   help="write reference outputs for this seed and exit")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        return run_workload(args)
    worst = 0
    for name in wls.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pool", str(args.pool)]
        if args.make_refs:
            cmd.append("--make-refs")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
