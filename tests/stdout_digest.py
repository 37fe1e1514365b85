"""Digests of the command line's exit codes and stdout on the benchmark
pools.

    python3 tests/stdout_digest.py

For each workload of `perfbench/workloads.py` and each of the seeds 1
and 7, the workload's pool is drawn with this checkout's generator and
`cutpoly.cli.main` runs in-process on every instance, with stdout
captured.  One line is printed per pool: workload, seed and the sha256
of every instance's exit code and stdout, in pool order.  Two checkouts
print the same lines exactly when their commands give the same exit
codes and the same bytes on those pools.  The script takes no options
and always imports cutpoly from the `src/` beside it.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wls  # noqa: E402
from cutpoly import GeneratorSpec, format_graph, gen_k33free  # noqa: E402
from cutpoly.cli import main as cli_main  # noqa: E402

SEEDS = (1, 7)


def pool_runs(workload: str, seed: int, size: int | None = None
              ) -> list[tuple[wls.Instance, int, str]]:
    """Each instance of the first `size` (default: all) of a workload's
    pool with the exit code and stdout of its in-process command."""
    wl = wls.WORKLOADS[workload]
    pool, _rejected = wls.make_pool(wl, seed, size or wl.pool_size,
                                    gen_k33free, GeneratorSpec, format_graph)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst in pool:
            path = Path(tmp) / f"{inst.index}.cut"
            path.write_text(inst.text)
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli_main([*wl.argv, str(path)])
            runs.append((inst, code, out.getvalue()))
    return runs


def digest(runs) -> str:
    h = hashlib.sha256()
    for _inst, code, out in runs:
        h.update(f"{code}\n{len(out)}\n{out}".encode())
    return h.hexdigest()


def main() -> None:
    for workload in wls.WORKLOADS:
        for seed in SEEDS:
            print(workload, seed, digest(pool_runs(workload, seed)), flush=True)


if __name__ == "__main__":
    main()
