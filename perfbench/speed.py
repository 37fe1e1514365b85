"""Machine-speed probe.

On a shared machine the speed of plain Python code drifts by 20% and more
over seconds to minutes, whatever the program does.  The probe runs a
fixed pure-Python kernel (breadth-first searches on a constant graph; it
never touches cutpoly) between instances and measures the current speed.
The benchmark reports its times at a fixed reference speed: a time t
measured while the kernel ran at rate r takes t * r / REFERENCE_RATE at
the reference speed.  On identical work this cuts the run-to-run spread
of throughput from 12-16% to 2-3%.
"""

from __future__ import annotations

import time

REFERENCE_RATE = 350.0  # kernel calls per second that define speed 1.0

_N = 150
_ADJ = tuple(tuple((v * 7 + k * 13) % _N for k in range(1, 6))
             for v in range(_N))


def _kernel() -> int:
    total = 0
    for src in range(0, _N, 3):
        seen = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in _ADJ[x]:
                    if y not in seen:
                        seen[y] = seen[x] + 1
                        nxt.append(y)
            frontier = nxt
        total += sum(seen.values())
    return total


class SpeedProbe:
    """Accumulates kernel calls and the time they took."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def sample(self, calls: int = 2) -> None:
        t0 = time.perf_counter()
        for _ in range(calls):
            _kernel()
        self.seconds += time.perf_counter() - t0
        self.calls += calls

    def factor(self) -> float:
        """Current speed over the reference speed: a time measured now,
        multiplied by this, is the time at the reference speed."""
        return self.calls / self.seconds / REFERENCE_RATE
