"""Host-speed reference: a fixed pure-Python kernel timed alongside the program.

On a virtual machine that shares its host with other tenants, the same
deterministic pass can take 25 % longer a minute later.  The
kernel below does graph work of the same kind as the program (adjacency
lists, sets, a stack) on a fixed input, with the garbage collector off so
the program's heap cannot change its cost.  A timing is scaled by
REFERENCE_NS / (median of the kernel samples taken around it), which turns
it into a time on a host where the kernel takes REFERENCE_NS.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter_ns

# Median kernel time on the reference host (2-core Intel Xeon, Python 3.11).
REFERENCE_NS = 1_700_000

_VERTICES = 300
_DEGREE = 4


class Speedometer:
    def __init__(self):
        rng = random.Random(20240101)
        self.adj = [sorted(rng.sample(range(_VERTICES), _DEGREE)) for _ in range(_VERTICES)]
        self.samples: list[int] = []

    def sample(self) -> int:
        """Time the kernel once and keep the sample."""
        adj = self.adj
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            for source in range(0, _VERTICES, 10):
                seen = {source}
                stack = [source]
                while stack:
                    for v in adj[stack.pop()]:
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
            elapsed = perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """Factor that turns this host's timings into reference-host timings.

        It uses the median of samples[lo:hi], or of all samples by default.
        """
        return REFERENCE_NS / statistics.median(self.samples[max(lo, 0) : hi])
