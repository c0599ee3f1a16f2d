"""Machine-speed probe for a shared, noisy host.

On 2-vCPU Intel Xeon virtual machines shared with other tenants, one
fixed pure-Python loop takes anywhere from 17 to 31 ms depending on what
the other tenants are doing, in phases that change within a second and
differ between the two vCPUs; CPU time moves with wall time, so this is
not CPU steal that could be subtracted.  Raw times of the same work spread by
about 35% between runs.

So every process of a run is pinned to one vCPU, work is timed in CPU
seconds, and while a child process works, the harness runs a short probe
of a fixed reference workload on the same vCPU every ``GAP_S`` seconds,
timing it in its own CPU seconds.  A stretch of work is reported as what
it would have taken at the speed at which the probe takes ``NOMINAL_S``:
its CPU time times ``NOMINAL_S / probe time``, averaged over the probes
taken while it ran.  Work that gets faster or slower relative to the
probe shows in full; the probes take about a tenth of the vCPU.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

# probe time at the reference speed: about the probe's usual CPU time on
# a vCPU of such a machine with Python 3.11, so that reported times read
# close to raw times there
NOMINAL_S = 0.006
GAP_S = 0.05


def _reference_work() -> int:
    acc, f, table = 0, Fraction(1, 3), {}
    for i in range(1, 6001):
        acc += (i * 2654435761) % 1000003
        table[i % 97] = table.get(i % 97, 0) + acc
        if i % 16 == 0:
            f = f * Fraction(i + 1, i) - Fraction(1, i)
    return acc + f.denominator + len(table)


class Track:
    """Probe samples of one run: (monotonic time, NOMINAL_S / probe)."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []

    def probe(self) -> None:
        t0 = time.thread_time()
        _reference_work()
        cpu = time.thread_time() - t0
        self.times.append(time.perf_counter())
        self.factors.append(NOMINAL_S / cpu)

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor over the probes taken in [start, end], or the
        nearest probe's when none was."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return sum(self.factors[lo:hi]) / (hi - lo)
        if lo == 0:
            return self.factors[0]
        if lo == len(self.times) or start - self.times[lo - 1] < \
                self.times[lo] - end:
            return self.factors[lo - 1]
        return self.factors[lo]
