"""Host speed, sampled while the measured code runs.

On a shared VM the CPU a run gets changes speed by tens of percent from
one second to the next, and a slow spell can last minutes.  The
process is not descheduled (its CPU time equals its wall time); the
same instructions just take longer.  No choice of fastest or median
pass within one run removes a spell that covers the whole run.

So a :class:`HostClock` interrupts the measured code every ``SAMPLE_S``
seconds (``SIGALRM``) to time a small fixed pure-Python loop of heap,
dict and random-number work, like the simulator's event loop.  The
loop uses nothing from ``repro``, so no change to the code under test
moves it.  Its mean time over ``PROBE_REF_S`` is the host's slowdown
over the span, raised to ``SIM_EXPONENT`` it is the simulator's, and
wall time over that is the span's time on a host of the reference
speed.  Sampling inside the span, not between spans, matters: the
speed changes within a single 2 s cell.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Dict, List, Tuple

#: Seconds between two samples.
SAMPLE_S = 0.01
#: Iterations of the sampled loop: about 0.2-0.4 ms, so sampling takes
#: about 3% of the span.
PROBE_ITERATIONS = 300
#: Seconds the loop takes on the reference host: a round figure near
#: its fastest time on the 2-core x86 VM the bounds were calibrated on.
PROBE_REF_S = 200e-6
#: The simulator slows less than the loop does: on that VM a cell's
#: time grew as the loop's slowdown to the power 0.76-0.89 (least
#: squares over 35-970 back-to-back runs each of fleet_ref,
#: overload_ref, llm_ref, inf_train_ref and train_train_ref).  Scaling
#: by the plain slowdown overcorrects slow spells.
SIM_EXPONENT = 0.8


def _probe() -> float:
    """Seconds one run of the sampled loop takes now."""
    start = time.perf_counter()
    rng = random.Random(1)
    heap: List[Tuple[float, int]] = []
    sums: Dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        heapq.heappush(heap, (rng.random(), i))
        sums[i % 977] = sums.get(i % 977, 0) + i
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


class HostClock:
    """Times a ``with`` block and samples the host's speed during it.

    ``wall`` is the block's wall seconds without the samples' own time;
    ``slowdown`` is how many times slower than on the reference host
    the simulator ran, judged from the samples.  Signals go to the main
    thread, so use it there.
    """

    def __init__(self):
        self.wall = 0.0
        self._probes: List[float] = []
        self._last = 0.0
        self._busy = False

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # One sample at the end, so a block shorter than SAMPLE_S has
        # one too.  An alarm already on its way is then ignored, never
        # left to the default action, which would end the process.
        self._sample()
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self, *_) -> None:
        if self._busy:  # an alarm that arrived during a sample
            return
        self._busy = True
        start = time.perf_counter()
        self.wall += start - self._last
        self._probes.append(_probe())
        self._last = time.perf_counter()
        self._busy = False

    @property
    def slowdown(self) -> float:
        return (statistics.fmean(self._probes) / PROBE_REF_S) ** SIM_EXPONENT
