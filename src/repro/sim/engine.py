"""Deterministic discrete-event simulation engine.

The engine is a classic event-calendar simulator: callbacks are scheduled
at absolute simulated times and executed in (time, sequence) order, so
runs are fully deterministic for a given seed and schedule.  On top of
the raw calendar, :mod:`repro.sim.process` builds generator-based
processes (``yield`` a wait or a condition), which is how clients,
schedulers, and the GPU dispatcher are written.

Time is a float in *seconds* of simulated GPU/host time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from collections import deque
from typing import Callable, Optional

__all__ = ["Simulator", "ScheduledEvent", "SimulationError", "RunAborted",
           "set_abort_check", "get_abort_check"]


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation engine."""


class RunAborted(SimulationError):
    """Raised from :meth:`Simulator.run` when the thread's abort check
    fires (see :func:`set_abort_check`).  Carries no partial results:
    the run that raised it is abandoned wholesale."""


# Cooperative cancellation for externally-driven runs (the serve
# daemon's job cancel).  The hook is thread-local because scenario
# families construct their own Simulator deep inside run(scenario):
# a serve worker process sets the check before calling run(), and every
# Simulator built on that thread polls it every 1024 events.  Threads
# that never set a check (every pre-existing caller) pay one hoisted
# local None-test per event.
_thread_hooks = threading.local()


def set_abort_check(check: Optional[Callable[[], bool]]) -> Optional[Callable]:
    """Install ``check`` as this thread's abort hook; returns the
    previous hook.  Simulators created on this thread afterwards poll
    it periodically during :meth:`Simulator.run` and raise
    :class:`RunAborted` when it returns true.  Pass None to clear."""
    previous = getattr(_thread_hooks, "abort_check", None)
    _thread_hooks.abort_check = check
    return previous


def get_abort_check() -> Optional[Callable[[], bool]]:
    """This thread's installed abort hook (None if unset)."""
    return getattr(_thread_hooks, "abort_check", None)


# Calendar entries are plain (time, seq, callback) tuples in one of two
# lanes: a heap of timers and a FIFO "ready" deque of zero-delay calls
# (asyncio's _ready beside its timer heap).  Every entry is stamped
# with the clock when scheduled, so ready entries are already in
# (time, seq) order and the run loop merges the two lanes by comparing
# heads.  Heap sifts and the merge compare resolve on the C-level
# float/int comparison of the first two fields and never reach the
# callback: seqs are unique.  Cancellation is by seq: the entry stays
# put and is skipped when it reaches the head.


class ScheduledEvent:
    """Cancel handle for one calendar entry, returned by
    :meth:`Simulator.call_at` and :meth:`Simulator.call_in`.

    ``cancel`` is O(1) and lazy: the entry stays in the calendar and is
    skipped when it reaches the head.
    """

    __slots__ = ("_sim", "time", "seq", "cancelled")

    def __init__(self, sim: "Simulator", time: float, seq: int):
        self._sim = sim
        self.time = time
        self.seq = seq
        self.cancelled = False

    @property
    def fired(self) -> bool:
        """True once the entry's callback has run.  Entries run in
        strictly increasing (time, seq) order, so an entry has run iff
        the last executed entry is not before it."""
        last = self._sim._last
        if self.cancelled or last is None:
            return False
        return last[0] > self.time or \
            (last[0] == self.time and last[1] >= self.seq)

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self.active:
            self.cancelled = True
            self._sim._cancelled.add(self.seq)


class Simulator:
    """Event calendar with a monotonically advancing clock.

    ``now`` is the current simulated time in seconds (read it, never
    assign it).

    Usage::

        sim = Simulator()
        sim.call_at(1.5, lambda: print("hello at t=1.5"))
        sim.run()
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._ready: deque[tuple[float, int, Callable[[], None]]] = deque()
        self._seq = itertools.count()
        # Seqs of cancelled entries still in a lane; each is dropped
        # when its entry reaches the head.
        self._cancelled: set[int] = set()
        # The entry executed last (ScheduledEvent.fired reads it).
        self._last: Optional[tuple] = None
        self._running = False
        self._stopped = False
        self.events_processed = 0
        # Engine-level tracing (None = fast path).  Every processed
        # calendar event is recorded, so this is opt-in via
        # TelemetryConfig.engine_events, not regular tracing.
        self._tracer = None
        self._abort_check = get_abort_check()

    def attach_tracer(self, tracer) -> None:
        """Record every processed calendar event in ``tracer`` (verbose;
        enabled only by ``TelemetryConfig.engine_events``).  Pass a
        disabled tracer (or None) to detach."""
        self._tracer = tracer if tracer is not None and tracer.enabled else None

    def reserve_seq(self) -> int:
        """Take the sequence number the next scheduled entry would get,
        for a later ``call_at(..., seq=...)`` that must order as if it
        had been scheduled now."""
        return next(self._seq)

    def call_at(self, time: float, callback: Callable[[], None],
                seq: Optional[int] = None) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``time``.

        ``seq``, from :meth:`reserve_seq`, orders the entry as of the
        reservation instead of now.
        """
        now = self.now
        if not time >= now:  # also catches NaN, which fails every compare
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN time")
            if time < now - 1e-15:
                raise SimulationError(
                    f"cannot schedule in the past: t={time!r} < now={now!r}"
                )
            time = now
        if seq is None:
            seq = next(self._seq)
            if time == now:
                self._ready.append((time, seq, callback))
                return ScheduledEvent(self, time, seq)
        # A reserved seq may precede queued ready entries, so it takes
        # the heap, which the run loop merges by (time, seq).
        heapq.heappush(self._heap, (time, seq, callback))
        return ScheduledEvent(self, time, seq)

    def call_in(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.call_at(self.now + delay, callback)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """:meth:`call_in` without a cancel handle, for callers that
        never cancel (e.g. :class:`~repro.sim.process.Timeout`)."""
        if delay > 0.0:
            heapq.heappush(self._heap,
                           (self.now + delay, next(self._seq), callback))
        elif delay == 0.0:
            self._ready.append((self.now, next(self._seq), callback))
        elif delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        else:
            raise SimulationError("cannot schedule an event at NaN time")

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current time, after every entry
        already scheduled for it (a zero-delay :meth:`call_later`)."""
        self._ready.append((self.now, next(self._seq), callback))

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next active event, or None if the calendar is empty."""
        heap, ready, cancelled = self._heap, self._ready, self._cancelled
        while ready or heap:
            if ready and not (heap and heap[0] < ready[0]):
                entry = ready[0]
                if entry[1] not in cancelled:
                    return entry[0]
                ready.popleft()
            else:
                entry = heap[0]
                if entry[1] not in cancelled:
                    return entry[0]
                heapq.heappop(heap)
            cancelled.discard(entry[1])
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns False when none remain.
        Like :meth:`run`, not callable from inside a callback."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the calendar drains, ``until`` is reached, or
        ``max_events`` have been processed.  Returns the final clock.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        processed = 0
        # Hot loop: the lanes, the cancelled set and the pops in locals,
        # ``until`` and ``max_events`` as plain numbers, the tracer
        # branch hoisted out when tracing is off.  Each iteration takes
        # the lesser lane head by (time, seq).
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        cancelled = self._cancelled
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        tracer = self._tracer
        abort = self._abort_check
        if abort is not None and abort():
            self._running = False
            raise RunAborted("run aborted before the first event")
        try:
            while not self._stopped and processed < limit:
                if ready:
                    entry = ready[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        if entry[0] > horizon:
                            break
                        pop(heap)
                    else:
                        if entry[0] > horizon:
                            break
                        popleft()
                elif heap:
                    entry = heap[0]
                    if entry[0] > horizon:
                        break
                    pop(heap)
                else:
                    break
                time, seq, callback = entry
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if time != self.now:
                    if time < self.now - 1e-15:
                        raise SimulationError(
                            "event calendar corrupted: time went backwards")
                    if time > self.now:
                        self.now = time
                self._last = entry
                self.events_processed += 1
                if tracer is not None:
                    tracer.sim_event(getattr(callback, "__qualname__", "callback"))
                callback()
                processed += 1
                if abort is not None and (processed & 1023) == 0 and abort():
                    raise RunAborted(
                        f"run aborted after {processed} events "
                        f"at t={self.now:.6f}")
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now
