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


# Calendar entries are plain (time, seq, event) tuples: heap sift
# compares resolve on the C-level float/int comparison of the first two
# fields and never reach the event object.  A dataclass with order=True
# here costs a Python-level __lt__ per heap comparison — measurably the
# hottest single line of the simulator before this representation.


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays in the calendar but is
    skipped when popped.  ``cancel`` is O(1).
    """

    __slots__ = ("time", "callback", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired


class Simulator:
    """Event calendar with a monotonically advancing clock.

    Usage::

        sim = Simulator()
        sim.call_at(1.5, lambda: print("hello at t=1.5"))
        sim.run()
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
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

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``time``."""
        now = self._now
        if not time >= now:  # also catches NaN, which fails every compare
            if math.isnan(time):
                raise SimulationError("cannot schedule an event at NaN time")
            if time < now - 1e-15:
                raise SimulationError(
                    f"cannot schedule in the past: t={time!r} < now={now!r}"
                )
            time = now
        event = ScheduledEvent(time, callback)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def call_in(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.call_at(self._now + delay, callback)

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next active event, or None if the calendar is empty."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event.cancelled or event.fired:
                heapq.heappop(heap)
            else:
                return heap[0][0]
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled or event.fired:
                continue
            if time < self._now - 1e-15:
                raise SimulationError("event calendar corrupted: time went backwards")
            if time > self._now:
                self._now = time
            event.fired = True
            self.events_processed += 1
            if self._tracer is not None:
                self._tracer.sim_event(
                    getattr(event.callback, "__qualname__", "callback"))
            event.callback()
            return True
        return False

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
        # Hot loop: locals for the heap and heappop, single pop per event
        # (peek-then-step would scan the heap top twice), tracer branch
        # hoisted out when tracing is off.
        heap = self._heap
        pop = heapq.heappop
        tracer = self._tracer
        abort = self._abort_check
        if abort is not None and abort():
            self._running = False
            raise RunAborted("run aborted before the first event")
        try:
            while not self._stopped:
                if max_events is not None and processed >= max_events:
                    break
                if not heap:
                    break
                time, _, event = heap[0]
                if event.cancelled or event.fired:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                if time < self._now - 1e-15:
                    raise SimulationError(
                        "event calendar corrupted: time went backwards")
                if time > self._now:
                    self._now = time
                event.fired = True
                self.events_processed += 1
                if tracer is not None:
                    tracer.sim_event(
                        getattr(event.callback, "__qualname__", "callback"))
                event.callback()
                processed += 1
                if abort is not None and (processed & 1023) == 0 and abort():
                    raise RunAborted(
                        f"run aborted after {processed} events "
                        f"at t={self._now:.6f}")
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now
