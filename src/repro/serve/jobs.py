"""Job objects, lifecycle state machine, and the bounded pending queue.

A submitted scenario becomes a :class:`Job` that moves through

    QUEUED -> DISPATCHED -> RUNNING -> {COMPLETED, FAILED, CANCELED,
                                        INTERRUPTED}

where QUEUED and DISPATCHED jobs can also jump straight to CANCELED
(cancel verb, or shutdown draining the queue), and QUEUED jobs can
jump straight to FAILED (admission-time failure: a journaled spec
that can no longer be rebuilt at recovery).  Two recovery edges
exist on top of the happy path: DISPATCHED/RUNNING -> QUEUED is a
*requeue* (crash recovery under ``--recover=requeue``, or a retry
after a hung or crashed worker process), and DISPATCHED/RUNNING ->
INTERRUPTED is the terminal verdict under ``--recover=fail`` when a
crash caught the job mid-flight.  Transitions are validated — an
illegal move raises :class:`LifecycleError` rather than silently
corrupting state, which is what keeps the daemon's accounting exact
under concurrent cancels, retries, and journal replay.

The :class:`PendingQueue` is the PR-2 overload idiom applied to jobs
instead of kernels: a bounded priority queue that *rejects at
admission* when full (``queue_full``) instead of buffering unbounded
work.  Priority is a submit-time integer (higher first); ties dequeue
FIFO by submission sequence.  Cancels are lazy (the heap entry is
skipped on pop), with the stale fraction compacted away once it
crosses a threshold so cancel churn cannot grow the heap unboundedly.
A retried job is *held* for its backoff delay inside the same queue:
not poppable and not counted by ``len()`` until it is due, but found
by ``remove()`` and returned by ``drain()`` like any queued job.
"""

from __future__ import annotations

import threading
import time
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Dict, List, Optional

from repro.experiments.scenario import Scenario

__all__ = [
    "QUEUED", "DISPATCHED", "RUNNING", "COMPLETED", "FAILED", "CANCELED",
    "INTERRUPTED",
    "TERMINAL_STATES", "JOB_STATES",
    "LifecycleError", "QueueFull",
    "Job", "PendingQueue",
]

QUEUED = "QUEUED"
DISPATCHED = "DISPATCHED"
RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
FAILED = "FAILED"
CANCELED = "CANCELED"
INTERRUPTED = "INTERRUPTED"

JOB_STATES = (QUEUED, DISPATCHED, RUNNING, COMPLETED, FAILED, CANCELED,
              INTERRUPTED)
TERMINAL_STATES = frozenset((COMPLETED, FAILED, CANCELED, INTERRUPTED))

_ALLOWED = {
    QUEUED: frozenset((DISPATCHED, CANCELED, FAILED)),
    DISPATCHED: frozenset((RUNNING, CANCELED, QUEUED, INTERRUPTED)),
    RUNNING: frozenset((COMPLETED, FAILED, CANCELED, QUEUED, INTERRUPTED)),
    COMPLETED: frozenset(),
    FAILED: frozenset(),
    CANCELED: frozenset(),
    INTERRUPTED: frozenset(),
}


class LifecycleError(RuntimeError):
    """An illegal job state transition."""


class QueueFull(RuntimeError):
    """The bounded pending queue rejected a submission."""


class Job:
    """One submitted scenario run and its full lifecycle record.

    ``spec`` is the JSON-safe submission record (name/kind, seed,
    duration, overrides) echoed back on status; ``scenario`` is the
    built :class:`Scenario` the worker executes.  ``result_json`` is
    the *exact* canonical string ``run(scenario).to_json()`` produced —
    stored verbatim so the daemon's determinism contract (byte-identical
    to a direct run) cannot be eroded by a re-serialization.
    """

    __slots__ = ("job_id", "scenario", "spec", "priority", "state",
                 "error", "result_json", "events_processed", "sim_time",
                 "cancel_requested", "transitions", "_lock",
                 "key", "attempt", "recovered")

    def __init__(self, job_id: str, scenario: Optional[Scenario],
                 spec: Dict[str, Any],
                 priority: int = 0, *, clock: float = 0.0,
                 key: Optional[str] = None):
        self.job_id = job_id
        self.scenario = scenario
        self.spec = spec
        self.priority = int(priority)
        self.key = key
        self.state = QUEUED
        self.error: Optional[str] = None
        self.result_json: Optional[str] = None
        self.events_processed: Optional[int] = None
        self.sim_time: Optional[float] = None
        self.cancel_requested = False
        #: 1-based execution attempt; bumped on every requeue.
        self.attempt = 1
        #: True when this Job was rebuilt from the journal at startup.
        self.recovered = False
        # (state, wall-clock seconds) pairs, QUEUED first.
        self.transitions: List[List[Any]] = [[QUEUED, clock]]
        self._lock = threading.Lock()

    @classmethod
    def restore(cls, record: Dict[str, Any],
                scenario: Optional[Scenario]) -> "Job":
        """Rebuild a Job from a journal-replay record (see
        :mod:`repro.serve.journal`) — state, transitions, error, and
        the byte-exact ``result_json`` are restored verbatim."""
        job = cls(record["id"], scenario, record["spec"],
                  priority=record.get("priority", 0),
                  key=record.get("key"))
        job.state = record["state"]
        job.error = record.get("error")
        job.result_json = record.get("result_json")
        job.events_processed = record.get("events_processed")
        job.sim_time = record.get("sim_time")
        job.attempt = record.get("attempt", 1)
        job.transitions = [list(t) for t in record.get("transitions", [])] \
            or [[QUEUED, 0.0]]
        job.recovered = True
        return job

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str, *, clock: float = 0.0,
                   error: Optional[str] = None) -> None:
        """Move to ``state``; raises :class:`LifecycleError` if illegal."""
        with self._lock:
            if state not in _ALLOWED[self.state]:
                raise LifecycleError(
                    f"{self.job_id}: illegal transition "
                    f"{self.state} -> {state}")
            self.state = state
            if error is not None:
                self.error = error
            self.transitions.append([state, clock])

    def try_transition(self, state: str, *, clock: float = 0.0,
                       error: Optional[str] = None) -> bool:
        """Like :meth:`transition` but returns False instead of raising
        when the move is illegal (lost races with a concurrent cancel)."""
        with self._lock:
            if state not in _ALLOWED[self.state]:
                return False
            self.state = state
            if error is not None:
                self.error = error
            self.transitions.append([state, clock])
            return True

    def describe(self) -> Dict[str, Any]:
        """JSON-safe record for status/history responses."""
        with self._lock:
            return {
                "id": self.job_id,
                "state": self.state,
                "priority": self.priority,
                "spec": self.spec,
                "seed": (self.scenario.seed if self.scenario is not None
                         else self.spec.get("seed",
                                            (self.spec.get("params") or {})
                                            .get("seed", 0))),
                "key": self.key,
                "attempt": self.attempt,
                "recovered": self.recovered,
                "cancel_requested": self.cancel_requested,
                "error": self.error,
                "events_processed": self.events_processed,
                "sim_time": self.sim_time,
                "has_result": self.result_json is not None,
                "transitions": [list(t) for t in self.transitions],
            }


class PendingQueue:
    """Bounded, thread-safe priority queue of QUEUED jobs.

    ``push`` raises :class:`QueueFull` past ``max_pending`` —
    reject-when-full, never block-the-submitter (the daemon must keep
    answering status requests under overload).  ``pop`` blocks up to
    ``timeout`` so worker threads can poll their stop flag.  A job
    pushed with a ``delay`` is held until it is due; held jobs stay out
    of ``len()`` (the admission bound counts runnable work only).
    """

    #: Compact the heap once at least this many lazily-canceled
    #: entries are stale AND they are at least half the heap — keeps
    #: heap size O(live) under cancel churn without paying a rebuild
    #: on every cancel.
    COMPACT_MIN_STALE = 8

    def __init__(self, max_pending: int):
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.max_pending = max_pending
        self._heap: List[tuple] = []
        self._removed: set = set()
        #: (due monotonic time, seq, job) heap of jobs held for backoff.
        self._held: List[tuple] = []
        self._seq = count()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap) - len(self._removed)

    @property
    def heap_size(self) -> int:
        """Raw heap length including stale lazily-canceled entries
        (bounded-churn invariant tested in tests/test_serve.py)."""
        with self._cond:
            return len(self._heap)

    def push(self, job: Job, force: bool = False, delay: float = 0.0) -> None:
        """Admit a job; raises :class:`QueueFull` past ``max_pending``
        unless ``force`` — requeues and crash recovery must never drop
        an already-accepted job, so they bypass the admission bound.
        With ``delay > 0`` the job is held that many seconds first."""
        with self._cond:
            if not force and \
                    len(self._heap) - len(self._removed) >= self.max_pending:
                raise QueueFull(
                    f"pending queue is full ({self.max_pending} jobs)")
            if delay > 0:
                heappush(self._held,
                         (time.monotonic() + delay, next(self._seq), job))
            else:
                heappush(self._heap, (-job.priority, next(self._seq), job))
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Highest-priority due job, or None when there is none after
        ``timeout`` (or once the earliest held job is due, if sooner)."""
        with self._cond:
            self._release_due_locked()
            if not self._live_locked():
                if self._held:
                    due = max(0.0, self._held[0][0] - time.monotonic())
                    timeout = due if timeout is None else min(timeout, due)
                self._cond.wait(timeout)
                self._release_due_locked()
            return self._pop_locked()

    def remove(self, job_id: str) -> Optional[Job]:
        """Pull a specific job out of the queue (cancel path).  A held
        job leaves at once; a heap entry lazily, like the engine
        calendar: it is skipped on pop."""
        with self._cond:
            for index, (_, _, job) in enumerate(self._held):
                if job.job_id == job_id:
                    self._held.pop(index)
                    heapify(self._held)
                    return job
            for _, _, job in self._heap:
                if job.job_id == job_id and job.job_id not in self._removed:
                    self._removed.add(job.job_id)
                    self._compact_locked()
                    return job
            return None

    def _compact_locked(self) -> None:
        if len(self._removed) < self.COMPACT_MIN_STALE \
                or 2 * len(self._removed) < len(self._heap):
            return
        self._heap = [entry for entry in self._heap
                      if entry[2].job_id not in self._removed]
        heapify(self._heap)
        self._removed.clear()

    def drain(self) -> List[Job]:
        """Empty the queue, returning the jobs in dequeue order, then
        the held jobs in due order (shutdown path)."""
        drained = []
        with self._cond:
            while True:
                job = self._pop_locked()
                if job is None:
                    break
                drained.append(job)
            while self._held:
                drained.append(heappop(self._held)[2])
        return drained

    def _release_due_locked(self) -> None:
        now = time.monotonic()
        while self._held and self._held[0][0] <= now:
            job = heappop(self._held)[2]
            heappush(self._heap, (-job.priority, next(self._seq), job))

    def _live_locked(self) -> bool:
        return len(self._heap) - len(self._removed) > 0

    def _pop_locked(self) -> Optional[Job]:
        while self._heap:
            _, _, job = heappop(self._heap)
            if job.job_id in self._removed:
                self._removed.discard(job.job_id)
                continue
            return job
        return None
