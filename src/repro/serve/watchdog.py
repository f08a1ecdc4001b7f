"""Worker watchdog: heartbeat-based hang detection for running jobs.

Every running job heartbeats through the engine abort hook in its
worker process — the simulator polls the hook every 1024 events, and
the hook sends a heartbeat that the worker thread stamps into
``job.last_heartbeat``, so a healthy run heartbeats continuously for
free.  A job whose heartbeat goes stale for ``hang_timeout`` seconds is
*hung*: wedged outside the event loop (a pathological cost model, a
deadlock, a stuck syscall) where no engine poll will ever happen.

The watchdog escalates in two steps, mirroring the PR-1 supervisor
shape (detect → cooperative remedy → forceful remedy):

1. **Cooperative abort** — ``job.abort_requested`` is set and forwarded
   to the worker process.  If the run resumes polling, the abort hook
   answers True, the engine raises ``RunAborted``, and the worker
   thread requeues the job with a bounded retry budget and exponential
   backoff.
2. **Forceful requeue** — if the heartbeat is still stale
   ``abort_grace`` seconds after step 1, the worker process is presumed
   wedged and the watchdog SIGKILLs it.  The worker thread sees its
   pipe reach EOF, requeues (or fails) the job on the same budget, and
   starts a fresh process for its next job.

Either way a job that hangs past its retry budget terminates FAILED
with a structured JSON reason (``{"reason": "watchdog_hang", ...}``).

Requeues (watchdog, cooperative, and crash recovery alike) re-enter
the pending queue through :meth:`WorkerWatchdog.schedule_requeue`,
which holds the job for its backoff delay before force-pushing it —
bounded retries + backoff without growing the priority heap with
not-yet-due work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = ["WatchdogConfig", "WorkerWatchdog"]

#: Seconds between the watchdog thread's scans.
POLL_INTERVAL = 0.05


@dataclass
class WatchdogConfig:
    """Hang-handling knobs (all surfaced as ``repro serve`` flags).

    ``hang_timeout <= 0`` disables the watchdog entirely.
    """

    hang_timeout: float = 30.0
    abort_grace: float = 5.0
    max_retries: int = 2
    retry_backoff: float = 0.25

    @property
    def enabled(self) -> bool:
        return self.hang_timeout > 0

    def backoff_for(self, attempt: int) -> float:
        """Exponential backoff before re-dispatching attempt N+1."""
        return self.retry_backoff * (2 ** max(0, attempt - 1))


class WorkerWatchdog:
    """One background thread owning hang detection and delayed
    requeues for a :class:`~repro.serve.server.ServeServer`."""

    def __init__(self, server, config: WatchdogConfig):
        self._server = server
        self.config = config
        self._stop = threading.Event()
        self._lock = threading.Lock()
        #: (due_monotonic, job) pairs awaiting their backoff delay.
        self._delayed: List[Tuple[float, Any]] = []
        self._thread: threading.Thread = threading.Thread(
            target=self._loop, name="serve-watchdog", daemon=True)
        self.hangs_detected = 0
        self.forced_requeues = 0

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Delayed requeue (backoff)

    def schedule_requeue(self, job, delay: float) -> None:
        """Hold ``job`` (already transitioned back to QUEUED) for
        ``delay`` seconds, then force-push it into the pending queue."""
        if delay <= 0:
            self._server._admit_requeued(job)
            return
        with self._lock:
            self._delayed.append((time.monotonic() + delay, job))

    def drain_delayed(self) -> List[Any]:
        """Hand back every not-yet-due job (shutdown path — they must
        be canceled, not silently dropped)."""
        with self._lock:
            jobs = [job for _, job in self._delayed]
            self._delayed.clear()
        return jobs

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            delayed = len(self._delayed)
        return {
            "enabled": self.config.enabled,
            "hang_timeout": self.config.hang_timeout,
            "max_retries": self.config.max_retries,
            "hangs_detected": self.hangs_detected,
            "forced_requeues": self.forced_requeues,
            "delayed_requeues": delayed,
        }

    # ------------------------------------------------------------------
    # Loop

    def _loop(self) -> None:
        while not self._stop.wait(POLL_INTERVAL):
            now = time.monotonic()
            self._release_due(now)
            if self.config.enabled:
                self._scan_running(now)

    def _release_due(self, now: float) -> None:
        due = []
        with self._lock:
            keep = []
            for item in self._delayed:
                (due if item[0] <= now else keep).append(item)
            self._delayed[:] = keep
        for _, job in due:
            self._server._admit_requeued(job)

    def _scan_running(self, now: float) -> None:
        for job in self._server._running_jobs():
            beat = job.last_heartbeat
            if beat is None or now - beat <= self.config.hang_timeout:
                continue
            if not job.abort_requested:
                # Step 1: cooperative — if the run ever polls the
                # abort hook again it aborts and self-requeues.
                job.abort_requested = True
                job.hang_detected_at = now
                self.hangs_detected += 1
                self._server._note_hang(job)
            elif job.hang_detected_at is not None \
                    and now - job.hang_detected_at > self.config.abort_grace:
                # Step 2: the worker never responded — presume it
                # wedged and kill its process.
                job.hang_detected_at = None
                self.forced_requeues += 1
                self._server._kill_worker(job)
