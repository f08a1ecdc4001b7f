"""Always-on scheduler daemon: submit/status/cancel jobs over a socket.

The serve subsystem turns the batch experiment runner into a
long-running service (ROADMAP, PR 8): ``python -m repro serve`` hosts
a daemon that accepts newline-delimited JSON requests over a Unix or
TCP socket, schedules submitted scenarios through the one
``run(scenario)`` entry point via a bounded priority queue and a worker
pool, and answers ``status``/``result``/``cancel``/``history``/
``telemetry``/``shutdown`` verbs.  See DESIGN.md §6.7.

PR 9 makes the daemon durable (DESIGN.md §6.8): a write-ahead job
journal with crash recovery (``--journal`` / ``--recover``) and submit
idempotency keys that survive restarts.  Each job runs in a worker
process; a process that goes ``--hang-timeout`` seconds without a
heartbeat is killed by its worker thread, and its job is retried with
bounded retries and backoff.

* :mod:`repro.serve.protocol` — NDJSON framing, verbs, addresses.
* :mod:`repro.serve.jobs` — Job lifecycle + the bounded pending queue
  (which also holds retried jobs for their backoff).
* :mod:`repro.serve.journal` — write-ahead log, snapshots, replay.
* :mod:`repro.serve.server` — the daemon (:class:`ServeServer`).
* :mod:`repro.serve.client` — :class:`ServeClient` library.
"""

from .client import ServeClient, ServeError
from .jobs import (
    CANCELED,
    COMPLETED,
    DISPATCHED,
    FAILED,
    INTERRUPTED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    LifecycleError,
    PendingQueue,
    QueueFull,
)
from .journal import KILL_POINTS, JobJournal, JournalError, atomic_write_json
from .protocol import DEFAULT_ADDRESS, MAX_LINE_BYTES, VERBS, ProtocolError
from .server import ServeConfig, ServeServer

__all__ = [
    "ServeServer",
    "ServeConfig",
    "ServeClient",
    "ServeError",
    "Job",
    "PendingQueue",
    "QueueFull",
    "LifecycleError",
    "JobJournal",
    "JournalError",
    "atomic_write_json",
    "KILL_POINTS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "QUEUED",
    "DISPATCHED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "CANCELED",
    "INTERRUPTED",
    "VERBS",
    "DEFAULT_ADDRESS",
    "MAX_LINE_BYTES",
    "ProtocolError",
]
