"""The always-on scheduler daemon behind ``python -m repro serve``.

A :class:`ServeServer` owns four kinds of threads, plus one process per
worker:

* an **accept loop** on a Unix/TCP listener, spawning one handler
  thread per client connection (NDJSON request/response, see
  :mod:`repro.serve.protocol`);
* a **worker pool**: each thread pops :class:`~repro.serve.jobs.Job`
  objects off the bounded :class:`~repro.serve.jobs.PendingQueue` and
  has its own long-lived worker process execute them through the one
  ``run(scenario)`` entry point — the daemon adds queueing, lifecycle,
  and cancellation *around* the Scenario machinery, never a second
  execution path, which is what makes the determinism contract (daemon
  result byte-identical to a direct run at the same seed) hold by
  construction, and no simulation holds the daemon's interpreter lock.
  The worker thread also owns hang handling: a run whose process sends
  no heartbeat for ``hang_timeout`` seconds has that process killed and
  is retried with bounded retries + exponential backoff, held in the
  pending queue until its backoff is due;
* a **telemetry ticker** recording periodic snapshots into a ring; and
* transient **shutdown** threads (signal handlers and the ``shutdown``
  verb both funnel into the idempotent :meth:`ServeServer.shutdown`).

Durability (:mod:`repro.serve.journal`, DESIGN.md §6.8): with
``journal`` set, every submit is journaled *before* it is
acknowledged and every transition/result before it is observable, so a
crash — including ``kill -9`` — loses nothing.  On startup the daemon
replays the journal: completed results come back byte-for-byte, queued
jobs re-enter the pending queue in priority order, and jobs caught
DISPATCHED/RUNNING are deterministically re-run (``recover="requeue"``)
or terminated INTERRUPTED (``recover="fail"``).  Submit idempotency
keys survive restarts: a duplicate submit returns the original job id.

Cancellation: queued jobs are pulled straight out of the pending queue;
dispatched/running jobs get ``cancel_requested`` set, which the worker
thread checks before starting and forwards down its process's pipe,
where the engine abort hook (:func:`repro.sim.engine.set_abort_check`)
reads it every 1024 events — the same early-exit shape as the
client-deregistration drain, applied to the whole run.  The same hook
sends the heartbeat the worker thread's hang check reads.

Graceful shutdown (SIGINT/SIGTERM or the ``shutdown`` verb): admission
closes, queued jobs are canceled, running jobs drain (or are aborted in
``mode="now"``), the journal is compacted and closed, the JSON job
history is persisted atomically, workers exit, and the process exits 0.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.experiments.params import _ParamsBase, knob
from repro.experiments.registry import make_scenario, scenario_catalog
from repro.experiments.scenario import Scenario, run as run_scenario
from repro.sim.engine import RunAborted, set_abort_check

from .jobs import (
    CANCELED,
    COMPLETED,
    DISPATCHED,
    FAILED,
    INTERRUPTED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    PendingQueue,
)
from .journal import JobJournal, atomic_write_json, maybe_kill
from .protocol import (
    DEFAULT_ADDRESS,
    LineReader,
    ProtocolError,
    create_listener,
    decode_request,
    encode,
    error_response,
    ok_response,
)

__all__ = ["ServeConfig", "ServeServer", "scenario_from_spec"]

log = logging.getLogger("repro.serve")

#: Admission policies for jobs caught DISPATCHED/RUNNING by a crash.
RECOVER_POLICIES = ("requeue", "fail")


@dataclass(frozen=True)
class ServeConfig(_ParamsBase):
    """Daemon knobs, each declared once with :func:`knob`: ``repro
    serve`` generates one flag per field that has help text (all but
    ``address``, which ``--socket``/``--host``/``--port`` compose).

    ``pace`` throttles execution toward wall-clock time: with
    ``pace=N``, each job occupies its worker for at least
    ``sim_time / N`` wall seconds (N simulated seconds per wall
    second); 0 runs the simulator flat out.  ``workers=0`` is an
    admission-only daemon — jobs queue but never dispatch — which is
    how the queue/cancel/reject paths are tested deterministically.

    ``journal`` enables the write-ahead job journal (crash
    recovery + idempotency across restarts); ``recover`` picks the
    policy for jobs caught mid-flight by a crash.  ``hang_timeout``
    (0 disables) is how long a running job's worker process may go
    without a heartbeat before it is killed; the job is then retried,
    like one whose process crashed, up to ``max_retries`` times after an
    exponential backoff from ``retry_backoff`` seconds.
    """

    address: str = knob(DEFAULT_ADDRESS)
    workers: int = knob(2, "job worker processes", check="non_negative")
    max_pending: int = knob(
        16, "bounded pending-queue depth; submissions past it are "
        "rejected", check="non_negative")
    pace: float = knob(0.0, "wall-clock pacing: simulated seconds per "
                       "wall second (0 = run flat out)",
                       check="non_negative")
    history_out: Optional[str] = knob(
        None, "write the JSON job history to this path on shutdown")
    telemetry_interval: float = knob(
        1.0, "seconds between telemetry ring snapshots (0 disables the "
        "ticker)", check="non_negative")
    drain_timeout: Optional[float] = knob(
        None, "max seconds to wait for running jobs on shutdown before "
        "aborting them (None = wait)", check="non_negative")
    journal: Optional[str] = knob(
        None, "write-ahead job journal path; enables crash recovery and "
        "restart-safe idempotency keys")
    recover: str = knob(
        "requeue", "policy for jobs caught DISPATCHED/RUNNING by a crash: "
        "re-run deterministically (requeue) or terminate INTERRUPTED "
        "(fail)", choices=RECOVER_POLICIES)
    fsync_batch: int = knob(
        8, "journal group-commit size: fsync every N records (durable "
        "records always sync)", check="positive")
    snapshot_every: int = knob(
        256, "compact the journal into a snapshot every N records",
        check="positive")
    hang_timeout: float = knob(
        30.0, "seconds without a heartbeat before a running job's worker "
        "process is killed and the job retried (0 disables)",
        check="non_negative")
    max_retries: int = knob(2, "re-run budget for hung/crashed jobs "
                            "before FAILED", check="non_negative")
    retry_backoff: float = knob(
        0.25, "base of the exponential requeue backoff in seconds",
        check="non_negative")

    def backoff_for(self, attempt: int) -> float:
        """Exponential backoff before re-dispatching attempt N+1."""
        return self.retry_backoff * (2 ** max(0, attempt - 1))


class ServeServer:
    """One daemon instance.  ``start()`` binds, recovers the journal,
    and spins up threads; ``serve_forever()`` additionally installs
    signal handlers and blocks; ``shutdown()`` drains and stops
    (idempotent, thread-safe).
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.address: Optional[str] = None
        self._listener = None
        self._queue = PendingQueue(self.config.max_pending)
        self._jobs: Dict[str, Job] = {}
        self._history: List[str] = []
        self._idempotency: Dict[str, str] = {}
        self._running_ids: set = set()
        self._counters = {key: 0 for key in (
            "submitted", "rejected", "dispatched",
            "completed", "failed", "canceled", "interrupted",
            "requeued", "deduplicated", "hangs", "recovered")}
        self._next_job = 0
        self._avg_wall: Optional[float] = None
        self._telemetry_seq = 0
        self._telemetry_ring: List[Dict[str, Any]] = []
        self._connections: set = set()
        self._lock = threading.RLock()
        self._shutting_down = False
        self._workers_stop = threading.Event()
        self._stopped = threading.Event()
        self._threads: List[threading.Thread] = []
        self._journal: Optional[JobJournal] = None
        self._started_monotonic = 0.0
        self._started_unix = 0.0

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> str:
        """Bind the listener, replay the journal (if any), and start
        all threads; returns the resolved address (TCP port 0 becomes
        the real ephemeral port)."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener, self.address = create_listener(self.config.address)
        self._listener.settimeout(0.2)
        self._started_monotonic = time.monotonic()
        self._started_unix = time.time()
        if self.config.journal:
            self._recover_from_journal()
        accept = threading.Thread(target=self._accept_loop,
                                  name="serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        for index in range(self.config.workers):
            worker = threading.Thread(target=self._worker_loop,
                                      args=(_WorkerSlot(),),
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            worker.start()
            self._threads.append(worker)
        if self.config.telemetry_interval > 0:
            ticker = threading.Thread(target=self._telemetry_loop,
                                      name="serve-telemetry", daemon=True)
            ticker.start()
            self._threads.append(ticker)
        log.info("serving on %s (%d workers, max_pending=%d, journal=%s)",
                 self.address, self.config.workers, self.config.max_pending,
                 self.config.journal or "off")
        return self.address

    def serve_forever(self) -> int:
        """CLI entry: start (if needed), trap SIGINT/SIGTERM into a
        graceful drain, and block until shutdown completes.  Returns 0
        on a clean drain."""
        if self._listener is None:
            self.start()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, self._on_signal)
        except ValueError:  # not the main thread (tests) — skip handlers
            pass
        self._stopped.wait()
        return 0

    def _on_signal(self, signum, frame) -> None:
        log.info("signal %s: draining and shutting down", signum)
        threading.Thread(target=self.shutdown, name="serve-shutdown",
                         daemon=True).start()

    def shutdown(self, mode: str = "drain") -> None:
        """Stop admission, cancel queued jobs, drain (or abort) running
        jobs, compact + close the journal, persist history, release the
        socket.  Safe to call from any thread, any number of times."""
        with self._lock:
            already = self._shutting_down
            self._shutting_down = True
        if already:
            # A concurrent caller owns the drain; wait it out (outside
            # the lock — the owner needs it to finish).
            self._stopped.wait()
            return
        self._cancel_pending()
        if mode == "now":
            with self._lock:
                for job_id in list(self._running_ids):
                    self._jobs[job_id].cancel_requested = True
        self._workers_stop.set()
        deadline = None if self.config.drain_timeout is None \
            else time.monotonic() + self.config.drain_timeout
        with self._lock:
            workers = [t for t in self._threads
                       if t.name.startswith("serve-worker")]
        for thread in workers:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            if thread.is_alive():
                # Drain timed out: abort whatever is still running and
                # collect the worker.
                log.warning("drain timeout: aborting running jobs")
                with self._lock:
                    for job_id in list(self._running_ids):
                        self._jobs[job_id].cancel_requested = True
                thread.join()
        # A retry requeued while the workers drained would never run.
        self._cancel_pending()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        if self._journal is not None:
            # Final compaction: a restart replays one small snapshot
            # instead of the whole log.
            try:
                self._compact_journal()
            finally:
                self._journal.close()
        self._write_history()
        log.info("shutdown complete: %s", self._counters)
        self._stopped.set()

    def _cancel_pending(self) -> None:
        """Cancel every queued job, held ones included (shutdown)."""
        clock = self._clock()
        for job in self._queue.drain():
            with self._lock:
                if job.try_transition(CANCELED, clock=clock,
                                      error="daemon shutdown"):
                    self._journal_transition(job, CANCELED, clock,
                                             durable=False)
                    self._finalize(job)

    def _clock(self) -> float:
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # Journal: appends, snapshots, recovery

    def _journal_submit(self, job: Job) -> None:
        if self._journal is None:
            return
        self._journal.append({"type": "submit", "job": job.job_id,
                              "spec": job.spec, "priority": job.priority,
                              "key": job.key,
                              "clock": job.transitions[0][1]},
                             durable=True)

    def _journal_transition(self, job: Job, state: str, clock: float,
                            durable: bool) -> None:
        """Journal exactly the transition the caller just performed.
        ``state``/``clock`` are passed explicitly — never read back
        from ``job.transitions[-1]``, which a concurrent requeue or
        dispatch could have moved past between the caller's
        ``try_transition`` and this append."""
        if self._journal is None:
            return
        self._journal.append({"type": "transition", "job": job.job_id,
                              "state": state, "clock": clock,
                              "error": job.error, "attempt": job.attempt},
                             durable=durable)

    def _journal_result(self, job: Job) -> None:
        if self._journal is None:
            return
        self._journal.append({"type": "result", "job": job.job_id,
                              "result_json": job.result_json,
                              "events_processed": job.events_processed,
                              "sim_time": job.sim_time})

    def _journal_reject(self) -> None:
        if self._journal is None:
            return
        self._journal.append({"type": "reject"})

    def _journal_state(self) -> Dict[str, Any]:
        """Full daemon state as a snapshot payload (see
        :meth:`JobJournal.write_snapshot`)."""
        with self._lock:
            jobs = []
            for job_id in sorted(self._jobs):
                record = self._jobs[job_id].describe()
                record["result_json"] = self._jobs[job_id].result_json
                jobs.append(record)
            return {
                "jobs": jobs,
                "history": list(self._history),
                "idempotency": dict(self._idempotency),
                "counters": dict(self._counters),
                "next_job": self._next_job,
            }

    def _maybe_snapshot(self) -> None:
        if self._journal is None or not self._journal.should_snapshot:
            return
        self._compact_journal()

    def _compact_journal(self) -> None:
        """Snapshot + compact without losing concurrent appends: the
        seq floor is read *before* the state payload is built and the
        server lock is held across build + write, so every record the
        compaction drops (``seq <= floor``) is provably reflected in
        the snapshot, and anything a non-lock-holding appender slips
        in survives in the rewritten log (``seq > floor``)."""
        with self._lock:
            floor = self._journal.last_seq
            self._journal.write_snapshot(self._journal_state(), floor=floor)

    def _recover_from_journal(self) -> None:
        path = self.config.journal
        snapshot, records, last_seq = JobJournal.load(path)
        self._journal = JobJournal(path,
                                   fsync_batch=self.config.fsync_batch,
                                   snapshot_every=self.config.snapshot_every,
                                   start_seq=last_seq)
        if snapshot is None and not records:
            return  # fresh journal: nothing to restore, no compaction
        state = JobJournal.replay(snapshot, records)
        with self._lock:
            # Counters (a reject-only journal still carries a rejected
            # count), idempotency, and the *replayed* history all come
            # back even when no jobs survived compaction; the history
            # lands before the re-admission loop so _finalize() appends
            # jobs terminalized during recovery on top of it instead of
            # being wiped by a later wholesale assignment.
            for key, value in state["counters"].items():
                self._counters[key] = value
            self._next_job = max(self._next_job, state["next_job"])
            self._idempotency.update(state["idempotency"])
            self._history = list(state["history"])
        clock = self._clock()
        readmit: List[Job] = []
        for job_id in state["order"]:
            record = state["jobs"][job_id]
            scenario, build_error = None, None
            try:
                scenario = scenario_from_spec(record["spec"])
            except Exception as exc:  # registry drift between restarts
                build_error = f"{type(exc).__name__}: {exc}"
            job = Job.restore(record, scenario)
            with self._lock:
                self._jobs[job_id] = job
            if job.terminal:
                continue
            if scenario is None:
                job.try_transition(FAILED, clock=clock, error=json.dumps(
                    {"reason": "unrecoverable_spec",
                     "detail": build_error}, sort_keys=True))
                self._journal_transition(job, FAILED, clock, durable=False)
                self._finalize(job)
                continue
            if job.state == QUEUED:
                readmit.append(job)
            elif self.config.recover == "fail":
                state_at_crash = job.state
                job.try_transition(INTERRUPTED, clock=clock,
                                   error=json.dumps(
                                       {"reason": "daemon_crash",
                                        "state_at_crash": state_at_crash,
                                        "recover": "fail"}, sort_keys=True))
                self._journal_transition(job, INTERRUPTED, clock,
                                         durable=False)
                self._finalize(job)
            elif job.attempt > self.config.max_retries + 1:
                job.try_transition(FAILED, clock=clock, error=json.dumps(
                    {"reason": "retries_exhausted_at_recovery",
                     "attempts": job.attempt}, sort_keys=True))
                self._journal_transition(job, FAILED, clock, durable=False)
                self._finalize(job)
            else:  # requeue: deterministic re-run
                job.attempt += 1
                job.try_transition(QUEUED, clock=clock)
                self._journal_transition(job, QUEUED, clock, durable=False)
                with self._lock:
                    self._counters["recovered"] += 1
                readmit.append(job)
        # Queued jobs re-enter in submission order; the priority heap
        # restores (-priority, seq) dispatch order on top of that.
        for job in readmit:
            self._queue.push(job, force=True)
        # Compact immediately: the restart boots from one snapshot, and
        # the recovery transitions just appended are folded in.
        self._compact_journal()
        log.info("journal recovery: %d jobs (%d re-admitted, "
                 "%d in history), policy=%s",
                 len(state["jobs"]), len(readmit), len(self._history),
                 self.config.recover)

    # ------------------------------------------------------------------
    # Accept loop and connection handling

    def _accept_loop(self) -> None:
        while not self._shutting_down:
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            conn.settimeout(None)
            with self._lock:
                self._connections.add(conn)
            threading.Thread(target=self._handle_connection, args=(conn,),
                             name="serve-conn", daemon=True).start()

    def _handle_connection(self, conn) -> None:
        reader = LineReader(conn)
        try:
            while True:
                try:
                    line = reader.readline()
                except ProtocolError as exc:  # oversized input
                    self._send(conn, error_response(exc.code, exc.message,
                                                    exc.details))
                    break
                if line is None:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_request(line)
                    self._dispatch(request, conn)
                except ProtocolError as exc:
                    self._send(conn, error_response(exc.code, exc.message,
                                                    exc.details))
                except Exception as exc:  # noqa: BLE001 — daemon must survive
                    log.exception("handler error")
                    self._send(conn, error_response(
                        "internal_error", f"{type(exc).__name__}: {exc}"))
        except (ConnectionError, BrokenPipeError, OSError):
            log.debug("client disconnected mid-request")
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send(self, conn, payload: Dict[str, Any]) -> None:
        conn.sendall(encode(payload))

    def _dispatch(self, request: Dict[str, Any], conn) -> None:
        verb = request["verb"]
        if verb == "telemetry":
            self._handle_telemetry(request, conn)
            return
        handler = getattr(self, f"_verb_{verb}")
        payload = handler(request)
        self._send(conn, ok_response(verb, **payload))
        if verb == "shutdown":
            threading.Thread(target=self.shutdown,
                             args=(payload["mode"],),
                             name="serve-shutdown", daemon=True).start()

    # ------------------------------------------------------------------
    # Verbs

    def _verb_ping(self, request) -> Dict[str, Any]:
        return {"address": self.address, "uptime_s": round(self._clock(), 3)}

    def _verb_scenarios(self, request) -> Dict[str, Any]:
        return {"scenarios": scenario_catalog()}

    def _verb_submit(self, request) -> Dict[str, Any]:
        scenario, spec = _build_scenario(request)
        priority = request.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError("bad_request", "priority must be an integer")
        key = request.get("key")
        if key is not None and (not isinstance(key, str)
                                or not key or len(key) > 256):
            raise ProtocolError("bad_request",
                                "key must be a non-empty string of at "
                                "most 256 characters")
        with self._lock:
            if self._shutting_down:
                raise ProtocolError("shutting_down",
                                    "daemon is shutting down; not accepting "
                                    "new jobs")
            if key is not None and key in self._idempotency:
                # Idempotent re-submit: the original job, whatever its
                # current state — including across daemon restarts.
                job = self._jobs[self._idempotency[key]]
                self._counters["deduplicated"] += 1
                return {"job": job.job_id, "state": job.state,
                        "deduplicated": True,
                        "queue_depth": len(self._queue)}
            depth = len(self._queue)
            if depth >= self.config.max_pending:
                self._counters["rejected"] += 1
                self._journal_reject()
                raise ProtocolError(
                    "queue_full",
                    f"pending queue is full ({self.config.max_pending} "
                    f"jobs)",
                    details={"queue_depth": depth,
                             "max_pending": self.config.max_pending,
                             "retry_after_hint": self._retry_hint(depth)})
            self._next_job += 1
            job_id = f"job-{self._next_job:04d}"
            job = Job(job_id, scenario, spec, priority=priority,
                      clock=self._clock(), key=key)
            self._jobs[job_id] = job
            if key is not None:
                self._idempotency[key] = job_id
            self._counters["submitted"] += 1
            # WAL ordering: the submit is durable before it is either
            # acknowledged or runnable, so an acked job is always
            # recoverable and a crash here (chaos point "mid_enqueue")
            # recovers an unacked-but-journaled job exactly once.
            self._journal_submit(job)
            maybe_kill("mid_enqueue")
            self._queue.push(job, force=True)
        self._maybe_snapshot()
        return {"job": job_id, "state": QUEUED, "deduplicated": False,
                "queue_depth": len(self._queue)}

    def _retry_hint(self, depth: int) -> float:
        """Seconds a rejected submitter should wait before retrying:
        queue depth times the observed mean job wall time, divided
        across the worker pool."""
        avg = self._avg_wall if self._avg_wall is not None else 0.5
        return round(max(0.05, depth * avg / max(1, self.config.workers)), 3)

    def _verb_status(self, request) -> Dict[str, Any]:
        job_id = request.get("job")
        if job_id is None:
            with self._lock:
                active = [job.describe() for job in self._jobs.values()
                          if not job.terminal]
            active.sort(key=lambda record: record["id"])
            return {"daemon": self._snapshot(), "jobs": active}
        return {"job": self._get_job(job_id).describe()}

    def _verb_result(self, request) -> Dict[str, Any]:
        job = self._get_job(request.get("job"))
        if job.state == COMPLETED:
            return {"job": job.job_id, "state": job.state,
                    "result_json": job.result_json}
        if job.terminal:
            return {"job": job.job_id, "state": job.state,
                    "error": job.error, "result_json": None}
        raise ProtocolError(
            "not_ready", f"job {job.job_id} is {job.state}; no result yet")

    def _verb_cancel(self, request) -> Dict[str, Any]:
        job = self._get_job(request.get("job"))
        clock = self._clock()
        if job.state == QUEUED:
            with self._lock:
                removed = self._queue.remove(job.job_id)
                if removed is not None and removed.try_transition(
                        CANCELED, clock=clock, error="canceled by client"):
                    self._journal_transition(removed, CANCELED, clock,
                                             durable=True)
                    self._finalize(removed)
                    return {"job": job.job_id, "state": CANCELED,
                            "canceled": True}
        if job.terminal:
            return {"job": job.job_id, "state": job.state, "canceled": False}
        # Dispatched or running (or queued-but-popped): cooperative
        # cancel — the worker and the engine abort hook pick it up.
        job.cancel_requested = True
        return {"job": job.job_id, "state": job.state, "canceled": False,
                "cancel_requested": True}

    def _verb_history(self, request) -> Dict[str, Any]:
        limit = request.get("limit", 50)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ProtocolError("bad_request",
                                "limit must be a positive integer")
        with self._lock:
            job_ids = self._history[-limit:]
            records = [self._jobs[job_id].describe() for job_id in job_ids
                       if job_id in self._jobs]
        return {"jobs": records, "total": len(self._history)}

    def _verb_shutdown(self, request) -> Dict[str, Any]:
        mode = request.get("mode", "drain")
        if mode not in ("drain", "now"):
            raise ProtocolError("bad_request",
                                "shutdown mode must be 'drain' or 'now'")
        return {"mode": mode, "stopping": True}

    def _handle_telemetry(self, request, conn) -> None:
        follow = request.get("follow", 1)
        if not isinstance(follow, int) or isinstance(follow, bool) \
                or not 1 <= follow <= 10000:
            raise ProtocolError("bad_request",
                                "follow must be an integer in [1, 10000]")
        interval = request.get("interval", self.config.telemetry_interval
                               or 1.0)
        try:
            interval = max(0.01, float(interval))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_request",
                                "interval must be a number") from exc
        include_ring = bool(request.get("ring", False))
        for index in range(follow):
            payload = {"snapshot": self._snapshot()}
            if include_ring:
                with self._lock:
                    payload["ring"] = list(self._telemetry_ring)
            self._send(conn, ok_response("telemetry", **payload))
            if index + 1 < follow:
                if self._stopped.wait(interval):
                    return

    def _get_job(self, job_id) -> Job:
        if not isinstance(job_id, str):
            raise ProtocolError("bad_request", "request needs a 'job' id")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError("unknown_job", f"no such job {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # Telemetry

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            self._telemetry_seq += 1
            return {
                "seq": self._telemetry_seq,
                "uptime_s": round(self._clock(), 3),
                "address": self.address,
                "admission": "closed" if self._shutting_down else "open",
                "queue_depth": len(self._queue),
                "max_pending": self._queue.max_pending,
                "workers": self.config.workers,
                "running": sorted(self._running_ids),
                "jobs": states,
                "counters": dict(self._counters),
                "idempotency_keys": len(self._idempotency),
                "journal": (self._journal.stats()
                            if self._journal is not None else None),
            }

    def _telemetry_loop(self) -> None:
        while not self._stopped.wait(self.config.telemetry_interval):
            snapshot = self._snapshot()
            with self._lock:
                self._telemetry_ring.append(snapshot)
                del self._telemetry_ring[:-64]

    # ------------------------------------------------------------------
    # Workers

    def _worker_loop(self, slot: "_WorkerSlot") -> None:
        try:
            while True:
                job = self._queue.pop(timeout=0.2)
                if job is None:
                    if self._workers_stop.is_set():
                        return
                    continue
                self._execute(job, slot)
        finally:
            slot.close()

    def _execute(self, job: Job, slot: "_WorkerSlot") -> None:
        clock = self._clock()
        # Transition + journal append + counters happen atomically
        # under the server lock at every step, so a concurrent
        # compaction (which holds the same lock across state-build +
        # snapshot) can never truncate a record whose effects are not
        # yet in the snapshot, and the journaled record is exactly the
        # transition this worker performed.
        with self._lock:
            if job.cancel_requested \
                    or not job.try_transition(DISPATCHED, clock=clock):
                if job.try_transition(CANCELED, clock=clock,
                                      error="canceled before dispatch"):
                    self._journal_transition(job, CANCELED, clock,
                                             durable=True)
                self._finalize(job)
                return
            self._journal_transition(job, DISPATCHED, clock, durable=False)
            self._counters["dispatched"] += 1
            self._running_ids.add(job.job_id)
        try:
            # Spawn and import time never count against hang_timeout.
            slot.start()
            with self._lock:
                clock = self._clock()
                if job.try_transition(RUNNING, clock=clock):
                    # Durable so --recover=fail can tell "was mid-run"
                    # from "never dispatched" after a crash.
                    self._journal_transition(job, RUNNING, clock,
                                             durable=True)
            maybe_kill("mid_run")
            started = time.monotonic()
            reply = slot.run(job, self.config.hang_timeout)
        except (EOFError, OSError):  # the process crashed
            slot.close()
            self._retry(job, "worker_died")
            return
        kind = reply[0]
        if kind == "hung":
            with self._lock:
                self._counters["hangs"] += 1
            log.warning("%s: no heartbeat for %.3fs (attempt %d); "
                        "killed its worker process", job.job_id,
                        self.config.hang_timeout, job.attempt)
            slot.close()
            self._retry(job, "watchdog_hang")
            return
        paced = True
        if kind == "done":
            job.result_json, job.events_processed, job.sim_time = reply[1:]
            paced = self._pace(job.sim_time, started, job)
        with self._lock:
            clock = self._clock()
            if kind == "aborted":
                final, err = CANCELED, "canceled while running"
            elif kind == "error":
                final, err = FAILED, reply[1]
            elif paced:
                final, err = COMPLETED, None
                self._journal_result(job)
            else:  # canceled mid-pacing: the result is discarded
                job.result_json = None
                final, err = CANCELED, "canceled while running (paced)"
            if job.try_transition(final, clock=clock, error=err):
                self._journal_transition(job, final, clock, durable=True)
                if final == COMPLETED:
                    wall = time.monotonic() - started
                    self._avg_wall = wall if self._avg_wall is None \
                        else 0.8 * self._avg_wall + 0.2 * wall
            self._finalize(job)
        self._maybe_snapshot()

    def _pace(self, sim_time: float, started: float, job: Job) -> bool:
        """Wall-clock pacing: hold the worker until ``sim_time /
        config.pace`` wall seconds have elapsed.  Returns False if the
        job was canceled while pacing."""
        if self.config.pace <= 0:
            return True
        deadline = started + sim_time / self.config.pace
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return True
            if job.cancel_requested:
                return False
            time.sleep(min(remaining, 0.05))

    def _finalize(self, job: Job) -> None:
        with self._lock:
            self._running_ids.discard(job.job_id)
            if job.terminal and job.job_id not in self._history:
                self._history.append(job.job_id)
                self._counters[job.state.lower()] += 1

    def _retry(self, job: Job, reason: str) -> None:
        """The job's worker process hung (and was killed) or died:
        cancel the job if a client asked to, else requeue it behind its
        backoff, or fail it past its retries with a structured
        ``reason``."""
        with self._lock:
            self._running_ids.discard(job.job_id)
            clock = self._clock()
            if job.cancel_requested:
                final, error = CANCELED, "canceled while running"
            elif job.attempt > self.config.max_retries:
                final, error = FAILED, json.dumps(
                    {"reason": reason, "attempts": job.attempt,
                     "hang_timeout": self.config.hang_timeout,
                     "max_retries": self.config.max_retries},
                    sort_keys=True)
            else:
                delay = self.config.backoff_for(job.attempt)
                job.attempt += 1
                if job.try_transition(QUEUED, clock=clock):
                    self._counters["requeued"] += 1
                    self._journal_transition(job, QUEUED, clock,
                                             durable=True)
                    self._queue.push(job, force=True, delay=delay)
                return
            if job.try_transition(final, clock=clock, error=error):
                self._journal_transition(job, final, clock, durable=True)
            self._finalize(job)

    # ------------------------------------------------------------------
    # History persistence

    def _write_history(self) -> None:
        if not self.config.history_out:
            return
        with self._lock:
            payload = {
                "daemon": {
                    "address": self.address,
                    "started_unix": self._started_unix,
                    "workers": self.config.workers,
                    "max_pending": self.config.max_pending,
                    "pace": self.config.pace,
                    "journal": self.config.journal,
                    "recover": self.config.recover,
                },
                "counters": dict(self._counters),
                "jobs": [self._jobs[job_id].describe()
                         for job_id in self._history
                         if job_id in self._jobs],
            }
        atomic_write_json(self.config.history_out, payload)
        log.info("wrote job history to %s (%d jobs)",
                 self.config.history_out, len(payload["jobs"]))


# ---------------------------------------------------------------------------
# Worker processes

class _WorkerSlot:
    """One worker's process and the daemon's end of its pipe.  It starts
    on the worker's first job and runs every later one (its profile
    cache stays warm) until it dies or the daemon shuts down."""

    process = None  # the live worker process, if any
    _conn = None

    def start(self) -> None:
        """Start the process unless it is up, and wait until it has
        imported the simulator; raises EOFError if it dies first."""
        if self.process is not None:
            return
        ctx = multiprocessing.get_context("spawn")  # the daemon has threads
        self._conn, child_conn = ctx.Pipe()
        # run_scenario is read here and pickled by name, so a test that
        # patches it with a module-level fake reaches the process.
        process = ctx.Process(target=_worker_main,
                              name=threading.current_thread().name,
                              args=(child_conn, run_scenario), daemon=True)
        process.start()
        self.process = process
        child_conn.close()
        self._conn.recv()

    def run(self, job: Job, hang_timeout: float) -> tuple:
        """Run ``job`` and return the reply, forwarding a cancel.  With
        ``hang_timeout > 0``, a run that sends no heartbeat for that
        many seconds has its process killed and returns ``("hung",)``.
        Raises EOFError/OSError if the process dies."""
        self._conn.send((job.scenario, job.attempt))
        beat = time.monotonic()
        canceling = False
        while True:
            if job.cancel_requested and not canceling:
                self._conn.send(None)
                canceling = True
            if self._conn.poll(0.05):
                reply = self._conn.recv()
                if reply is not None:
                    return reply
                beat = time.monotonic()
            elif 0 < hang_timeout < time.monotonic() - beat:
                self.process.kill()
                return ("hung",)

    def close(self) -> None:
        """EOF on the pipe ends the process; reap it, killed if slow."""
        if self.process is not None:
            self._conn.close()
            self.process.join(5.0)
            self.process.kill()  # a no-op once it has exited
            self.process.join()
            self.process = None


def _worker_main(conn, runner) -> None:
    """A worker process: run each ``(scenario, attempt)`` received and
    reply ``("done", to_json(), events_processed, sim_time)``,
    ``("aborted",)`` (canceled by the client) or ``("error", text)``;
    exit on EOF.  The abort hook sends heartbeats (``None``); a ``None``
    received is a cancel."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C: the daemon drains

    def heartbeat_abort_check() -> bool:
        conn.send(None)
        return conn.poll()

    set_abort_check(heartbeat_abort_check)
    try:
        conn.send(None)  # ready
        while True:
            request = conn.recv()
            if request is None:
                continue  # an abort that arrived after its run ended
            scenario, attempt = request
            if attempt == 1:
                maybe_kill("worker_mid_run")
            try:
                outcome = runner(scenario)
                reply = ("done", outcome.to_json(),
                         outcome.events_processed, outcome.sim_time)
            except RunAborted:
                reply = ("aborted",)
            except Exception as exc:  # noqa: BLE001 — job isolation contract
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    except (EOFError, OSError):
        return  # the daemon closed the pipe, or died


# ---------------------------------------------------------------------------
# Submission -> Scenario

def scenario_from_spec(spec: Dict[str, Any]) -> Scenario:
    """Rebuild the Scenario a journaled submission spec describes —
    the recovery-side inverse of :func:`_build_scenario`.  Inline
    specs carry ``kind``/``params`` (seed and duration already folded
    in); registry specs carry ``name``/``seed``/``duration``/
    ``overrides``."""
    if "kind" in spec:
        return Scenario(kind=spec["kind"], name=spec.get("name") or "",
                        params=dict(spec.get("params") or {}))
    overrides = spec.get("overrides") or {}
    return make_scenario(spec["name"], seed=spec.get("seed", 0),
                         duration=spec.get("duration"), **overrides)


def _build_scenario(request: Dict[str, Any]):
    """Build the Scenario a submit request names, or raise a structured
    ``bad_scenario``/``bad_request`` error.

    Two submission shapes: ``{"name": <registry name>, "seed",
    "duration", "overrides"}`` goes through ``make_scenario`` (the same
    catalog the CLI/sweep/trace use), and ``{"scenario": {"kind",
    "params"}}`` builds an inline Scenario, validated like any other.
    """
    seed = request.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("bad_request", "seed must be an integer")
    duration = request.get("duration")
    if duration is not None:
        try:
            duration = float(duration)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_request",
                                "duration must be a number") from exc
    name = request.get("name")
    inline = request.get("scenario")
    if name is not None:
        if not isinstance(name, str):
            raise ProtocolError("bad_request", "name must be a string")
        overrides = request.get("overrides") or {}
        if not isinstance(overrides, dict) \
                or not all(isinstance(k, str) for k in overrides):
            raise ProtocolError("bad_request",
                                "overrides must be an object with string "
                                "keys")
        try:
            scenario = make_scenario(name, seed=seed, duration=duration,
                                     **overrides)
        except Exception as exc:  # bad name or bad override values
            raise ProtocolError("bad_scenario", str(exc)) from exc
        spec = {"name": name, "seed": seed, "duration": duration,
                "overrides": overrides}
        return scenario, spec
    if inline is not None:
        if not isinstance(inline, dict):
            raise ProtocolError("bad_request",
                                "scenario must be an object with a 'kind'")
        kind = inline.get("kind")
        params = dict(inline.get("params") or {})
        params["seed"] = seed
        if duration is not None:
            params["duration"] = duration
        try:
            scenario = Scenario(kind=kind, name=inline.get("name") or "",
                                params=params)
        except Exception as exc:
            raise ProtocolError("bad_scenario", str(exc)) from exc
        spec = {"kind": kind, "name": inline.get("name") or "",
                "params": params}
        return scenario, spec
    raise ProtocolError("bad_request",
                        "submit needs a registry 'name' or an inline "
                        "'scenario' object")
