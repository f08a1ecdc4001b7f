"""Write-ahead job journal for the serve daemon (DESIGN.md §6.8).

The journal is the daemon's durability spine: every job event is
appended as one NDJSON record to ``<path>`` *before* it is
acknowledged or acted on, and the daemon replays the file on startup
so a crash — up to and including ``kill -9`` — loses no job.  Records:

* ``{"type": "submit", "seq", "job", "spec", "priority", "key",
  "clock"}`` — a job was admitted (written durably before the submit
  response is sent, so an acknowledged job is always recoverable);
* ``{"type": "transition", "seq", "job", "state", "clock", "error",
  "attempt"}`` — a lifecycle move (terminal ones are fsynced, interior
  DISPATCHED/RUNNING ones ride the batch);
* ``{"type": "result", "seq", "job", "result_json", "events_processed",
  "sim_time"}`` — the *exact* ``run(scenario).to_json()`` byte string,
  embedded as a JSON string so replay restores it byte-for-byte;
* ``{"type": "reject", "seq"}`` — a ``queue_full`` shed (counter
  accounting only).

**Fsync batching.**  Appends buffer in the OS file object; a flush +
``os.fsync`` happens when ``durable=True`` is requested (submits,
results, terminal transitions) or every ``fsync_batch`` records,
whichever comes first.  Interior transitions are therefore cheap and
the recovery semantics absorb the window: a DISPATCHED/RUNNING record
that never hit disk just means the job replays as QUEUED, which the
``requeue`` policy re-runs deterministically anyway.

**Compaction.**  Once ``snapshot_every`` records accumulate, the
daemon writes a full-state snapshot to ``<path>.snapshot`` atomically
(temp file + ``os.replace`` — a crash mid-persist can never truncate
the previous snapshot) and rewrites the log (also via temp file +
``os.replace``) down to the records the snapshot does *not* cover.
Every record carries a monotonic ``seq`` and the snapshot stores
``last_seq``: the caller reads :attr:`JobJournal.last_seq` *before*
building the state payload and passes it as the compaction ``floor``,
so a record appended concurrently — journaled but absent from the
payload — has ``seq > floor`` and survives in the rewritten log
instead of being compacted away.  Replay skips records with ``seq <=
last_seq``, so a crash *between* the snapshot replace and the log
rewrite double-applies nothing.

**Torn tails.**  A crash mid-append can leave a final partial line.
:meth:`JobJournal.load` tolerates exactly that — an undecodable *last*
line is dropped (the record was never acknowledged); an undecodable
*interior* line raises :class:`JournalError` because it means real
corruption, not a crash.

**Chaos seams.**  When the ``REPRO_SERVE_KILL_AT`` environment
variable names an injection point (:data:`KILL_POINTS`), the daemon
SIGKILLs *itself* at that point (at ``worker_mid_run``, a worker
process does, on a job's first attempt) — that is how the chaos harness
(tests/test_serve_chaos.py, CI ``serve-recovery``) proves the recovery
invariants without any sleep-and-hope timing.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "JournalError",
    "JobJournal",
    "atomic_write_json",
    "KILL_POINTS",
    "maybe_kill",
]

#: SIGKILL injection points understood by the chaos harness.
KILL_POINTS = ("mid_enqueue", "mid_run", "mid_result_write",
               "mid_compaction", "worker_mid_run")

_KILL_ENV = "REPRO_SERVE_KILL_AT"


def maybe_kill(point: str) -> None:
    """Chaos seam: SIGKILL this process iff ``REPRO_SERVE_KILL_AT``
    names ``point``.  A no-op in production (env var unset)."""
    if os.environ.get(_KILL_ENV) == point:
        os.kill(os.getpid(), signal.SIGKILL)


class JournalError(RuntimeError):
    """The journal or snapshot is corrupt beyond a torn tail."""


def atomic_write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as JSON to ``path`` atomically: temp file in
    the same directory, flush + fsync, then ``os.replace``.  A crash at
    any instant leaves either the old file or the new one — never a
    truncated hybrid.  Used for journal snapshots and ``--history-out``.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"),
                  default=float)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _encode(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":"),
                       default=float) + "\n").encode("utf-8")


class JobJournal:
    """Append-only NDJSON write-ahead log plus its compacted snapshot.

    Thread-safe; the daemon appends from connection handlers, worker
    threads, and the shutdown path concurrently.
    """

    def __init__(self, path: str, *, fsync_batch: int = 8,
                 snapshot_every: int = 256, start_seq: int = 0):
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be >= 1")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.path = path
        self.snapshot_path = f"{path}.snapshot"
        self.fsync_batch = fsync_batch
        self.snapshot_every = snapshot_every
        self._lock = threading.Lock()
        self._fh = open(path, "ab")
        self._seq = start_seq
        self._unsynced = 0
        self._since_snapshot = 0
        self.records_appended = 0
        self.snapshots_written = 0
        self._kill_point = os.environ.get(_KILL_ENV)

    # ------------------------------------------------------------------
    # Appending

    def append(self, record: Dict[str, Any], durable: bool = False) -> int:
        """Append one record; returns its ``seq``.  ``durable=True``
        forces the write (and everything batched before it) to disk
        before returning — group commit, so one fsync covers the whole
        batch."""
        with self._lock:
            self._seq += 1
            record = dict(record)
            record["seq"] = self._seq
            data = _encode(record)
            if self._kill_point == "mid_result_write" \
                    and record.get("type") == "result":
                # Chaos: persist a torn half-record, then die.  Replay
                # must drop the partial tail and requeue the job.
                self._fh.write(data[:max(1, len(data) // 2)])
                self._fh.flush()
                os.fsync(self._fh.fileno())
                maybe_kill("mid_result_write")
            self._fh.write(data)
            self._unsynced += 1
            self.records_appended += 1
            self._since_snapshot += 1
            if durable or self._unsynced >= self.fsync_batch:
                self._sync_locked()
            return self._seq

    def flush(self) -> None:
        """Force everything appended so far to disk."""
        with self._lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._unsynced = 0

    @property
    def should_snapshot(self) -> bool:
        with self._lock:
            return self._since_snapshot >= self.snapshot_every

    @property
    def last_seq(self) -> int:
        """Highest sequence number appended so far.  Read this *before*
        building a snapshot payload and pass it to
        :meth:`write_snapshot` as ``floor``: any record appended while
        the payload is being built then has ``seq > floor`` and is
        preserved by the compaction instead of truncated."""
        with self._lock:
            return self._seq

    # ------------------------------------------------------------------
    # Compaction

    def write_snapshot(self, payload: Dict[str, Any],
                       floor: Optional[int] = None) -> None:
        """Persist the full daemon state atomically, then compact the
        log down to records with ``seq > floor``.

        ``payload`` is the server-built state dict; this adds
        ``last_seq = floor`` (defaulting to the current sequence
        number — only safe when the caller serialized the payload
        build against appends).  Records newer than ``floor`` were
        journaled while the payload was being built and are absent
        from it, so they are *rewritten into the fresh log* rather
        than truncated — an acknowledged record can never be compacted
        away.  Crash-safe at every instant: before the snapshot
        ``os.replace`` the old snapshot + full log replay; after it
        the new snapshot's ``last_seq`` makes covered log records
        no-ops; the log rewrite itself goes through a temp file +
        ``os.replace``, so the log is always either the old one or the
        compacted one."""
        with self._lock:
            if floor is None:
                floor = self._seq
            payload = dict(payload)
            payload["version"] = 1
            payload["last_seq"] = floor
            self._sync_locked()
            survivors = self._tail_after_locked(floor)
            atomic_write_json(self.snapshot_path, payload)
            maybe_kill("mid_compaction")
            self._fh.close()
            tmp = f"{self.path}.compact"
            with open(tmp, "wb") as fh:
                for line in survivors:
                    fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fh = open(self.path, "ab")
            self._unsynced = 0
            self._since_snapshot = len(survivors)
            self.snapshots_written += 1

    def _tail_after_locked(self, floor: int) -> List[bytes]:
        """Raw journal lines with ``seq > floor`` (lock held, file
        synced).  A torn tail left by a pre-boot crash was never
        acknowledged and is dropped, matching :meth:`load`."""
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []  # log deleted externally: nothing to preserve
        survivors: List[bytes] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("seq", 0) > floor:
                survivors.append(line + b"\n")
        return survivors

    def close(self) -> None:
        with self._lock:
            try:
                self._sync_locked()
            finally:
                self._fh.close()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "path": self.path,
                "last_seq": self._seq,
                "records_appended": self.records_appended,
                "records_since_snapshot": self._since_snapshot,
                "snapshots_written": self.snapshots_written,
                "fsync_batch": self.fsync_batch,
                "snapshot_every": self.snapshot_every,
            }

    # ------------------------------------------------------------------
    # Loading / replay

    @staticmethod
    def load(path: str) -> Tuple[Optional[Dict[str, Any]],
                                 List[Dict[str, Any]], int]:
        """Read ``(snapshot, records, last_seq)`` for ``path``.

        ``snapshot`` is None when no snapshot exists; ``records`` are
        the journal records with ``seq`` *greater than* the snapshot's
        ``last_seq`` (stale pre-compaction records are skipped — that
        is what makes a crash mid-compaction replay-idempotent);
        ``last_seq`` is the highest sequence number seen anywhere, the
        ``start_seq`` a fresh :class:`JobJournal` must resume from.
        """
        snapshot: Optional[Dict[str, Any]] = None
        snapshot_path = f"{path}.snapshot"
        if os.path.exists(snapshot_path):
            try:
                with open(snapshot_path, "r", encoding="utf-8") as fh:
                    snapshot = json.load(fh)
            except ValueError as exc:
                raise JournalError(
                    f"corrupt journal snapshot {snapshot_path}: {exc}"
                ) from exc
        floor = snapshot["last_seq"] if snapshot else 0
        last_seq = floor
        records: List[Dict[str, Any]] = []
        if os.path.exists(path):
            with open(path, "rb") as fh:
                raw = fh.read()
            lines = raw.split(b"\n")
            # A complete final record ends with a newline, so the last
            # split element is empty; anything else is a torn tail.
            torn = lines.pop() if lines else b""
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise JournalError(
                        f"corrupt journal record at line {index + 1} "
                        f"of {path}: {exc}") from exc
                seq = record.get("seq", 0)
                last_seq = max(last_seq, seq)
                if seq > floor:
                    records.append(record)
            if torn.strip():
                try:
                    record = json.loads(torn)
                except ValueError:
                    pass  # torn tail from a crash mid-append: dropped
                else:
                    # Complete JSON that merely lost its newline.
                    seq = record.get("seq", 0)
                    last_seq = max(last_seq, seq)
                    if seq > floor:
                        records.append(record)
        return snapshot, records, last_seq

    @staticmethod
    def replay(snapshot: Optional[Dict[str, Any]],
               records: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Fold ``(snapshot, records)`` into recovered daemon state::

            {"jobs": {job_id: record_dict}, "order": [job_id...],
             "history": [...], "idempotency": {key: job_id},
             "counters": {...}, "next_job": int}

        Each job record dict matches :meth:`repro.serve.jobs.Job.restore`
        input.  ``order`` preserves submission order for deterministic
        re-admission.
        """
        jobs: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        history: List[str] = []
        idempotency: Dict[str, str] = {}
        counters: Dict[str, int] = {}
        next_job = 0
        if snapshot is not None:
            for record in snapshot.get("jobs", []):
                jobs[record["id"]] = dict(record)
                order.append(record["id"])
            history = list(snapshot.get("history", []))
            idempotency = dict(snapshot.get("idempotency", {}))
            counters = dict(snapshot.get("counters", {}))
            next_job = snapshot.get("next_job", 0)
        for record in records:
            kind = record.get("type")
            if kind == "submit":
                job_id = record["job"]
                if job_id in jobs:
                    # Already captured by the snapshot (the record was
                    # appended while the snapshot payload was built and
                    # preserved past compaction): re-applying would
                    # duplicate the job in ``order`` and re-run it.
                    continue
                jobs[job_id] = {
                    "id": job_id,
                    "state": "QUEUED",
                    "spec": record.get("spec") or {},
                    "priority": record.get("priority", 0),
                    "key": record.get("key"),
                    "attempt": 1,
                    "error": None,
                    "result_json": None,
                    "events_processed": None,
                    "sim_time": None,
                    "transitions": [["QUEUED", record.get("clock", 0.0)]],
                }
                order.append(job_id)
                if record.get("key"):
                    idempotency[record["key"]] = job_id
                counters["submitted"] = counters.get("submitted", 0) + 1
                next_job = max(next_job, _job_number(job_id))
            elif kind == "transition":
                job = jobs.get(record["job"])
                if job is None:
                    continue  # transition for a compacted-away job
                state = record["state"]
                entry = [state, record.get("clock", 0.0)]
                if job["state"] == state and job["transitions"] \
                        and job["transitions"][-1] == entry:
                    # The snapshot already reflects this exact
                    # transition (record preserved past compaction):
                    # skip it so counters and the transition history
                    # are not double-applied.
                    continue
                job["state"] = state
                job["attempt"] = record.get("attempt", job.get("attempt", 1))
                if record.get("error") is not None:
                    job["error"] = record["error"]
                job["transitions"].append([state, record.get("clock", 0.0)])
                if state == "DISPATCHED":
                    counters["dispatched"] = counters.get("dispatched", 0) + 1
                elif state == "QUEUED":
                    # Submit records carry the initial QUEUED; a QUEUED
                    # *transition* is always a requeue.
                    counters["requeued"] = counters.get("requeued", 0) + 1
                if state in ("COMPLETED", "FAILED", "CANCELED",
                             "INTERRUPTED"):
                    if record["job"] not in history:
                        history.append(record["job"])
                    counters[state.lower()] = \
                        counters.get(state.lower(), 0) + 1
            elif kind == "result":
                job = jobs.get(record["job"])
                if job is None:
                    continue
                job["result_json"] = record.get("result_json")
                job["events_processed"] = record.get("events_processed")
                job["sim_time"] = record.get("sim_time")
            elif kind == "reject":
                counters["rejected"] = counters.get("rejected", 0) + 1
        # A journaled result only counts once its COMPLETED transition
        # also made it to disk — otherwise the run is re-done (and the
        # determinism contract makes the re-run byte-identical anyway).
        for job in jobs.values():
            if job["state"] != "COMPLETED":
                job["result_json"] = None
        return {"jobs": jobs, "order": order, "history": history,
                "idempotency": idempotency, "counters": counters,
                "next_job": next_job}


def _job_number(job_id: str) -> int:
    try:
        return int(job_id.rsplit("-", 1)[-1])
    except ValueError:
        return 0
