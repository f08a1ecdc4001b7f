"""Unit tests for the write-ahead job journal and startup recovery.

Everything here is in-process and deterministic: journals are written
through the :class:`JobJournal` API (or hand-corrupted on disk) and
replayed, and recovery semantics are exercised by starting a real
:class:`ServeServer` on a pre-seeded journal.  The kill-9 chaos harness
that crashes a live daemon lives in tests/test_serve_chaos.py.
"""

import json
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager

import pytest

from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run
from repro.serve import (
    CANCELED,
    COMPLETED,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    JobJournal,
    JournalError,
    ServeClient,
    ServeConfig,
    ServeServer,
    atomic_write_json,
)


@contextmanager
def serve_daemon(**kwargs):
    kwargs.setdefault("address", "tcp:127.0.0.1:0")
    kwargs.setdefault("telemetry_interval", 0)
    server = ServeServer(ServeConfig(**kwargs))
    address = server.start()
    try:
        yield server, address
    finally:
        server.shutdown()


def _read_lines(path):
    with open(path, "rb") as fh:
        return [json.loads(line) for line in fh.read().splitlines()
                if line.strip()]


# ---------------------------------------------------------------------------
# Append / load mechanics


class TestJournalAppendLoad:
    def test_round_trip_preserves_records_and_seq(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path)
        journal.append({"type": "submit", "job": "job-0001"}, durable=True)
        journal.append({"type": "transition", "job": "job-0001",
                        "state": "DISPATCHED"})
        journal.close()
        snapshot, records, last_seq = JobJournal.load(path)
        assert snapshot is None
        assert [r["type"] for r in records] == ["submit", "transition"]
        assert [r["seq"] for r in records] == [1, 2]
        assert last_seq == 2

    def test_fsync_batching_defers_then_flushes(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path, fsync_batch=4)
        for index in range(3):
            journal.append({"type": "reject", "n": index})
        # Buffered in the file object: not necessarily on disk yet, but
        # the 4th append crosses the batch and must flush everything.
        journal.append({"type": "reject", "n": 3})
        assert len(_read_lines(path)) == 4
        journal.close()

    def test_durable_append_is_immediately_readable(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path, fsync_batch=1000)
        journal.append({"type": "submit", "job": "job-0001"}, durable=True)
        assert len(_read_lines(path)) == 1
        journal.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path)
        journal.append({"type": "submit", "job": "job-0001"}, durable=True)
        journal.append({"type": "submit", "job": "job-0002"}, durable=True)
        journal.close()
        with open(path, "ab") as fh:  # simulate a crash mid-append
            fh.write(b'{"type":"transition","job":"job-00')
        snapshot, records, last_seq = JobJournal.load(path)
        assert [r["job"] for r in records] == ["job-0001", "job-0002"]
        assert last_seq == 2

    def test_complete_tail_missing_newline_is_kept(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        with open(path, "wb") as fh:
            fh.write(b'{"type":"submit","job":"job-0001","seq":1}\n')
            fh.write(b'{"type":"reject","seq":2}')  # no trailing newline
        _, records, last_seq = JobJournal.load(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert last_seq == 2

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        with open(path, "wb") as fh:
            fh.write(b'{"type":"submit","job":"job-0001","seq":1}\n')
            fh.write(b"garbage not json\n")
            fh.write(b'{"type":"reject","seq":3}\n')
        with pytest.raises(JournalError):
            JobJournal.load(path)

    def test_corrupt_snapshot_raises(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        with open(path + ".snapshot", "w", encoding="utf-8") as fh:
            fh.write("{truncated")
        with pytest.raises(JournalError):
            JobJournal.load(path)

    def test_non_ascii_payloads_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path)
        spec = {"name": "faults", "note": "snabb körning 🚀 – проверка"}
        journal.append({"type": "submit", "job": "job-0001", "spec": spec,
                        "key": "clé-η-鍵"}, durable=True)
        journal.close()
        _, records, _ = JobJournal.load(path)
        assert records[0]["spec"] == spec
        assert records[0]["key"] == "clé-η-鍵"


class TestSnapshotCompaction:
    def test_snapshot_truncates_log_and_replay_resumes(self, tmp_path):
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path, snapshot_every=2)
        journal.append({"type": "reject"})
        journal.append({"type": "reject"})
        assert journal.should_snapshot
        journal.write_snapshot({"jobs": [], "history": [],
                                "idempotency": {}, "counters": {"rejected": 2},
                                "next_job": 0})
        assert os.path.getsize(path) == 0  # log truncated
        journal.append({"type": "reject"}, durable=True)
        journal.close()
        snapshot, records, last_seq = JobJournal.load(path)
        assert snapshot["last_seq"] == 2
        assert snapshot["counters"] == {"rejected": 2}
        assert [r["seq"] for r in records] == [3]
        assert last_seq == 3

    def test_replay_skips_records_at_or_below_snapshot_floor(self, tmp_path):
        # A crash between the snapshot os.replace and the log
        # truncation leaves stale pre-snapshot records in the log;
        # their seq <= last_seq makes them no-ops.
        path = str(tmp_path / "wal.ndjson")
        with open(path, "wb") as fh:
            fh.write(b'{"type":"reject","seq":1}\n')
            fh.write(b'{"type":"reject","seq":2}\n')
            fh.write(b'{"type":"reject","seq":3}\n')
        atomic_write_json(path + ".snapshot",
                          {"version": 1, "last_seq": 2, "jobs": [],
                           "history": [], "idempotency": {},
                           "counters": {"rejected": 2}, "next_job": 0})
        snapshot, records, last_seq = JobJournal.load(path)
        assert [r["seq"] for r in records] == [3]
        state = JobJournal.replay(snapshot, records)
        assert state["counters"]["rejected"] == 3  # 2 from snapshot + 1

    def test_snapshot_preserves_records_appended_past_floor(self, tmp_path):
        # The server reads the seq floor, then builds the state
        # payload; a record appended in between is absent from the
        # payload and must survive compaction in the rewritten log —
        # truncating it would permanently lose a durably-acked job.
        path = str(tmp_path / "wal.ndjson")
        journal = JobJournal(path)
        journal.append(_submit_record("job-0001"), durable=True)
        floor = journal.last_seq
        journal.append(_submit_record("job-0002"), durable=True)
        journal.write_snapshot(
            {"jobs": [], "history": [], "idempotency": {},
             "counters": {"submitted": 1}, "next_job": 1}, floor=floor)
        journal.append({"type": "reject"}, durable=True)
        journal.close()
        snapshot, records, last_seq = JobJournal.load(path)
        assert snapshot["last_seq"] == floor == 1
        assert [r.get("job") for r in records] == ["job-0002", None]
        assert last_seq == 3
        state = JobJournal.replay(snapshot, records)
        assert "job-0002" in state["jobs"]
        assert state["counters"]["submitted"] == 2
        assert state["counters"]["rejected"] == 1

    def test_atomic_write_preserves_original_until_replace(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text('{"old": true}')
        atomic_write_json(str(target), {"new": True})
        assert json.loads(target.read_text()) == {"new": True}
        assert not (tmp_path / "out.json.tmp").exists()


# ---------------------------------------------------------------------------
# Replay semantics


def _submit_record(job_id, key=None, priority=0, spec=None):
    return {"type": "submit", "job": job_id, "priority": priority,
            "key": key, "clock": 0.0,
            "spec": spec or {"name": "faults", "seed": 0,
                             "duration": 0.05, "overrides": {}}}


class TestReplay:
    def test_submit_then_terminal_builds_history(self):
        records = [
            dict(_submit_record("job-0001"), seq=1),
            {"type": "transition", "job": "job-0001", "state": "DISPATCHED",
             "clock": 0.1, "error": None, "attempt": 1, "seq": 2},
            {"type": "transition", "job": "job-0001", "state": "RUNNING",
             "clock": 0.2, "error": None, "attempt": 1, "seq": 3},
            {"type": "result", "job": "job-0001", "result_json": '{"a":1}',
             "events_processed": 7, "sim_time": 0.05, "seq": 4},
            {"type": "transition", "job": "job-0001", "state": "COMPLETED",
             "clock": 0.3, "error": None, "attempt": 1, "seq": 5},
        ]
        state = JobJournal.replay(None, records)
        job = state["jobs"]["job-0001"]
        assert job["state"] == COMPLETED
        assert job["result_json"] == '{"a":1}'
        assert state["history"] == ["job-0001"]
        assert state["counters"]["completed"] == 1
        assert state["counters"]["dispatched"] == 1
        assert state["next_job"] == 1

    def test_result_without_completed_transition_is_discarded(self):
        # The result record hit disk but the COMPLETED transition did
        # not (crash in between): the job must re-run, not serve a
        # result it never durably finished.
        records = [
            dict(_submit_record("job-0001"), seq=1),
            {"type": "transition", "job": "job-0001", "state": "RUNNING",
             "clock": 0.2, "error": None, "attempt": 1, "seq": 2},
            {"type": "result", "job": "job-0001", "result_json": '{"a":1}',
             "events_processed": 7, "sim_time": 0.05, "seq": 3},
        ]
        state = JobJournal.replay(None, records)
        job = state["jobs"]["job-0001"]
        assert job["state"] == "RUNNING"
        assert job["result_json"] is None

    def test_submit_already_in_snapshot_not_reapplied(self):
        # A submit record preserved past compaction (appended while the
        # snapshot payload was being built): re-applying it would put
        # the job in ``order`` twice and run it twice.
        snapshot = {"version": 1, "last_seq": 0, "next_job": 1,
                    "history": [], "idempotency": {"k1": "job-0001"},
                    "counters": {"submitted": 1},
                    "jobs": [{"id": "job-0001", "state": QUEUED,
                              "spec": {"name": "faults", "seed": 0,
                                       "duration": 0.05, "overrides": {}},
                              "priority": 0, "key": "k1", "attempt": 1,
                              "error": None, "result_json": None,
                              "events_processed": None, "sim_time": None,
                              "transitions": [[QUEUED, 0.5]]}]}
        records = [dict(_submit_record("job-0001", key="k1"), seq=1)]
        state = JobJournal.replay(snapshot, records)
        assert state["order"] == ["job-0001"]
        assert state["counters"]["submitted"] == 1
        assert state["jobs"]["job-0001"]["transitions"] == [[QUEUED, 0.5]]

    def test_transition_already_in_snapshot_not_reapplied(self):
        snapshot = {"version": 1, "last_seq": 0, "next_job": 1,
                    "history": [], "idempotency": {},
                    "counters": {"submitted": 1, "dispatched": 1},
                    "jobs": [{"id": "job-0001", "state": "DISPATCHED",
                              "spec": {"name": "faults", "seed": 0,
                                       "duration": 0.05, "overrides": {}},
                              "priority": 0, "key": None, "attempt": 1,
                              "error": None, "result_json": None,
                              "events_processed": None, "sim_time": None,
                              "transitions": [[QUEUED, 0.0],
                                              ["DISPATCHED", 0.1]]}]}
        records = [{"type": "transition", "job": "job-0001",
                    "state": "DISPATCHED", "clock": 0.1, "error": None,
                    "attempt": 1, "seq": 3}]
        state = JobJournal.replay(snapshot, records)
        job = state["jobs"]["job-0001"]
        assert job["transitions"] == [[QUEUED, 0.0], ["DISPATCHED", 0.1]]
        assert state["counters"]["dispatched"] == 1

    def test_idempotency_and_next_job_survive_replay(self):
        records = [
            dict(_submit_record("job-0007", key="k1"), seq=1),
            dict(_submit_record("job-0008", key="k2"), seq=2),
        ]
        state = JobJournal.replay(None, records)
        assert state["idempotency"] == {"k1": "job-0007", "k2": "job-0008"}
        assert state["next_job"] == 8
        assert state["order"] == ["job-0007", "job-0008"]


# ---------------------------------------------------------------------------
# End-to-end recovery: a daemon restarted on a pre-existing journal


def _seed_journal(path, records):
    journal = JobJournal(str(path))
    for record in records:
        journal.append(record, durable=True)
    journal.close()


class TestDaemonRecovery:
    def test_queued_jobs_readmitted_in_priority_order(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [
            _submit_record("job-0001", priority=0),
            _submit_record("job-0002", priority=5),
            _submit_record("job-0003", priority=5),
        ])
        with serve_daemon(workers=0,
                          journal=str(path)) as (server, address):
            assert len(server._queue) == 3
            order = [server._queue.pop(timeout=0).job_id for _ in range(3)]
            assert order == ["job-0002", "job-0003", "job-0001"]
            with ServeClient(address) as client:
                assert client.status("job-0001")["recovered"]

    def test_running_at_crash_requeued_and_rerun(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [
            _submit_record("job-0001"),
            {"type": "transition", "job": "job-0001", "state": "DISPATCHED",
             "clock": 0.1, "error": None, "attempt": 1},
            {"type": "transition", "job": "job-0001", "state": "RUNNING",
             "clock": 0.2, "error": None, "attempt": 1},
        ])
        with serve_daemon(workers=1, journal=str(path),
                          recover="requeue") as (server, address):
            with ServeClient(address) as client:
                record = client.wait("job-0001", timeout=60)
                assert record["state"] == COMPLETED
                assert record["attempt"] == 2
                assert record["recovered"]
                direct = run(make_scenario("faults", seed=0,
                                           duration=0.05)).to_json()
                assert client.result_json("job-0001") == direct

    def test_recover_fail_marks_interrupted(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [
            _submit_record("job-0001"),
            {"type": "transition", "job": "job-0001", "state": "RUNNING",
             "clock": 0.2, "error": None, "attempt": 1},
            _submit_record("job-0002"),
        ])
        with serve_daemon(workers=0, journal=str(path),
                          recover="fail") as (server, address):
            with ServeClient(address) as client:
                record = client.status("job-0001")
                assert record["state"] == INTERRUPTED
                reason = json.loads(record["error"])
                assert reason["reason"] == "daemon_crash"
                assert reason["state_at_crash"] == "RUNNING"
                # The merely-queued job is untouched by the policy.
                assert client.status("job-0002")["state"] == QUEUED
                snapshot = client.telemetry()["snapshot"]
                assert snapshot["counters"]["interrupted"] == 1

    def test_completed_results_restored_byte_for_byte(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        with serve_daemon(workers=1,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                client.wait(job, timeout=60)
                first = client.result_json(job)
        with serve_daemon(workers=0,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                assert client.result_json(job) == first
                assert client.status(job)["state"] == COMPLETED

    def test_idempotency_keys_survive_restart(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        with serve_daemon(workers=0,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                original = client.submit(**{"name": "faults",
                                            "duration": 0.05},
                                         idempotency_key="restart-safe")
        with serve_daemon(workers=0,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                again = client.submit(**{"name": "faults", "duration": 0.05},
                                      idempotency_key="restart-safe")
                assert again == original
                fresh = client.submit(name="faults", duration=0.05)
                assert fresh != original  # id sequence continued, no reuse

    def test_attempts_exhausted_at_recovery_fail_structured(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [
            _submit_record("job-0001"),
            {"type": "transition", "job": "job-0001", "state": "RUNNING",
             "clock": 0.1, "error": None, "attempt": 9},
        ])
        with serve_daemon(workers=0, journal=str(path), max_retries=2,
                          recover="requeue") as (server, address):
            with ServeClient(address) as client:
                record = client.status("job-0001")
                assert record["state"] == FAILED
                reason = json.loads(record["error"])
                assert reason["reason"] == "retries_exhausted_at_recovery"

    def test_reject_only_journal_restores_counters(self, tmp_path):
        # No jobs to re-admit, but the rejected count (and the boot
        # compaction) must still happen.
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [{"type": "reject"}, {"type": "reject"}])
        with serve_daemon(workers=0,
                          journal=str(path)) as (server, address):
            assert server._counters["rejected"] == 2
            assert os.path.exists(str(path) + ".snapshot")
            assert os.path.getsize(str(path)) == 0  # boot compaction ran
        snapshot, _, _ = JobJournal.load(str(path))
        assert snapshot["counters"]["rejected"] == 2

    def test_recovery_terminalized_jobs_land_in_history(self, tmp_path):
        # Jobs terminalized *during* recovery (unrecoverable spec,
        # --recover=fail) must appear in the history verb on top of the
        # replayed history, with history totals matching the counters.
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [
            _submit_record("job-0001",
                           spec={"name": "no-such-scenario", "seed": 0,
                                 "duration": 0.05, "overrides": {}}),
            _submit_record("job-0002"),
            {"type": "transition", "job": "job-0002", "state": "RUNNING",
             "clock": 0.2, "error": None, "attempt": 1},
        ])
        with serve_daemon(workers=0, journal=str(path),
                          recover="fail") as (server, address):
            assert server._history == ["job-0001", "job-0002"]
            with ServeClient(address) as client:
                history = client.history()
                states = {r["id"]: r["state"] for r in history}
                assert states == {"job-0001": FAILED,
                                  "job-0002": INTERRUPTED}
                snapshot = client.telemetry()["snapshot"]
                assert snapshot["counters"]["failed"] == 1
                assert snapshot["counters"]["interrupted"] == 1
        # The boot compaction persisted the history, so a second
        # restart still serves it.
        with serve_daemon(workers=0, journal=str(path),
                          recover="fail") as (server, address):
            assert server._history == ["job-0001", "job-0002"]

    def test_recovery_compacts_into_snapshot(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        _seed_journal(path, [_submit_record("job-0001")])
        with serve_daemon(workers=0, journal=str(path)) as (server, _):
            assert os.path.exists(str(path) + ".snapshot")
            assert os.path.getsize(str(path)) == 0  # folded into snapshot
            snapshot, _, _ = JobJournal.load(str(path))
            assert [j["id"] for j in snapshot["jobs"]] == ["job-0001"]

    def test_shutdown_writes_final_snapshot(self, tmp_path):
        path = tmp_path / "wal.ndjson"
        with serve_daemon(workers=1,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                client.wait(job, timeout=60)
        snapshot, records, _ = JobJournal.load(str(path))
        assert records == []  # everything compacted at shutdown
        jobs = {j["id"]: j for j in snapshot["jobs"]}
        assert jobs[job]["state"] == COMPLETED
        assert snapshot["counters"]["completed"] == 1


# ---------------------------------------------------------------------------
# Hang detection: kill, bounded retries, structured failure


def _hang_then_finish(hang_for):
    """A fake run_scenario: wedge without polling the abort hook for
    ``hang_for`` seconds, then resume polling (and abort).  Past
    ``hang_timeout`` the worker process is killed mid-wedge."""
    from repro.sim.engine import RunAborted, get_abort_check

    def fake(scenario):
        check = get_abort_check()
        time.sleep(hang_for)  # no heartbeat: the worker thread sees a hang
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if check is not None and check():
                raise RunAborted("hung run aborted")
            time.sleep(0.01)
        raise AssertionError("abort never requested")

    return fake


# The daemon runs jobs in spawned worker processes, which pickle the
# patched ``run_scenario`` by name: the fakes below must be module-level,
# and they count their calls in a file (named by this environment
# variable, which the workers inherit) so the count spans processes.
_CALLS_ENV = "REPRO_TEST_RUN_CALLS"


def _count_call():
    path = os.environ[_CALLS_ENV]
    with open(path, "ab") as fh:
        fh.write(b"x")
    return os.path.getsize(path)


def _hang_once(scenario):
    """The first call hangs, then answers the abort; later calls run."""
    if _count_call() == 1:
        return _hang_then_finish(0.5)(scenario)
    return run(scenario)


def _always_hang(scenario):
    return _hang_then_finish(0.3)(scenario)


def _wedge_once(scenario):
    """The first call wedges without ever polling the abort hook, so
    only a kill ends it; later calls run."""
    if _count_call() == 1:
        time.sleep(60)
    return run(scenario)


def _worker_process(timeout=30.0):
    """The daemon's (single) live worker process."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = [p for p in multiprocessing.active_children()
                   if p.name.startswith("serve-worker")]
        if workers:
            return workers[0]
        time.sleep(0.01)
    raise AssertionError("no worker process started")


def _wait_for(client, job, state, attempt=1, timeout=30.0):
    """Wait until ``job`` is in ``state`` on at least its ``attempt``-th
    run (QUEUED on attempt 2: held for its retry backoff)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.status(job)
        if record["state"] == state and record["attempt"] >= attempt:
            return record
        time.sleep(0.01)
    raise AssertionError(f"{job} never reached {state} on attempt {attempt}")


class TestWatchdog:
    def test_hung_job_is_aborted_requeued_and_completes(self, tmp_path,
                                                        monkeypatch):
        import repro.serve.server as server_mod

        monkeypatch.setenv(_CALLS_ENV, str(tmp_path / "calls"))
        monkeypatch.setattr(server_mod, "run_scenario", _hang_once)
        with serve_daemon(workers=1, hang_timeout=0.2,
                          max_retries=2,
                          retry_backoff=0.01) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                record = client.wait(job, timeout=60)
                assert record["state"] == COMPLETED
                assert record["attempt"] == 2
                direct = run(make_scenario("faults", seed=0,
                                           duration=0.05)).to_json()
                assert client.result_json(job) == direct
                snapshot = client.telemetry()["snapshot"]
                assert snapshot["counters"]["hangs"] >= 1
                assert snapshot["counters"]["requeued"] == 1

    def test_always_hanging_job_fails_structured(self, monkeypatch):
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "run_scenario", _always_hang)
        with serve_daemon(workers=1, hang_timeout=0.1,
                          max_retries=1,
                          retry_backoff=0.01) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                record = client.wait(job, timeout=60)
                assert record["state"] == FAILED
                reason = json.loads(record["error"])
                assert reason["reason"] == "watchdog_hang"
                assert reason["attempts"] == 2  # 1 + max_retries
                assert reason["max_retries"] == 1

    def test_forced_requeue_discards_stale_worker_outcome(self, tmp_path,
                                                          monkeypatch):
        import repro.serve.server as server_mod

        # The first attempt wedges past hang_timeout WITHOUT ever
        # polling the hook: only a SIGKILL of its worker process can
        # requeue it.
        monkeypatch.setenv(_CALLS_ENV, str(tmp_path / "calls"))
        monkeypatch.setattr(server_mod, "run_scenario", _wedge_once)
        with serve_daemon(workers=1, hang_timeout=0.15,
                          max_retries=2, retry_backoff=0.01,
                          drain_timeout=10.0) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                wedged = _worker_process()
                record = client.wait(job, timeout=60)
                assert record["state"] == COMPLETED
                assert record["attempt"] == 2
                direct = run(make_scenario("faults", seed=0,
                                           duration=0.05)).to_json()
                assert client.result_json(job) == direct
                snapshot = client.telemetry()["snapshot"]
                assert snapshot["counters"]["hangs"] >= 1
                # The wedged worker was killed, not left to finish: it
                # can never deliver a late outcome over the replacement's
                # COMPLETED state.
                wedged.join(timeout=10)
                assert not wedged.is_alive()
                assert wedged.exitcode == -signal.SIGKILL
                time.sleep(0.2)
                assert client.status(job)["state"] == COMPLETED

    def test_cancel_during_backoff_hold_is_immediate(self, tmp_path,
                                                     monkeypatch):
        import repro.serve.server as server_mod

        monkeypatch.setenv(_CALLS_ENV, str(tmp_path / "calls"))
        monkeypatch.setattr(server_mod, "run_scenario", _hang_once)
        path = tmp_path / "wal.ndjson"
        with serve_daemon(workers=1, hang_timeout=0.2, max_retries=2,
                          retry_backoff=5.0,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                record = _wait_for(client, job, QUEUED, attempt=2)
                assert record["attempt"] == 2
                reply = client.cancel(job)
                assert reply["state"] == CANCELED
                assert reply["canceled"] is True
                assert client.status(job)["state"] == CANCELED
                # Journaled durable, like any queued cancel.
                _, records, _ = JobJournal.load(str(path))
                assert records[-1]["state"] == CANCELED

    @pytest.mark.parametrize("max_retries", [2, 0])
    def test_cancel_of_running_job_that_then_hangs_is_immediate(
            self, tmp_path, monkeypatch, max_retries):
        import repro.serve.server as server_mod

        # The wedged process never reads the cancel, so only the hang
        # kill ends the run; the job must then land CANCELED at once,
        # not wait out its backoff or fail as hung.
        monkeypatch.setenv(_CALLS_ENV, str(tmp_path / "calls"))
        monkeypatch.setattr(server_mod, "run_scenario", _wedge_once)
        path = tmp_path / "wal.ndjson"
        with serve_daemon(workers=1, hang_timeout=0.3,
                          max_retries=max_retries, retry_backoff=2.0,
                          journal=str(path)) as (server, address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                _wait_for(client, job, RUNNING)
                canceled_at = time.monotonic()
                assert client.cancel(job)["cancel_requested"] is True
                while client.status(job)["state"] == RUNNING \
                        and time.monotonic() - canceled_at < 1.5:
                    time.sleep(0.01)
                record = client.status(job)
                # Well inside hang_timeout + retry_backoff (2.3 s).
                assert time.monotonic() - canceled_at < 1.5
                assert record["state"] == CANCELED
                assert record["error"] == "canceled while running"
                assert record["attempt"] == 1
                counters = client.telemetry()["snapshot"]["counters"]
                assert counters["requeued"] == 0
                assert counters["hangs"] == 1
                # Journaled durable.
                _, records, _ = JobJournal.load(str(path))
                assert records[-1]["state"] == CANCELED

    # Held before shutdown starts, or requeued into the hold by a hang
    # while shutdown drains the running job.
    @pytest.mark.parametrize("held_before_shutdown", [True, False])
    def test_shutdown_cancels_job_held_in_backoff(self, tmp_path,
                                                  monkeypatch,
                                                  held_before_shutdown):
        import repro.serve.server as server_mod

        monkeypatch.setenv(_CALLS_ENV, str(tmp_path / "calls"))
        monkeypatch.setattr(server_mod, "run_scenario", _hang_once)
        history_path = tmp_path / "history.json"
        with serve_daemon(workers=1, hang_timeout=0.2, max_retries=2,
                          retry_backoff=5.0,
                          history_out=str(history_path)) as (server,
                                                              address):
            with ServeClient(address) as client:
                job = client.submit(name="faults", duration=0.05)
                if held_before_shutdown:
                    _wait_for(client, job, QUEUED, attempt=2)
                else:
                    _wait_for(client, job, RUNNING)
        history = json.loads(history_path.read_text())
        [record] = history["jobs"]
        assert record["id"] == job
        assert record["state"] == CANCELED
        assert record["error"] == "daemon shutdown"

