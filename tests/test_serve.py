"""Tests for the serve daemon: protocol, jobs, and the live round trip.

The end-to-end tests start a real :class:`ServeServer` on an ephemeral
TCP port (or a tmp-dir Unix socket) inside the test process and drive
it with :class:`ServeClient` — the same path the CLI and CI smoke use.
Queue/cancel/reject semantics are tested deterministically on an
admission-only daemon (``workers=0``: jobs queue but never dispatch).
"""

import json
import multiprocessing
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.experiments.registry import make_scenario, scenario_catalog
from repro.experiments.scenario import Scenario, run
from repro.serve import (
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
    ServeClient,
    ServeConfig,
    ServeError,
    ServeServer,
)
from repro.serve.protocol import (
    LineReader,
    ProtocolError,
    decode_request,
    encode,
    parse_address,
)
from repro.sim.engine import RunAborted, Simulator, set_abort_check


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


def _scenario(**overrides):
    """A fast submittable job: the faults registry scenario."""
    spec = {"name": "faults", "duration": 0.05}
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# Protocol


class TestProtocol:
    def test_parse_address_unix(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_parse_address_tcp(self):
        assert parse_address("tcp:localhost:80") == ("tcp", ("localhost", 80))
        assert parse_address("127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))

    @pytest.mark.parametrize("bad", ["unix:", "justahost", "tcp:host:nan"])
    def test_parse_address_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_decode_request_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"{not json")
        assert excinfo.value.code == "bad_request"

    def test_decode_request_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"[1,2,3]")
        assert excinfo.value.code == "bad_request"

    def test_decode_request_missing_verb(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b'{"job": "job-0001"}')
        assert excinfo.value.code == "bad_request"

    def test_decode_request_unknown_verb(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b'{"verb": "explode"}')
        assert excinfo.value.code == "unknown_verb"

    def test_encode_is_compact_sorted_ndjson(self):
        frame = encode({"b": 1, "a": 2})
        assert frame == b'{"a":2,"b":1}\n'

    def test_line_reader_splits_and_bounds(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b'{"verb":"ping"}\n{"verb":"status"}\n')
            reader = LineReader(right, max_line=64)
            assert reader.readline() == b'{"verb":"ping"}'
            assert reader.readline() == b'{"verb":"status"}'
            left.sendall(b"x" * 200)
            with pytest.raises(ProtocolError) as excinfo:
                reader.readline()
            assert excinfo.value.code == "oversized"
        finally:
            left.close()
            right.close()

    def test_line_reader_exactly_at_limit(self):
        # The bound is exclusive of the newline: an N-byte line passes,
        # N+1 bytes without a newline is oversized.
        left, right = socket.socketpair()
        try:
            reader = LineReader(right, max_line=64)
            left.sendall(b"y" * 64 + b"\n")
            assert reader.readline() == b"y" * 64
            left.sendall(b"z" * 65)  # no newline yet: already doomed
            with pytest.raises(ProtocolError) as excinfo:
                reader.readline()
            assert excinfo.value.code == "oversized"
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# Jobs and the bounded queue


def _job(job_id="job-0001", priority=0):
    return Job(job_id, make_scenario("faults", duration=0.05),
               {"name": "faults"}, priority=priority)


class TestJobLifecycle:
    def test_happy_path(self):
        job = _job()
        assert job.state == QUEUED
        job.transition(DISPATCHED)
        job.transition(RUNNING)
        job.transition(COMPLETED)
        assert job.terminal
        assert [s for s, _ in job.transitions] == [
            QUEUED, DISPATCHED, RUNNING, COMPLETED]

    @pytest.mark.parametrize("path,bad", [
        ((), RUNNING),                      # QUEUED -> RUNNING skips dispatch
        ((DISPATCHED, RUNNING, COMPLETED), RUNNING),  # terminal is final
        ((DISPATCHED, CANCELED), RUNNING),  # canceled is final
        ((), QUEUED),                       # no self-loop
    ])
    def test_illegal_transitions_raise(self, path, bad):
        job = _job()
        for state in path:
            job.transition(state)
        with pytest.raises(LifecycleError):
            job.transition(bad)

    def test_try_transition_reports_instead_of_raising(self):
        job = _job()
        assert job.try_transition(DISPATCHED)
        assert not job.try_transition(COMPLETED)  # DISPATCHED -/-> COMPLETED
        assert job.state == DISPATCHED

    def test_failure_records_error(self):
        job = _job()
        job.transition(DISPATCHED)
        job.transition(RUNNING)
        job.transition(FAILED, error="ValueError: boom")
        assert job.describe()["error"] == "ValueError: boom"

    # The full edge table, including the PR-9 recovery edges: requeue
    # (DISPATCHED/RUNNING -> QUEUED), INTERRUPTED, and admission-time
    # failure (QUEUED -> FAILED for a spec that can no longer be
    # rebuilt at recovery).  Every pair NOT listed here must raise —
    # the exhaustive sweep below proves the state machine admits
    # exactly these moves and nothing else.
    EXPECTED_EDGES = {
        QUEUED: {DISPATCHED, CANCELED, FAILED},
        DISPATCHED: {RUNNING, CANCELED, QUEUED, INTERRUPTED},
        RUNNING: {COMPLETED, FAILED, CANCELED, QUEUED, INTERRUPTED},
        COMPLETED: set(),
        FAILED: set(),
        CANCELED: set(),
        INTERRUPTED: set(),
    }

    @pytest.mark.parametrize("source", JOB_STATES)
    @pytest.mark.parametrize("target", JOB_STATES)
    def test_transition_matrix_is_exact(self, source, target):
        job = _job()
        job.state = source  # place the job without walking a path
        if target in self.EXPECTED_EDGES[source]:
            job.transition(target)
            assert job.state == target
        else:
            with pytest.raises(LifecycleError):
                job.transition(target)
            assert job.state == source
            assert not job.try_transition(target)

    def test_restore_round_trips_describe(self):
        job = _job()
        job.transition(DISPATCHED, clock=0.5)
        job.transition(RUNNING, clock=0.6)
        job.transition(COMPLETED, clock=0.9)
        job.result_json = '{"x":1}'
        record = job.describe()
        record["result_json"] = job.result_json
        restored = Job.restore(record, job.scenario)
        assert restored.state == COMPLETED
        assert restored.result_json == '{"x":1}'
        assert restored.recovered
        assert [list(t) for t in restored.transitions] == \
            [list(t) for t in job.transitions]


class TestPendingQueue:
    def test_priority_then_fifo_order(self):
        queue = PendingQueue(max_pending=8)
        low = _job("job-1", priority=0)
        mid1 = _job("job-2", priority=5)
        mid2 = _job("job-3", priority=5)
        high = _job("job-4", priority=9)
        for job in (low, mid1, mid2, high):
            queue.push(job)
        order = [queue.pop(timeout=0).job_id for _ in range(4)]
        assert order == ["job-4", "job-2", "job-3", "job-1"]

    def test_reject_when_full(self):
        queue = PendingQueue(max_pending=2)
        queue.push(_job("job-1"))
        queue.push(_job("job-2"))
        with pytest.raises(QueueFull):
            queue.push(_job("job-3"))
        # popping frees a slot
        queue.pop(timeout=0)
        queue.push(_job("job-3"))

    def test_remove_and_len(self):
        queue = PendingQueue(max_pending=4)
        queue.push(_job("job-1"))
        queue.push(_job("job-2"))
        assert len(queue) == 2
        assert queue.remove("job-1").job_id == "job-1"
        assert len(queue) == 1
        assert queue.remove("job-1") is None
        assert queue.pop(timeout=0).job_id == "job-2"
        assert queue.pop(timeout=0) is None

    def test_drain_returns_dequeue_order(self):
        queue = PendingQueue(max_pending=4)
        queue.push(_job("job-1", priority=1))
        queue.push(_job("job-2", priority=3))
        assert [j.job_id for j in queue.drain()] == ["job-2", "job-1"]
        assert len(queue) == 0

    def test_force_push_bypasses_bound(self):
        queue = PendingQueue(max_pending=1)
        queue.push(_job("job-1"))
        with pytest.raises(QueueFull):
            queue.push(_job("job-2"))
        queue.push(_job("job-2"), force=True)  # requeue/recovery path
        assert len(queue) == 2

    def test_held_job_is_not_popped_before_its_delay(self):
        queue = PendingQueue(max_pending=4)
        queue.push(_job("job-1"), force=True, delay=0.3)
        started = time.monotonic()
        assert queue.pop(timeout=0.05) is None
        assert queue.pop(timeout=5).job_id == "job-1"
        assert time.monotonic() - started >= 0.3

    def test_held_job_is_not_counted(self):
        queue = PendingQueue(max_pending=1)
        queue.push(_job("job-1"), force=True, delay=60)
        assert len(queue) == 0
        queue.push(_job("job-2"))  # the admission bound ignores the hold
        assert len(queue) == 1

    def test_drain_and_remove_return_held_jobs(self):
        queue = PendingQueue(max_pending=4)
        queue.push(_job("job-1"), force=True, delay=60)
        queue.push(_job("job-2"), force=True, delay=60)
        queue.push(_job("job-3"))
        assert queue.remove("job-1").job_id == "job-1"
        assert queue.remove("job-1") is None
        assert [j.job_id for j in queue.drain()] == ["job-3", "job-2"]
        assert queue.pop(timeout=0) is None

    def test_held_jobs_each_leave_exactly_once_under_contention(self):
        # Four popping threads race two pushers that hold every other
        # job and cancel every third: each job must come out of the
        # queue exactly once, popped or removed.
        queue = PendingQueue(max_pending=1000)
        popped, removed = [], []
        done = threading.Event()

        def pusher(offset):
            for n in range(100):
                job = _job(f"job-{offset + n}")
                queue.push(job, force=True, delay=0.002 * (n % 2))
                if n % 3 == 0 and queue.remove(job.job_id) is not None:
                    removed.append(job.job_id)

        def popper():
            while True:
                job = queue.pop(timeout=0.01)
                if job is not None:
                    popped.append(job.job_id)
                elif done.is_set():
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            poppers = [threading.Thread(target=popper) for _ in range(4)]
            pushers = [threading.Thread(target=pusher, args=(offset,))
                       for offset in (0, 1000)]
            for thread in poppers + pushers:
                thread.start()
            for thread in pushers:
                thread.join(timeout=30)
            time.sleep(0.05)  # every hold is due before the poppers stop
            done.set()
            for thread in poppers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in poppers + pushers)
        assert removed
        assert sorted(popped + removed) == sorted(
            f"job-{offset + n}" for offset in (0, 1000) for n in range(100))

    def test_heap_stays_bounded_under_cancel_churn(self):
        # Lazy cancels leave stale heap entries; the compaction
        # threshold must keep the raw heap O(live), not O(history).
        queue = PendingQueue(max_pending=10_000)
        live = [_job(f"keep-{i}") for i in range(4)]
        for job in live:
            queue.push(job)
        max_heap = 0
        for round_no in range(200):
            victim = _job(f"churn-{round_no}")
            queue.push(victim)
            assert queue.remove(victim.job_id) is victim
            max_heap = max(max_heap, queue.heap_size)
        bound = len(live) + 2 * max(PendingQueue.COMPACT_MIN_STALE,
                                    len(live))
        assert max_heap <= bound, \
            f"heap grew to {max_heap} under churn (bound {bound})"
        assert len(queue) == len(live)
        assert {queue.pop(timeout=0).job_id for _ in live} == \
            {job.job_id for job in live}


class TestServeConfig:
    @pytest.mark.parametrize("bad", [
        {"workers": -1},
        {"pace": -0.5},
        {"recover": "retry"},
        {"max_retries": -1},
        {"retry_backoff": -0.25},
        {"drain_timeout": -1.0},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)

    def test_backoff_doubles_per_attempt(self):
        config = ServeConfig(retry_backoff=0.25)
        assert [config.backoff_for(n) for n in (1, 2, 3)] == \
            [0.25, 0.5, 1.0]


# ---------------------------------------------------------------------------
# Engine abort hook


class TestEngineAbort:
    def teardown_method(self):
        set_abort_check(None)

    def _busy_sim(self):
        sim = Simulator()

        def tick():
            sim.call_in(0.001, tick)

        sim.call_in(0.0, tick)
        return sim

    def test_abort_check_fires_mid_run(self):
        set_abort_check(lambda: sim.events_processed > 1500)
        sim = self._busy_sim()
        with pytest.raises(RunAborted):
            sim.run(until=100.0)
        assert 1500 < sim.events_processed <= 1500 + 1024

    def test_abort_check_fires_before_first_event(self):
        set_abort_check(lambda: True)
        sim = self._busy_sim()
        with pytest.raises(RunAborted):
            sim.run(until=1.0)
        assert sim.events_processed == 0

    def test_no_check_means_no_overhead_path(self):
        set_abort_check(None)
        sim = self._busy_sim()
        sim.run(until=0.01)
        assert sim.events_processed > 0

    def test_set_abort_check_returns_previous(self):
        first = lambda: False  # noqa: E731
        assert set_abort_check(first) is None
        assert set_abort_check(None) is first


# ---------------------------------------------------------------------------
# End-to-end round trips


class TestEndToEnd:
    def test_submit_status_result_history_roundtrip(self):
        with serve_daemon(workers=1) as (_, address):
            with ServeClient(address) as client:
                job = client.submit(seed=3, **_scenario())
                final = client.wait(job, timeout=120)
                assert final["state"] == COMPLETED
                assert final["error"] is None
                states = [s for s, _ in final["transitions"]]
                assert states == [QUEUED, DISPATCHED, RUNNING, COMPLETED]
                # determinism contract: byte-identical to a direct run
                direct = run(make_scenario("faults", seed=3,
                                           duration=0.05)).to_json()
                assert client.result_json(job) == direct
                parsed = client.result(job)
                assert parsed["seed"] == 3
                assert parsed["events_processed"] > 0
                history = client.history()
                assert [j["id"] for j in history] == [job]
                assert history[0]["state"] == COMPLETED

    def test_same_seed_resubmit_is_identical_and_seeds_differ(self):
        with serve_daemon(workers=1) as (_, address):
            with ServeClient(address) as client:
                first = client.submit(seed=7, **_scenario())
                second = client.submit(seed=7, **_scenario())
                other = client.submit(seed=8, **_scenario())
                for job in (first, second, other):
                    assert client.wait(job, timeout=120)["state"] == COMPLETED
                assert client.result_json(first) == client.result_json(second)
                assert client.result_json(first) != client.result_json(other)

    def test_inline_scenario_submit(self):
        inline = {"kind": "faults", "params": {"duration": 0.05,
                                               "be_clients": 1}}
        with serve_daemon(workers=1) as (_, address):
            with ServeClient(address) as client:
                job = client.submit(scenario=inline, seed=2)
                assert client.wait(job, timeout=120)["state"] == COMPLETED
                direct = run(Scenario(kind="faults", params={
                    "duration": 0.05, "be_clients": 1, "seed": 2})).to_json()
                assert client.result_json(job) == direct

    def test_unix_socket_roundtrip(self, tmp_path):
        address = f"unix:{tmp_path / 'serve.sock'}"
        with serve_daemon(address=address, workers=1) as (_, resolved):
            assert resolved == address
            with ServeClient(resolved) as client:
                assert client.ping()["ok"]
                job = client.submit(**_scenario())
                assert client.wait(job, timeout=120)["state"] == COMPLETED

    def test_shutdown_removes_its_unix_socket(self, tmp_path):
        sock = tmp_path / "serve.sock"
        with serve_daemon(address=f"unix:{sock}", workers=0):
            assert sock.exists()
        assert not sock.exists()

    def test_shutdown_leaves_a_rebound_socket_alone(self, tmp_path):
        # A second daemon bound the path after the first: the first's
        # shutdown must not remove the second's socket.
        address = f"unix:{tmp_path / 'serve.sock'}"
        first = ServeServer(ServeConfig(address=address, workers=0,
                                        telemetry_interval=0))
        first.start()
        with serve_daemon(address=address, workers=0) as (_, resolved):
            first.shutdown()
            with ServeClient(resolved) as client:
                assert client.ping()["ok"]

    def test_scenarios_verb_matches_registry_catalog(self):
        with serve_daemon(workers=0) as (_, address):
            with ServeClient(address) as client:
                assert client.scenarios() == scenario_catalog()

    def test_failed_job_records_error(self):
        # A kind="llm" scenario pointed at a non-LLM workload passes
        # construction-time validation but raises when it runs, which
        # surfaces through the daemon as a FAILED job.
        with serve_daemon(workers=1) as (_, address):
            with ServeClient(address) as client:
                job = client.submit(scenario={
                    "kind": "llm",
                    "params": {"duration": 0.05, "model": "resnet50"}})
                final = client.wait(job, timeout=120)
                assert final["state"] == FAILED
                assert "not an LLM workload" in final["error"]
                with pytest.raises(ServeError) as excinfo:
                    client.result_json(job)
                assert excinfo.value.code == "no_result"

    def test_submit_validation_errors(self):
        with serve_daemon(workers=0) as (_, address):
            with ServeClient(address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit(name="no_such_scenario")
                assert excinfo.value.code == "bad_scenario"
                with pytest.raises(ServeError) as excinfo:
                    client.submit(scenario={"kind": "experiment"})
                assert excinfo.value.code == "bad_scenario"
                # Typed-params validation runs at submit: unknown
                # scenario params are rejected before a job exists.
                with pytest.raises(ServeError) as excinfo:
                    client.submit(scenario={
                        "kind": "faults",
                        "params": {"duration": 0.05, "nonsense_param": 1}})
                assert excinfo.value.code == "bad_scenario"
                assert "nonsense_param" in str(excinfo.value)
                with pytest.raises(ServeError) as excinfo:
                    client.request("submit")
                assert excinfo.value.code == "bad_request"
                with pytest.raises(ServeError) as excinfo:
                    client.status("job-9999")
                assert excinfo.value.code == "unknown_job"


# ---------------------------------------------------------------------------
# Queue semantics through the API (admission-only daemon: workers=0)


class TestQueueSemanticsOverAPI:
    def test_reject_when_full_observable(self):
        with serve_daemon(workers=0, max_pending=2) as (_, address):
            with ServeClient(address) as client:
                client.submit(**_scenario())
                client.submit(**_scenario())
                with pytest.raises(ServeError) as excinfo:
                    client.submit(**_scenario())
                assert excinfo.value.code == "queue_full"
                snapshot = client.telemetry()["snapshot"]
                assert snapshot["queue_depth"] == 2
                assert snapshot["counters"]["rejected"] == 1
                assert snapshot["counters"]["submitted"] == 2

    def test_queue_full_carries_depth_and_retry_hint(self):
        with serve_daemon(workers=0, max_pending=2) as (_, address):
            with ServeClient(address) as client:
                client.submit(**_scenario())
                client.submit(**_scenario())
                with pytest.raises(ServeError) as excinfo:
                    client.submit(**_scenario())
                details = excinfo.value.details
                assert details["queue_depth"] == 2
                assert details["max_pending"] == 2
                assert details["retry_after_hint"] > 0

    def test_submit_retries_honor_hint_until_space(self):
        with serve_daemon(workers=0, max_pending=1) as (server, address):
            with ServeClient(address) as client:
                blocker = client.submit(**_scenario())

                def free_slot():
                    time.sleep(0.15)
                    client2 = ServeClient(address)
                    client2.cancel(blocker)
                    client2.close()

                helper = threading.Thread(target=free_slot)
                helper.start()
                try:
                    job = client.submit(**_scenario(), retries=50,
                                        max_retry_wait=0.05)
                finally:
                    helper.join()
                assert client.status(job)["state"] == QUEUED

    def test_idempotency_key_dedups_submits(self):
        with serve_daemon(workers=0, max_pending=4) as (_, address):
            with ServeClient(address) as client:
                first = client.submit(**_scenario(),
                                      idempotency_key="run-42")
                again = client.submit(**_scenario(),
                                      idempotency_key="run-42")
                other = client.submit(**_scenario(),
                                      idempotency_key="run-43")
                assert again == first
                assert other != first
                snapshot = client.telemetry()["snapshot"]
                assert snapshot["counters"]["submitted"] == 2
                assert snapshot["counters"]["deduplicated"] == 1
                assert snapshot["queue_depth"] == 2
                assert snapshot["idempotency_keys"] == 2

    def test_cancel_queued_job(self):
        with serve_daemon(workers=0) as (_, address):
            with ServeClient(address) as client:
                job = client.submit(**_scenario())
                response = client.cancel(job)
                assert response["canceled"] is True
                assert response["state"] == CANCELED
                record = client.status(job)
                assert record["state"] == CANCELED
                assert [j["id"] for j in client.history()] == [job]
                # canceled jobs have no result
                with pytest.raises(ServeError) as excinfo:
                    client.result_json(job)
                assert excinfo.value.code == "no_result"

    def test_result_before_completion_is_not_ready(self):
        with serve_daemon(workers=0) as (_, address):
            with ServeClient(address) as client:
                job = client.submit(**_scenario())
                with pytest.raises(ServeError) as excinfo:
                    client.request("result", job=job)
                assert excinfo.value.code == "not_ready"

    def test_daemon_summary_lists_active_jobs(self):
        with serve_daemon(workers=0, max_pending=8) as (_, address):
            with ServeClient(address) as client:
                ids = [client.submit(**_scenario()) for _ in range(3)]
                summary = client.status()
                assert [j["id"] for j in summary["jobs"]] == sorted(ids)
                assert summary["daemon"]["admission"] == "open"
                assert summary["daemon"]["jobs"][QUEUED] == 3


class TestCancelRunning:
    def test_cancel_running_job_aborts_via_engine_hook(self):
        with serve_daemon(workers=1) as (_, address):
            with ServeClient(address) as client:
                # Long horizon: would take tens of wall seconds uncanceled.
                job = client.submit(name="overload", duration=5.0)
                deadline = time.monotonic() + 30
                while client.status(job)["state"] != RUNNING:
                    assert time.monotonic() < deadline, "job never ran"
                    time.sleep(0.01)
                response = client.cancel(job)
                assert response["cancel_requested"] is True
                final = client.wait(job, timeout=30)
                assert final["state"] == CANCELED
                assert "canceled while running" in final["error"]

    def test_cancel_before_dispatch_wins_the_race(self):
        # Queue two jobs behind one worker; cancel the queued one.
        with serve_daemon(workers=1) as (_, address):
            with ServeClient(address) as client:
                first = client.submit(name="overload", duration=0.15)
                second = client.submit(**_scenario())
                response = client.cancel(second)
                assert response["state"] in (CANCELED, QUEUED, DISPATCHED)
                final = client.wait(second, timeout=60)
                assert final["state"] == CANCELED
                # the occupier is unaffected
                client.cancel(first)
                assert client.wait(first, timeout=60)["state"] in (
                    COMPLETED, CANCELED)


# ---------------------------------------------------------------------------
# Protocol robustness against a live daemon (raw sockets)


class TestDaemonRobustness:
    def _raw(self, address):
        from repro.serve.protocol import connect

        return connect(address, timeout=10.0)

    def _roundtrip(self, sock, payload: bytes):
        sock.sendall(payload)
        return json.loads(LineReader(sock).readline())

    def test_malformed_json_keeps_connection_alive(self):
        with serve_daemon(workers=0) as (_, address):
            sock = self._raw(address)
            try:
                response = self._roundtrip(sock, b"{oops\n")
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                # same connection still serves valid requests
                response = self._roundtrip(sock, b'{"verb":"ping"}\n')
                assert response["ok"] is True
            finally:
                sock.close()

    def test_unknown_verb_structured_error(self):
        with serve_daemon(workers=0) as (_, address):
            sock = self._raw(address)
            try:
                response = self._roundtrip(sock, b'{"verb":"frobnicate"}\n')
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown_verb"
            finally:
                sock.close()

    def test_oversized_payload_rejected(self):
        with serve_daemon(workers=0) as (_, address):
            sock = self._raw(address)
            try:
                sock.sendall(b"x" * ((1 << 20) + 2))
                reader = LineReader(sock)
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "oversized"
                assert reader.readline() is None  # daemon closed it
            finally:
                sock.close()
            # the daemon survived and serves new connections
            with ServeClient(address) as client:
                assert client.ping()["ok"]

    def test_mid_request_disconnect_does_not_kill_daemon(self):
        with serve_daemon(workers=0) as (_, address):
            sock = self._raw(address)
            sock.sendall(b'{"verb":"pi')  # partial request
            sock.close()
            time.sleep(0.05)
            with ServeClient(address) as client:
                assert client.ping()["ok"]
                job = client.submit(**_scenario())
                assert client.status(job)["state"] == QUEUED


# ---------------------------------------------------------------------------
# Telemetry


class TestTelemetry:
    def test_stream_yields_monotonic_snapshots(self):
        with serve_daemon(workers=0) as (_, address):
            with ServeClient(address) as client:
                snapshots = list(client.telemetry_stream(follow=3,
                                                         interval=0.02))
                assert len(snapshots) == 3
                seqs = [s["seq"] for s in snapshots]
                assert seqs == sorted(seqs)
                assert all(s["admission"] == "open" for s in snapshots)

    def test_ticker_fills_the_ring(self):
        with serve_daemon(workers=0, telemetry_interval=0.02) as (_, address):
            time.sleep(0.1)
            with ServeClient(address) as client:
                response = client.telemetry(ring=True)
                assert len(response["ring"]) >= 1
                assert response["snapshot"]["seq"] > response["ring"][-1]["seq"]


# ---------------------------------------------------------------------------
# Graceful shutdown


class TestShutdown:
    def test_drain_cancels_queued_completes_running_writes_history(
            self, tmp_path):
        history_path = tmp_path / "history.json"
        server = ServeServer(ServeConfig(
            address="tcp:127.0.0.1:0", workers=1, telemetry_interval=0,
            history_out=str(history_path)))
        address = server.start()
        client = ServeClient(address)
        running = client.submit(name="faults", duration=0.3)
        deadline = time.monotonic() + 30
        while client.status(running)["state"] != RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        queued = [client.submit(**_scenario()) for _ in range(2)]
        client.close()
        server.shutdown()

        assert server._stopped.is_set()
        history = json.loads(history_path.read_text())
        by_id = {j["id"]: j for j in history["jobs"]}
        assert by_id[running]["state"] == COMPLETED  # drained, not killed
        for job_id in queued:
            assert by_id[job_id]["state"] == CANCELED
            assert by_id[job_id]["error"] == "daemon shutdown"
        assert history["counters"]["completed"] == 1
        assert history["counters"]["canceled"] == 2
        assert history["daemon"]["workers"] == 1
        # the socket is released
        with pytest.raises(OSError):
            ServeClient(address)

    def test_shutdown_verb_stops_the_daemon(self):
        server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0",
                                         workers=0, telemetry_interval=0))
        address = server.start()
        with ServeClient(address) as client:
            response = client.shutdown()
            assert response["stopping"] is True
        assert server._stopped.wait(10)

    def test_signal_handler_triggers_drain(self):
        import signal as signal_module

        server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0",
                                         workers=0, telemetry_interval=0))
        server.start()
        server._on_signal(signal_module.SIGTERM, None)
        assert server._stopped.wait(10)

    def test_submit_after_shutdown_starts_is_rejected(self):
        server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0",
                                         workers=0, telemetry_interval=0))
        address = server.start()
        client = ServeClient(address)
        job = client.submit(**_scenario())
        assert client.status(job)["state"] == QUEUED
        # flip admission without tearing the socket down yet
        with server._lock:
            server._shutting_down = True
        with pytest.raises(ServeError) as excinfo:
            client.submit(**_scenario())
        assert excinfo.value.code == "shutting_down"
        client.close()
        with server._lock:
            server._shutting_down = False
        server.shutdown()

    def test_shutdown_is_idempotent(self):
        server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0",
                                         workers=0, telemetry_interval=0))
        server.start()
        threads = [threading.Thread(target=server.shutdown)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert server._stopped.is_set()


# ---------------------------------------------------------------------------
# Wall-clock pacing


class TestPacing:
    def test_pace_holds_worker_until_scaled_wall_time(self):
        # pace=1: 0.2 simulated seconds must take >= 0.2 wall seconds.
        with serve_daemon(workers=1, pace=1.0) as (_, address):
            with ServeClient(address) as client:
                start = time.monotonic()
                job = client.submit(name="faults", duration=0.2)
                final = client.wait(job, timeout=60)
                elapsed = time.monotonic() - start
                assert final["state"] == COMPLETED
                assert elapsed >= 0.18


# ---------------------------------------------------------------------------
# Stress: more worker processes than cores


#: serve_mix's job kinds (benchmarks/perf/spec.py): name and horizon.
_MIX_KINDS = (("llm", 0.05), ("faults", 0.05), ("train_train_ref", None),
              ("inf_train_ref", None))


class TestStress:
    def test_mixed_jobs_and_running_cancels_keep_exact_accounting(self):
        # Three worker processes (more than a 2-core machine has), 24
        # mixed jobs, cancels of running jobs interleaved, and a short
        # switch interval so the daemon's threads interleave finely.
        cells = [(name, seed, duration) for seed in range(3)
                 for name, duration in _MIX_KINDS]
        direct = {cell: run(make_scenario(cell[0], seed=cell[1],
                                          duration=cell[2])).to_json()
                  for cell in cells}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve_daemon(workers=3, max_pending=32) as (_, address):
                with ServeClient(address) as client:
                    jobs = {client.submit(name=name, seed=seed,
                                          duration=duration): (name, seed,
                                                               duration)
                            for name, seed, duration in cells * 2}
                    # Every fourth job is an inf_train_ref: cancel each
                    # once it is seen RUNNING.
                    targets = set(list(jobs)[3::4])
                    deadline = time.monotonic() + 120
                    while targets:
                        assert time.monotonic() < deadline, targets
                        for job in list(targets):
                            state = client.status(job)["state"]
                            if state == RUNNING:
                                client.cancel(job)
                            if state == RUNNING or state in TERMINAL_STATES:
                                targets.discard(job)
                        time.sleep(0.005)
                    records = {job: client.wait(job, timeout=120)
                               for job in jobs}
                    counters = client.telemetry()["snapshot"]["counters"]
                    results = {job: client.result_json(job)
                               for job, record in records.items()
                               if record["state"] == COMPLETED}
        finally:
            sys.setswitchinterval(previous)
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("serve-worker")]
        for record in records.values():
            # Exactly one terminal state, and it is the last transition.
            terminal = [state for state, _ in record["transitions"]
                        if state in TERMINAL_STATES]
            assert terminal == [record["state"]]
            assert record["transitions"][-1][0] == record["state"]
        states = [record["state"] for record in records.values()]
        assert states.count(COMPLETED) + states.count(CANCELED) == len(jobs)
        assert states.count(CANCELED) >= 1
        assert counters["completed"] == states.count(COMPLETED)
        assert counters["canceled"] == states.count(CANCELED)
        for job, result in results.items():
            assert result == direct[jobs[job]]
