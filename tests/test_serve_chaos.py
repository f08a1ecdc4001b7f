"""Kill-9 chaos harness for the durable serve daemon.

Each test starts a *real* daemon subprocess (``python -m repro serve
--journal ...``) with ``REPRO_SERVE_KILL_AT`` naming one injection
point, drives it over a Unix socket until the daemon SIGKILLs itself
at that point (asserted via ``returncode == -SIGKILL`` — no
sleep-and-hope timing), then restarts a daemon on the same journal
with the chaos env cleared and asserts the recovery invariants:

* **no job lost** — every journaled submit is present after restart;
* **none duplicated** — re-submitting the same idempotency key returns
  the original job id instead of enqueueing a second copy;
* **results byte-identical** — a recovered/re-run job's
  ``result_json`` equals a direct in-process ``run(scenario)`` at the
  same seed, byte for byte.

The same three invariants hold when a *worker process* dies under a
live daemon (``worker_mid_run``), and a daemon that dies takes its
worker processes with it: they see EOF on their pipe and exit.

The in-process recovery-policy unit tests live in
tests/test_serve_journal.py; this file is only the full-process
crash loop.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run
from repro.serve import ServeClient

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: The canonical result every chaos job must recover to, byte for byte.
DIRECT_RESULT = run(make_scenario("faults", seed=0, duration=0.05)).to_json()


def _direct(seed):
    return run(make_scenario("faults", seed=seed, duration=0.05)).to_json()


def _spawn(tmp_path, *extra, kill_at=None, workers=1):
    """Start a daemon subprocess on a tmp unix socket + journal, in a
    process group of its own that its worker processes share."""
    sock = tmp_path / "serve.sock"
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SERVE_KILL_AT", None)
    if kill_at is not None:
        env["REPRO_SERVE_KILL_AT"] = kill_at
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(sock), "--journal", str(tmp_path / "wal.ndjson"),
         "--workers", str(workers), "--telemetry-interval", "0",
         *extra],
        env=env, cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc, f"unix:{sock}"


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


def _wait_sigkilled(proc, timeout=60.0):
    """The daemon must die by its own SIGKILL within ``timeout``."""
    assert proc.wait(timeout=timeout) == -signal.SIGKILL


def _group_members(pgid):
    """Pids of the live (not zombie) processes in process group
    ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _, group = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # exited while we looked
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _wait_group_empty(pgid, timeout=30.0):
    deadline = time.monotonic() + timeout
    while _group_members(pgid):
        assert time.monotonic() < deadline, \
            f"orphaned processes {_group_members(pgid)} outlived the daemon"
        time.sleep(0.05)


def _all_job_ids(client):
    summary = client.status()
    active = {record["id"] for record in summary["jobs"]}
    finished = {record["id"] for record in client.history(limit=1000)}
    return active | finished


@pytest.mark.parametrize("kill_at", ["mid_enqueue", "mid_run",
                                     "mid_result_write"])
def test_crash_then_recover_none_lost_none_duplicated(tmp_path, kill_at):
    proc, address = _spawn(tmp_path, kill_at=kill_at, workers=1)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        try:
            client.submit(name="faults", duration=0.05,
                          idempotency_key="chaos-1")
        except (ConnectionError, OSError):
            pass  # mid_enqueue: the daemon dies before the ack
        finally:
            client.close()
        _wait_sigkilled(proc)
    finally:
        _reap(proc)

    proc, address = _spawn(tmp_path, workers=1)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            # No job lost: the journaled submit survived the crash...
            assert _all_job_ids(client) == {"job-0001"}
            # ...and none duplicated: the key maps to the original id.
            assert client.submit(name="faults", duration=0.05,
                                 idempotency_key="chaos-1") == "job-0001"
            assert _all_job_ids(client) == {"job-0001"}
            record = client.wait("job-0001", timeout=120)
            assert record["state"] == "COMPLETED"
            # Byte-identical to a direct same-seed run: the recovered
            # (or re-run) daemon result is the canonical result.
            assert client.result_json("job-0001") == DIRECT_RESULT
    finally:
        _reap(proc)


def test_crash_mid_compaction_replays_idempotently(tmp_path):
    # --snapshot-every 3: the third submit triggers compaction, and the
    # daemon dies after the snapshot os.replace but before the log
    # truncation — the worst spot, where every record exists in BOTH
    # the snapshot and the log.  seq floors must de-duplicate them.
    proc, address = _spawn(tmp_path, "--snapshot-every", "3",
                           kill_at="mid_compaction", workers=0)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        submitted = []
        try:
            for index in range(5):
                submitted.append(client.submit(
                    name="faults", duration=0.05,
                    idempotency_key=f"compact-{index}"))
        except (ConnectionError, OSError):
            pass  # died inside the compacting submit
        finally:
            client.close()
        _wait_sigkilled(proc)
        assert len(submitted) >= 2  # at least the pre-compaction acks
    finally:
        _reap(proc)

    proc, address = _spawn(tmp_path, workers=0)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            assert _all_job_ids(client) == {"job-0001", "job-0002",
                                            "job-0003"}
            snapshot = client.telemetry()["snapshot"]
            assert snapshot["queue_depth"] == 3  # each exactly once
            for index in range(3):
                assert client.submit(
                    name="faults", duration=0.05,
                    idempotency_key=f"compact-{index}") == \
                    f"job-{index + 1:04d}"
    finally:
        _reap(proc)


def test_crash_mid_run_with_recover_fail_marks_interrupted(tmp_path):
    proc, address = _spawn(tmp_path, kill_at="mid_run", workers=1)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            job = client.submit(name="faults", duration=0.05)
        _wait_sigkilled(proc)
    finally:
        _reap(proc)

    proc, address = _spawn(tmp_path, "--recover", "fail", workers=0)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            record = client.status(job)
            assert record["state"] == "INTERRUPTED"
            reason = json.loads(record["error"])
            assert reason["reason"] == "daemon_crash"
            assert reason["recover"] == "fail"
    finally:
        _reap(proc)


def test_repeated_crashes_converge(tmp_path):
    # Crash the daemon twice at different points over one journal, then
    # verify the job still completes exactly once with the canonical
    # bytes — recovery must compose with itself.
    for kill_at in ("mid_run", "mid_result_write"):
        proc, address = _spawn(tmp_path, "--max-retries", "5",
                               kill_at=kill_at, workers=1)
        try:
            client = ServeClient.connect_retry(address, timeout=30)
            try:
                client.submit(name="faults", duration=0.05,
                              idempotency_key="converge")
            except (ConnectionError, OSError):
                pass
            finally:
                client.close()
            _wait_sigkilled(proc)
        finally:
            _reap(proc)

    proc, address = _spawn(tmp_path, "--max-retries", "5", workers=1)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            assert _all_job_ids(client) == {"job-0001"}
            record = client.wait("job-0001", timeout=120)
            assert record["state"] == "COMPLETED"
            assert client.result_json("job-0001") == DIRECT_RESULT
    finally:
        _reap(proc)


def test_client_submit_reconnects_across_restart(tmp_path):
    # ServeClient.submit with an idempotency key + retries survives the
    # daemon being hard-killed and restarted between attempts.
    proc, address = _spawn(tmp_path, workers=0)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        job = client.submit(name="faults", duration=0.05,
                            idempotency_key="resilient")
        proc.kill()
        proc.wait(timeout=30)
        proc, address = _spawn(tmp_path, workers=0)
        deadline = time.monotonic() + 60
        while True:  # retry across the restart window
            try:
                again = client.submit(name="faults", duration=0.05,
                                      idempotency_key="resilient",
                                      retries=3)
                break
            except (ConnectionError, OSError):
                assert time.monotonic() < deadline
                time.sleep(0.1)
        assert again == job
        client.close()
    finally:
        _reap(proc)


def test_worker_process_killed_mid_run_none_lost_none_duplicated(tmp_path):
    # Every worker process SIGKILLs itself on a job's first attempt.
    # The daemon sees EOF on the pipe, requeues the job within its
    # retry budget, and runs the retry in a fresh worker process.
    proc, address = _spawn(tmp_path, kill_at="worker_mid_run", workers=2)
    seeds = (0, 1, 2)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            jobs = {seed: client.submit(name="faults", seed=seed,
                                        duration=0.05,
                                        idempotency_key=f"worker-{seed}")
                    for seed in seeds}
            for seed, job in jobs.items():
                record = client.wait(job, timeout=120)
                assert record["state"] == "COMPLETED", record
                assert record["attempt"] == 2
                assert client.result_json(job) == _direct(seed)
            # No job lost, none duplicated.
            assert _all_job_ids(client) == set(jobs.values())
            for seed, job in jobs.items():
                assert client.submit(name="faults", seed=seed,
                                     duration=0.05,
                                     idempotency_key=f"worker-{seed}") == job
            counters = client.telemetry()["snapshot"]["counters"]
            assert counters["submitted"] == len(seeds)
            assert counters["completed"] == len(seeds)
            assert counters["requeued"] == len(seeds)
        assert proc.poll() is None  # the daemon outlived its workers
    finally:
        _reap(proc)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("kill_at", ["mid_run", None])
def test_daemon_killed_leaves_no_orphan_workers(tmp_path, kill_at):
    # mid_run: the daemon SIGKILLs itself with its worker process idle
    # and just started.  None: it is SIGKILLed from outside while the
    # worker is deep in a run, which notices at its next heartbeat.
    proc, address = _spawn(tmp_path, kill_at=kill_at, workers=2)
    try:
        client = ServeClient.connect_retry(address, timeout=30)
        with client:
            job = client.submit(name="overload", duration=2.0)
            if kill_at is None:
                while client.status(job)["state"] != "RUNNING":
                    time.sleep(0.02)
                time.sleep(0.3)
                # The group holds the daemon and its worker(s).
                assert len(_group_members(proc.pid)) >= 2
                proc.kill()
        _wait_sigkilled(proc)
        _wait_group_empty(proc.pid)
    finally:
        _reap(proc)
