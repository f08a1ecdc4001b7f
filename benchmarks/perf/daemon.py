"""Drive a ``repro serve`` daemon from one client thread on one connection.

The daemon is a child process (``python -m repro serve --port 0
--journal ...``) so its memory and threads are its own; the benchmark
talks to it only through the public protocol (:class:`ServeClient`).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Sequence

import spec

#: Seconds between status polls of one outstanding job: the default of
#: ``ServeClient.wait``, which ``repro submit --wait`` uses.  The client
#: thus sends the status traffic of one waiting ``repro submit --wait``
#: per outstanding job.
POLL_S = 0.05


class Daemon:
    """One daemon process on an ephemeral localhost port, journal on,
    working in a temporary directory under ``spec.WORK_DIR`` that
    :meth:`close` removes.

    ``setup_s`` is the wall time from spawn to the first answered
    ``ping``.
    """

    def __init__(self, workers: int, deadline: float):
        from repro.serve import ServeClient

        spec.WORK_DIR.mkdir(parents=True, exist_ok=True)
        self._workdir = tempfile.TemporaryDirectory(dir=spec.WORK_DIR)
        workdir = Path(self._workdir.name)
        self.journal = workdir / "journal.ndjson"
        self._log = open(workdir / "daemon.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--journal", str(self.journal)],
            stdout=subprocess.PIPE, stderr=self._log, bufsize=0,
            cwd=workdir, env=spec.child_env())
        self.client = None
        try:
            banner = spec.Lines(self.proc).next(deadline)
            self.client = ServeClient(banner.rsplit(" ", 1)[-1],
                                      timeout=max(1.0, deadline
                                                  - time.monotonic()))
            self.client.ping()
        except BaseException:
            self.close(deadline)
            raise
        self.setup_s = time.perf_counter() - start

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the daemon process so far, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def journal_bytes(self) -> int:
        return self.journal.stat().st_size

    def close(self, deadline: float) -> None:
        """Drain-shutdown the daemon, reap it (killed past the
        deadline) and remove its working directory."""
        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except (OSError, ConnectionError):
                    pass
                self.client.close()
            self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
            self._workdir.cleanup()


def drive(client, cells: Sequence[spec.Cell], depth: int, deadline: float,
          rtts: Dict[str, List[float]]) -> List[Dict]:
    """Closed loop: submit ``cells`` in order, keeping ``depth`` jobs
    outstanding, until every job is terminal.

    Appends each verb's round trips (seconds) to ``rtts`` and returns
    one record per job: cell key, final state, the daemon's transition
    timestamps, result digest and error.  A rejected submit is a
    record in state ``REJECTED``.
    """
    from repro.serve import TERMINAL_STATES, ServeError

    records: List[Dict] = []
    outstanding: Dict[str, spec.Cell] = {}
    pending = deque(cells)

    def timed(verb, call, *args, **kwargs):
        start = time.perf_counter()
        value = call(*args, **kwargs)
        rtts.setdefault(verb, []).append(time.perf_counter() - start)
        return value

    while pending or outstanding:
        while pending and len(outstanding) < depth:
            cell = pending.popleft()
            try:
                job = timed("submit", client.submit, **cell.submit_fields())
            except ServeError as exc:
                records.append({"key": cell.key, "state": "REJECTED",
                                "transitions": [], "digest": None,
                                "error": str(exc)})
                continue
            outstanding[job] = cell
        if time.monotonic() > deadline:
            raise TimeoutError(f"{len(outstanding)} daemon jobs unfinished")
        time.sleep(POLL_S)
        for job in list(outstanding):
            status = timed("status", client.status, job)
            if status["state"] not in TERMINAL_STATES:
                continue
            cell = outstanding.pop(job)
            digest = None
            if status["state"] == "COMPLETED":
                digest = spec.digest(timed("result", client.result_json, job))
            records.append({"key": cell.key, "state": status["state"],
                            "transitions": status["transitions"],
                            "digest": digest, "error": status["error"]})
    return records
