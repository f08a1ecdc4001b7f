"""Layered wall-clock benchmark of the Orion reproduction.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out PATH]

Runs each named workload (default: all four in ``BENCHMARK.json``) in
fresh child processes, prints every metric by name and unit, checks
every result against pinned digests, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` (metric
names prefixed ``<workload>/`` when more than one workload runs).

``--trace 0`` measures the end-to-end metrics with tracing off:
``ref_wall_s`` (host seconds per pass of fixed simulated work, scaled
to the reference host speed by the slowdown a :class:`HostClock`
samples while the work runs: median over the timed passes),
``setup_s`` (median of three fresh starts) and ``peak_rss_mb``.
``--trace 1`` is the separate traced run that gives the per-layer
metrics: the unscaled ``wall_s`` and ``host.slowdown``, self time per
layer and exact call counts from one pass under cProfile, work
counters from the results, and, for serve_mix, the serve layer's
costs from one round through a ``repro serve`` daemon.  ``--seconds``
(default ``run_seconds``) fixes the number of timed passes (``spec.passes``);
``--smoke`` runs one pass at tiny horizons.  Metric definitions and
workload choices: README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import spec
from daemon import Daemon, drive
from hostclock import HostClock

#: Every run of one workload ends within this many wall seconds.
RUN_LIMIT_S = 170.0
#: Daemon worker threads: two where the machine has two cores, so the
#: workload is the same on every machine with at least two.
WORKERS = min(2, len(os.sched_getaffinity(0)))
#: Closed-loop depth: jobs the one client keeps outstanding.
DEPTH = 2 * WORKERS
#: Per-layer ``serve.*`` metrics; the sim workloads never enter the
#: serve layer, so theirs read 0, like any layer a workload never enters.
SERVE_METRICS = ("serve.submit_ms", "serve.status_ms", "serve.result_ms",
                 "serve.queue_wait_s", "serve.dispatch_s", "serve.run_s",
                 "serve.run_over_direct", "serve.journal_bytes_per_job")


class Tally:
    """Operations attempted and failed, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, key: str, got, want, error: str = "") -> None:
        self.attempted += 1
        if got is None or got != want:
            self.failed += 1
            self.errors.append(f"{key}: {error or 'digest mismatch'}")


def _run_child(request: Dict[str, Any], deadline: float) -> Tuple[float, Dict]:
    """Spawn ``child.py``; return (seconds from spawn to its ready line
    at the reference host speed, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(spec.HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, bufsize=0, cwd=spec.ROOT,
        env=spec.child_env())
    try:
        lines = spec.Lines(proc)
        ready = json.loads(lines.next(deadline))
        if ready.get("ready") is not True:
            raise RuntimeError("child sent no ready line")
        setup_s = (time.perf_counter() - start) / ready["slowdown"]
        result = json.loads(lines.next(deadline))
        if proc.wait(timeout=max(0.1, deadline - time.monotonic())) != 0:
            raise RuntimeError(f"child exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup_s, result


def _check_passes(out: Dict, pinned: Dict[str, str], tally: Tally,
                  ) -> Dict[str, str]:
    """Check every cell run of a child against its pinned digest, or
    (unpinned seeds) against the cell's first run; return the expected
    digest per cell key."""
    expected: Dict[str, str] = {}
    for one in out["passes"] + ([out["traced"]] if "traced" in out else []):
        for key, got in zip(out["cells"], one["digests"]):
            want = pinned.get(key) or expected.get(key) or got
            expected[key] = want
            tally.check(key, got, want)
        tally.errors.extend(one["errors"])
    return expected


def _pass_times(out: Dict) -> Tuple[float, float, float]:
    """Medians over a child's untraced passes of (pass wall seconds,
    the same at the reference host speed, host slowdown).  Each cell is
    scaled by the slowdown sampled while it ran."""
    walls = [sum(p["walls"]) for p in out["passes"]]
    refs = [sum(w / s for w, s in zip(p["walls"], p["slowdowns"]))
            for p in out["passes"]]
    return (statistics.median(walls), statistics.median(refs),
            statistics.median(w / r for w, r in zip(walls, refs)))


def _cell_medians(out: Dict) -> List[float]:
    """Each cell's median untraced wall seconds."""
    return [statistics.median(walls)
            for walls in zip(*(p["walls"] for p in out["passes"]))]


def _serve_round(daemon: Daemon, cells: List[spec.Cell],
                 expected: Dict[str, str], tally: Tally, deadline: float,
                 rtts: Dict[str, List[float]]) -> List[Dict[str, float]]:
    """Submit every cell once through the daemon and wait for all of
    them; a rejected, unfinished or wrong job fails.  Returns each
    completed job's lifecycle spans from the daemon's timestamps."""
    done = []
    for record in drive(daemon.client, cells, DEPTH, deadline, rtts):
        tally.check(record["key"], record["digest"], expected[record["key"]],
                    record["error"] or record["state"])
        if record["state"] == "COMPLETED":
            at = dict(record["transitions"])
            done.append({"key": record["key"], "queued": at["QUEUED"],
                         "completed": at["COMPLETED"],
                         "queue_wait": at["DISPATCHED"] - at["QUEUED"],
                         "dispatch": at["RUNNING"] - at["DISPATCHED"],
                         "run": at["COMPLETED"] - at["RUNNING"]})
    if not done:
        raise RuntimeError("no daemon job completed: " + "; ".join(
            tally.errors[-3:]))
    return done


def _starts(request: Dict) -> int:
    """Fresh starts whose median is ``setup_s`` (one in smoke mode)."""
    return 1 if request["smoke"] else spec.SETUP_STARTS


def time_sim(request: Dict, pinned: Dict, tally: Tally,
             deadline: float) -> Dict[str, float]:
    setups = [_run_child(dict(request, mode="setup"), deadline)[0]
              for _ in range(_starts(request) - 1)]
    setup_s, out = _run_child(dict(request, mode="time"), deadline)
    setups.append(setup_s)
    _check_passes(out, pinned, tally)
    return {"ref_wall_s": _pass_times(out)[1],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["rss_mb"]}


def _timed_rounds(daemon: Daemon, cells: List[spec.Cell], rounds: int,
                  expected: Dict[str, str], tally: Tally, deadline: float,
                  rtts: Dict[str, List[float]],
                  ) -> Tuple[List[Tuple[float, float]], List[Dict]]:
    """``rounds`` daemon rounds, each under a :class:`HostClock` in
    this client process.  Returns (wall seconds, host slowdown) per
    round, from its first QUEUED to its last COMPLETED, and the jobs of
    the last round."""
    times: List[Tuple[float, float]] = []
    for _ in range(rounds):
        with HostClock() as clock:
            done = _serve_round(daemon, cells, expected, tally, deadline,
                                rtts)
        times.append((max(job["completed"] for job in done)
                      - min(job["queued"] for job in done), clock.slowdown))
    return times, done


def _start_daemon(deadline: float) -> Tuple[Daemon, float]:
    """A started daemon, and its set-up seconds at the reference host
    speed, scaled by the slowdown sampled in this client meanwhile."""
    with HostClock() as clock:
        daemon = Daemon(WORKERS, deadline)
    return daemon, daemon.setup_s / clock.slowdown


def time_served(request: Dict, pinned: Dict, tally: Tally,
                deadline: float) -> Dict[str, float]:
    """Rounds through one daemon: each submits every cell once, in
    order, and waits for all of them.  A first round warms the daemon
    (not in smoke mode); ``ref_wall_s`` is the median over the
    ``passes`` timed rounds of each round's wall time, from its first
    QUEUED to its last COMPLETED, scaled by the slowdown sampled in
    this client during the round.  The cells' reference digests come
    from one untimed in-process pass."""
    _, reference = _run_child(dict(request, mode="time", passes=1), deadline)
    expected = _check_passes(reference, pinned, tally)
    cells = spec.cells(request["workload"], request["seed"], request["smoke"])
    setups = []
    for _ in range(_starts(request) - 1):
        daemon, setup_s = _start_daemon(deadline)
        setups.append(setup_s)
        daemon.close(deadline)
    daemon, setup_s = _start_daemon(deadline)
    setups.append(setup_s)
    try:
        if not request["smoke"]:
            _serve_round(daemon, cells, expected, tally, deadline, {})
        rounds, _ = _timed_rounds(daemon, cells, request["passes"],
                                  expected, tally, deadline, {})
        peak_rss_mb = daemon.vm_hwm_mb()
    finally:
        daemon.close(deadline)
    return {"ref_wall_s": statistics.median(w / s for w, s in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb}


def trace(request: Dict, pinned: Dict, tally: Tally,
          deadline: float) -> Dict[str, float]:
    """Per-layer metrics: untraced passes then one cProfile pass in a
    child; for serve_mix, then one round of the same cells through a
    daemon (after a warm-up round), which gives its ``wall_s`` and
    ``host.slowdown``."""
    _, out = _run_child(dict(request, mode="trace"), deadline)
    expected = _check_passes(out, pinned, tally)
    direct = dict(zip(out["cells"], _cell_medians(out)))
    traced = out["traced"]
    traced_wall = sum(traced["walls"])
    wall_s, _, slowdown = _pass_times(out)
    metrics: Dict[str, float] = {
        f"{layer}.self_pct": 100.0 * seconds / traced_wall
        for layer, seconds in out["self_s"].items()}
    metrics["wall_s"] = wall_s
    metrics["host.slowdown"] = slowdown
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead"] = traced_wall / wall_s
    metrics.update(out["calls"])
    for counts in traced["counts"]:
        for name, value in counts.items():
            metrics[name] = metrics.get(name, 0) + value
    checks = metrics["core.be_launched"] + metrics["core.be_blocked_checks"]
    metrics["core.be_admit_ratio"] = \
        metrics["core.be_launched"] / checks if checks else 0.0
    if request["workload"] not in spec.SERVED:
        metrics.update(dict.fromkeys(SERVE_METRICS, 0.0))
        return metrics

    cells = spec.cells(request["workload"], request["seed"], request["smoke"])
    rounds = 1 if request["smoke"] else 2
    rtts: Dict[str, List[float]] = {}
    daemon = Daemon(WORKERS, deadline)
    try:
        if rounds == 2:
            _serve_round(daemon, cells, expected, tally, deadline, {})
        [(wall_s, slowdown)], done = _timed_rounds(
            daemon, cells, 1, expected, tally, deadline, rtts)
        journal_bytes = daemon.journal_bytes()
    finally:
        daemon.close(deadline)
    metrics.update({
        "wall_s": wall_s,
        "host.slowdown": slowdown,
        "serve.submit_ms": 1e3 * statistics.median(rtts["submit"]),
        "serve.status_ms": 1e3 * statistics.median(rtts["status"]),
        "serve.result_ms": 1e3 * statistics.median(rtts["result"]),
        "serve.queue_wait_s": statistics.median(j["queue_wait"] for j in done),
        "serve.dispatch_s": statistics.median(j["dispatch"] for j in done),
        "serve.run_s": statistics.median(j["run"] for j in done),
        "serve.run_over_direct": statistics.median(
            j["run"] / direct[j["key"]] for j in done),
        "serve.journal_bytes_per_job": journal_bytes / (rounds * len(cells)),
    })
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool, pinned: Dict[str, str]) -> Tuple[Dict, Tally]:
    deadline = time.monotonic() + RUN_LIMIT_S
    request = {"workload": workload, "seed": seed, "smoke": smoke,
               "passes": 1 if smoke else spec.passes(workload, seconds)}
    tally = Tally()
    if traced:
        values = trace(request, pinned, tally, deadline)
    elif workload in spec.SERVED:
        values = time_served(request, pinned, tally, deadline)
    else:
        values = time_sim(request, pinned, tally, deadline)
    return values, tally


def _parse(argv: List[str], benchmark: Dict) -> argparse.Namespace:
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Layered wall-clock benchmark (see README.md).")
    parser.add_argument("--workload", "--workloads", action="extend",
                        nargs="+", choices=names, metavar="NAME",
                        help=f"workloads to run (default: all of {names})")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 and 1 have pinned digests")
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="sets the timed passes per run, see "
                             "spec.PASS_S (default: run_seconds from "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run giving per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons and one pass (seconds = 0)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write every workload's result here")
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    if args.smoke:
        args.seconds = 0.0
    return args


def main(argv: List[str]) -> int:
    spec.use_source_tree()
    benchmark = spec.load_benchmark()
    args = _parse(argv, benchmark)
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    pinned = spec.load_digests()
    results: Dict[str, Dict] = {}
    for workload in args.workload:
        values, tally = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), args.smoke, pinned)
        for error in tally.errors[:10]:
            print(f"{workload}: FAILED {error}", file=sys.stderr)
        results[workload] = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in listed},
        }
        for name, metric in results[workload]["metrics"].items():
            print(f"{workload:<18} {name:<34} "
                  f"{metric['value']:<14.6g} {metric['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "smoke": args.smoke, "seconds": args.seconds,
                       "workloads": results}, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
