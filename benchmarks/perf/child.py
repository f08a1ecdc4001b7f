"""One fresh interpreter running a workload's cells in-process.

Spawned by ``run.py`` with one JSON argument::

    {"workload", "seed", "smoke", "mode", "passes"}

Set-up is: import ``repro``, build every cell's Scenario, then warm the
offline-profile caches by running each distinct cell variant once at
its short horizon.  The child then prints ``{"ready": true,
"slowdown": S}`` (the parent's ``setup_s`` clock stops there; ``S`` is
the host slowdown sampled during the warm-up runs, by which the parent
scales the set-up time).  In ``mode="setup"`` it exits;
otherwise it runs ``passes`` untraced passes, and in ``mode="trace"``
one more pass under cProfile, attributed to layers (self time per
module group, exact call counts of named functions).  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

import spec
from hostclock import HostClock

#: Layer -> module path prefix under ``src/repro``.  Layers are the
#: packages and modules the ROADMAP names; code outside ``src/repro``
#: (stdlib, builtins, this harness) is ``stdlib``, and the remaining
#: repro modules are ``other``.
LAYERS = (
    "core.scheduler", "gpu.contention", "gpu.device", "gpu.streams",
    "gpu.memory", "sim.engine", "sim.process", "runtime.client",
    "runtime.backend", "runtime.host", "cluster.fleet",
    "workloads.llmserve", "workloads.clients", "baselines", "kernels",
    "profiler", "faults.injector",
)
OUTSIDE, REST = "stdlib", "other"


def _call_targets() -> Dict[str, set]:
    """Metric name -> code objects whose cProfile call counts it sums."""
    import repro.baselines  # noqa: F401  (registers Backend subclasses)
    import repro.core  # noqa: F401
    import repro.runtime.direct  # noqa: F401
    from repro.gpu.contention import ContentionModel
    from repro.gpu.memory import DeviceMemory
    from repro.gpu.streams import Stream
    from repro.runtime.backend import Backend
    from repro.runtime.client import ClientContext
    from repro.sim.engine import Simulator

    backends, todo = set(), [Backend]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "submit" in cls.__dict__:
            backends.add(cls.__dict__["submit"].__code__)
    return {
        "gpu.contention.rates.calls": {ContentionModel.rates.__code__},
        "gpu.stream_submit.calls": {Stream.submit.__code__},
        "gpu.memory.malloc.calls": {DeviceMemory.malloc.__code__},
        "sim.call_at.calls": {Simulator.call_at.__code__},
        "runtime.launch_kernel.calls": {ClientContext.launch_kernel.__code__},
        "runtime.submit.calls": backends,
    }


def _layer_of(filename: str, root: str) -> str:
    if not filename.startswith(root):
        return OUTSIDE
    module = filename[len(root):-len(".py")].replace(os.sep, ".")
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return REST


def _counts(canonical: Dict[str, Any]) -> Dict[str, int]:
    """Deterministic work counters read from one canonical result."""
    result = canonical["result"]
    stats = result.get("backend_stats") or {}
    return {
        "sim.events": canonical["events_processed"],
        "core.be_launched": stats.get("be_kernels_launched", 0),
        "core.be_blocked_checks": stats.get("be_kernels_deferred", 0),
        "core.prefill_deferrals": stats.get("prefill_deferrals", 0),
        "cluster.routing_decisions":
            result.get("routing", {}).get("decisions", 0),
        "cluster.readmitted":
            result.get("report", {}).get("failover", {}).get("readmitted", 0),
    }


def run_pass(scenarios: List, profiler=None) -> Dict[str, Any]:
    """Run every scenario once; per cell: wall seconds of ``run()``,
    result digest (None on an exception), and work counters.  Untraced,
    each cell runs under a :class:`HostClock`, which also gives the
    host's slowdown during it; traced, under ``profiler`` alone."""
    from repro.experiments.scenario import run

    walls, slowdowns, digests, errors, counts = [], [], [], [], []
    for scenario in scenarios:
        clock = HostClock()
        start = time.perf_counter()
        try:
            with profiler if profiler is not None else clock:
                result = run(scenario)
        except Exception as exc:  # noqa: BLE001 — a failed cell is counted
            result = None
            errors.append(f"{scenario.name}: {type(exc).__name__}: {exc}")
        if profiler is None:
            walls.append(clock.wall)
            slowdowns.append(clock.slowdown)
        else:
            walls.append(time.perf_counter() - start)
        if result is None:
            digests.append(None)
            counts.append({})
        else:
            digests.append(spec.digest(result.to_json()))
            counts.append(_counts(result.canonical()))
    return {"walls": walls, "slowdowns": slowdowns, "digests": digests,
            "errors": errors, "counts": counts}


def _attribute(profiler: cProfile.Profile) -> Dict[str, Any]:
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    targets = _call_targets()
    self_s = dict.fromkeys(LAYERS + (OUTSIDE, REST), 0.0)
    calls = dict.fromkeys(targets, 0)
    for entry in profiler.getstats():
        code = entry.code
        filename = code if isinstance(code, str) else code.co_filename
        self_s[_layer_of(filename, root)] += entry.inlinetime
        for name, codes in targets.items():
            if code in codes:
                calls[name] += entry.callcount
    return {"self_s": self_s, "calls": calls}


def main(request: Dict[str, Any]) -> Dict[str, Any]:
    spec.use_source_tree()
    cells = spec.cells(request["workload"], request["seed"],
                       request["smoke"])
    scenarios = [cell.scenario() for cell in cells]
    warm = {cell.variant: cell.short() for cell in cells}
    warmed = run_pass([cell.scenario() for cell in warm.values()])
    # The host's slowdown during set-up, as sampled in the warm-up runs.
    slowdown = sum(warmed["walls"]) / sum(
        w / s for w, s in zip(warmed["walls"], warmed["slowdowns"]))
    print(json.dumps({"ready": True, "slowdown": slowdown}), flush=True)

    out: Dict[str, Any] = {"cells": [cell.key for cell in cells],
                           "passes": []}
    if request["mode"] == "setup":
        return out
    for _ in range(request["passes"]):
        out["passes"].append(run_pass(scenarios))
    if request["mode"] == "trace":
        profiler = cProfile.Profile()
        out["traced"] = run_pass(scenarios, profiler)
        out.update(_attribute(profiler))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
