"""Parallel sweep engine: a scenario × seed grid across worker processes.

``run_sweep(scenarios, seeds, workers=N)`` fans every (named scenario,
seed) cell of the grid out over a process pool and merges the per-cell
canonical results into one report.  Three properties are load-bearing:

* **Determinism.**  Each cell is seeded explicitly from the grid (the
  cell *is* its (name, seed) pair — nothing depends on which worker ran
  it or when), and the merged report serializes cells in sorted key
  order with wall-clock excluded, so ``--workers 1`` and ``--workers N``
  produce byte-identical JSON.
* **Crash isolation.**  A cell that raises is recorded as a failed cell
  (``status: "failed"`` with the exception text) without taking down
  its siblings; a worker process that dies outright marks its cell
  ``status: "crashed"``.  The sweep itself always returns a report.
* **Shared catalog.**  Cells are named scenarios from
  :func:`repro.experiments.registry.make_scenario`, the same catalog
  the CLI and perf benchmark use — a sweep is just the grid-shaped way
  to run them.

Used by ``python -m repro sweep``.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Sequence

from .registry import make_scenario
from .scenario import run

__all__ = ["run_sweep", "run_cell", "sweep_to_json"]


def run_cell(name: str, seed: int) -> Dict:
    """Run one (scenario, seed) cell; never raises.

    Top-level so the process pool can pickle it by reference.  The
    payload carries ``status`` — scenario exceptions become failed
    cells, which is what keeps one bad cell from sinking a grid.
    """
    try:
        result = run(make_scenario(name, seed=seed))
        return {"status": "ok", "result": result.canonical()}
    except Exception as exc:  # noqa: BLE001 — cell isolation is the contract
        return {"status": "failed",
                "error": f"{type(exc).__name__}: {exc}"}


def _cell_key(name: str, seed: int) -> str:
    return f"{name}@seed={seed}"


def run_sweep(scenarios: Sequence[str], seeds: Sequence[int],
              workers: int = 1) -> Dict:
    """Run the full scenario × seed grid and merge the results.

    Returns a plain-data report: ``grid`` describes the sweep, and
    ``cells`` maps ``"<name>@seed=<seed>"`` to each cell's payload.
    Serialize with :func:`sweep_to_json` for the canonical byte-stable
    form.
    """
    scenarios = list(scenarios)
    seeds = [int(seed) for seed in seeds]
    if not scenarios or not seeds:
        raise ValueError("sweep needs at least one scenario and one seed")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    cells = [(name, seed) for name in scenarios for seed in seeds]
    payloads: Dict[str, Dict] = {}
    if workers == 1:
        for name, seed in cells:
            payloads[_cell_key(name, seed)] = run_cell(name, seed)
    else:
        # fork inherits the warm in-process profile cache; fall back to
        # spawn where fork is unavailable.  Determinism is unaffected:
        # every cell is seeded explicitly.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
            else "spawn"
        ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = {(name, seed): pool.submit(run_cell, name, seed)
                       for name, seed in cells}
            for (name, seed), future in futures.items():
                try:
                    payload = future.result()
                except Exception as exc:  # worker process died outright
                    payload = {"status": "crashed",
                               "error": f"{type(exc).__name__}: {exc}"}
                payloads[_cell_key(name, seed)] = payload

    failed = sum(1 for p in payloads.values() if p["status"] != "ok")
    return {
        "grid": {
            "scenarios": scenarios,
            "seeds": seeds,
            "cells": len(cells),
            "failed": failed,
        },
        "cells": {key: payloads[key] for key in sorted(payloads)},
    }


def sweep_to_json(report: Dict) -> str:
    """Canonical byte-stable serialization of a sweep report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      default=float)
