#!/usr/bin/env python3
"""Five inference tenants on one A100-40GB (paper §6.3, Figure 13).

One high-priority model serves Poisson traffic next to four best-effort
tenants serving the other zoo models.  Shows Orion scaling to many
best-effort clients (round-robin admission) and generalizing to a
different GPU generation via the device catalog.

Run:  python examples/multi_client_a100.py [hp_model]
"""

import sys

from repro.experiments import Scenario, multi_client_config, run_scenario
from repro.experiments.tables import format_table
from repro.workloads.models import MODEL_NAMES


def main() -> None:
    hp_model = sys.argv[1] if len(sys.argv) > 1 else "resnet50"
    if hp_model not in MODEL_NAMES:
        raise SystemExit(f"unknown model {hp_model!r}; pick from {MODEL_NAMES}")
    be_models = [m for m in MODEL_NAMES if m != hp_model]

    results = {}
    for backend in ("ideal", "mps", "reef", "orion"):
        config = multi_client_config(hp_model, be_models, backend,
                                     device="A100-40GB", duration=3.0)
        results[backend] = run_scenario(
            Scenario(kind="experiment", params=config)).result
        print(f"[{backend}] done")

    ideal_p99 = results["ideal"].hp_job.latency.p99
    rows = []
    for backend, result in results.items():
        be_total = sum(j.throughput for j in result.be_jobs())
        rows.append([
            backend,
            f"{result.hp_job.latency.p99*1e3:.2f}",
            f"{result.hp_job.latency.p99/ideal_p99:.2f}x",
            f"{result.hp_job.throughput:.1f}",
            f"{be_total:.1f}",
        ])
    print()
    print(f"HP = {hp_model} + 4 best-effort tenants on A100-40GB (Poisson)")
    print(format_table(
        ["backend", "HP p99 (ms)", "vs ideal", "HP rps", "BE rps (total)"],
        rows,
    ))


if __name__ == "__main__":
    main()
