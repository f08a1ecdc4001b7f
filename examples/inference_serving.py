#!/usr/bin/env python3
"""Inference serving scenario: a safety-critical detector shares a GPU
with offline batch inference.

Mirrors the paper's inf-inf use case (§6.2.3): the high-priority job
replays an Apollo-style autonomous-driving trace (bursty camera
frames), the best-effort job runs offline ResNet-50 classification at a
uniform rate.  We compare every sharing technique's tail latency.

Run:  python examples/inference_serving.py
"""

from repro.experiments import Scenario, inf_inf_config, run_scenario
from repro.experiments.tables import format_table

BACKENDS = ("ideal", "temporal", "streams", "mps", "reef", "orion")


def main() -> None:
    rows = []
    reference_p99 = None
    for backend in BACKENDS:
        config = inf_inf_config("resnet101", "resnet50", backend,
                                arrivals="apollo", duration=3.0)
        result = run_scenario(
            Scenario(kind="experiment", params=config)).result
        hp = result.hp_job
        be = result.be_jobs()[0]
        if backend == "ideal":
            reference_p99 = hp.latency.p99
        rows.append([
            backend,
            f"{hp.latency.p50*1e3:.2f}",
            f"{hp.latency.p99*1e3:.2f}",
            f"{hp.latency.p99/reference_p99:.2f}x",
            f"{hp.throughput:.1f}",
            f"{be.throughput:.1f}",
        ])
        print(f"[{backend}] done")
    print()
    print("HP = ResNet-101 detector (Apollo trace), "
          "BE = offline ResNet-50 (uniform 80 rps)")
    print(format_table(
        ["backend", "HP p50 (ms)", "HP p99 (ms)", "p99 vs ideal",
         "HP rps", "BE rps"],
        rows,
    ))
    print()
    print("Reading: temporal sharing suffers head-of-line blocking; "
          "Streams/MPS lack priority and interference awareness; Orion "
          "keeps the detector's tail near the dedicated-GPU latency "
          "while the offline job rides along.")


if __name__ == "__main__":
    main()
