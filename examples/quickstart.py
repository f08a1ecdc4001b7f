#!/usr/bin/env python3
"""Quickstart: share one simulated V100 between a latency-critical
inference job and a best-effort training job with Orion.

Run:  python examples/quickstart.py

What happens:

1. The model zoo lowers ResNet-50 inference (batch 4) and MobileNetV2
   training (batch 64) to kernel plans.
2. The offline profiler characterizes every kernel (duration,
   compute/memory class, SM footprint) and the solo request latency —
   the paper's §5.2 phase.
3. Both jobs run for three simulated seconds under the Orion scheduler
   on one GPU, then on dedicated GPUs (the Ideal reference).
4. We print p99 latency, throughput, and the cost saving from
   collocating instead of renting a second GPU.
"""

from repro.experiments import (
    ExperimentParams,
    JobSpec,
    Scenario,
    run_scenario,
    solo_throughput,
)
from repro.metrics.cost import cost_savings


def run_experiment(config):
    return run_scenario(
        Scenario(kind="experiment", params=config)).result


def main() -> None:
    hp = JobSpec(model="resnet50", kind="inference", high_priority=True,
                 arrivals="poisson", rps=15)
    be = JobSpec(model="mobilenet_v2", kind="training")

    print("running Orion collocation (1 GPU) ...")
    orion = run_experiment(
        ExperimentParams(jobs=[hp, be], backend="orion", duration=3.0)
    )
    print("running Ideal baseline (2 dedicated GPUs) ...")
    ideal = run_experiment(
        ExperimentParams(jobs=[hp, be], backend="ideal", duration=3.0)
    )

    orion_hp, ideal_hp = orion.hp_job, ideal.hp_job
    orion_be = orion.be_jobs()[0]
    dedicated_be = solo_throughput("mobilenet_v2", "training")

    print()
    print(f"high-priority inference p99:  "
          f"orion {orion_hp.latency.p99*1e3:6.2f} ms   "
          f"ideal {ideal_hp.latency.p99*1e3:6.2f} ms   "
          f"({orion_hp.latency.p99/ideal_hp.latency.p99:.2f}x)")
    print(f"high-priority throughput:     "
          f"orion {orion_hp.throughput:6.1f} rps   "
          f"ideal {ideal_hp.throughput:6.1f} rps")
    print(f"best-effort training:         "
          f"orion {orion_be.throughput:6.2f} it/s  "
          f"dedicated {dedicated_be:6.2f} it/s")
    savings = cost_savings(dedicated_be, orion_be.throughput)
    print(f"cost savings vs 2 GPUs:       {savings:.2f}x")
    print()
    print(f"scheduler stats: {orion.backend_stats}")


if __name__ == "__main__":
    main()
