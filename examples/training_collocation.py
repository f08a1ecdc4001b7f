#!/usr/bin/env python3
"""Training collocation with SM_THRESHOLD autotuning.

Mirrors the paper's train-train use case (§6.2.2): a high-priority
ResNet-50 training job shares a GPU with a best-effort MobileNetV2
trainer.  For throughput-oriented high-priority jobs, Orion raises
SM_THRESHOLD via binary search while monitoring the high-priority
throughput (§5.1.1).  This example runs the search live and prints the
search trajectory, then compares against Tick-Tock and REEF.

Run:  python examples/training_collocation.py
"""

from repro.core import Controller, OrionConfig, SmThresholdSearch
from repro.experiments import (
    Scenario,
    run_scenario,
    solo_throughput,
    train_train_config,
)
from repro.experiments.runner import get_profile
from repro.experiments.tables import format_table
from repro.experiments.testbed import Testbed
from repro.workloads.clients import TrainingClient
from repro.workloads.registry import build_plan

HP_MODEL, BE_MODEL = "resnet50", "mobilenet_v2"


def run_with_search(duration: float = 6.0):
    """Hand-built experiment so we can attach the live search."""
    testbed = Testbed.build("V100-16GB", seed=0)
    sim, device_spec = testbed.sim, testbed.device_spec
    hp_profile = get_profile(HP_MODEL, "training", device_spec)
    testbed.store.add(hp_profile)
    be_profile = get_profile(BE_MODEL, "training", device_spec)
    testbed.store.add(be_profile)

    gpu = testbed.gpu("orion", OrionConfig(
        hp_request_latency=hp_profile.request_latency))
    clients = []
    for model, high_priority in ((HP_MODEL, True), (BE_MODEL, False)):
        name = f"{model}-train"
        client = TrainingClient(sim, gpu.ctx(name, high_priority, "training"),
                                build_plan(model, "training"), device_spec,
                                name, horizon=duration)
        clients.append(client)

    dedicated_hp = solo_throughput(HP_MODEL, "training")
    control = Controller(sim, gpu.backend, 0.75, [SmThresholdSearch(
        dedicated_hp, [be_profile], tolerance=0.2)])
    gpu.backend.start()
    for client in clients:
        client.start()
    control.start()
    sim.run(until=duration)
    return clients, control.actions, dedicated_hp


def main() -> None:
    print("running Orion with live SM_THRESHOLD binary search ...")
    (hp_client, be_client), actions, dedicated_hp = run_with_search()
    *probes, settle = actions

    print()
    print("tuner trajectory (binary search over SM_THRESHOLD):")
    print(format_table(
        ["SM_THRESHOLD", "HP it/s in window", "accepted"],
        [[probe["sm_threshold"], f"{probe['observed']:.2f}",
          probe["action"] == "accept"] for probe in probes],
    ))
    print(f"final SM_THRESHOLD: {settle['sm_threshold']}")

    hp_iters = len(hp_client.stats.records)
    be_iters = len(be_client.stats.records)
    print()
    print(f"HP {HP_MODEL}: {hp_iters} iterations "
          f"(dedicated would do ~{dedicated_hp*6:.0f})")
    print(f"BE {BE_MODEL}: {be_iters} iterations harvested from spare capacity")

    print()
    print("reference backends (fixed configs):")
    rows = []
    for backend, orion_kwargs in (("ticktock", {}), ("reef", {}),
                                  ("orion", {"sm_threshold": 160})):
        config = train_train_config(HP_MODEL, BE_MODEL, backend,
                                    duration=4.0, orion=orion_kwargs)
        result = run_scenario(
            Scenario(kind="experiment", params=config)).result
        rows.append([backend, f"{result.hp_job.throughput:.2f}",
                     f"{result.be_jobs()[0].throughput:.2f}"])
    print(format_table(["backend", "HP it/s", "BE it/s"], rows))


if __name__ == "__main__":
    main()
