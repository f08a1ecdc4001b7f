"""Canonical fault-injection scenario: Orion collocation under faults.

One high-priority inference client and N best-effort training clients
share a GPU; a seeded :class:`~repro.faults.plan.FaultPlan` injects
client kills (and optionally kernel/transfer faults) mid-run.  Every
client is given a ``ctx_factory``, so it runs under a restart
supervisor and the scenario exercises the full recovery loop: death →
deregistration (queue drained, stream destroyed, memory freed,
scheduler state repaired) → backoff → re-registration → serving again.  Used by ``python -m repro faults``, the
``examples/fault_tolerance.py`` demo, and the recovery benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import OrionConfig
from repro.experiments.params import FaultsParams
from repro.experiments.runner import get_profile
from repro.experiments.testbed import Testbed, report_stats
from repro.metrics.availability import ErrorLedger
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.clients import ClientStats, InferenceClient, TrainingClient
from repro.workloads.registry import build_plan

from .injector import FaultInjector
from .plan import FaultPlan, KillClient

__all__ = ["FaultScenarioResult"]

#: The backend counters a fault scenario reports.
FAULTS_STATS = ("be_kernels_launched", "be_kernels_deferred",
                "clients_deregistered", "watchdog_flags")


@dataclass
class FaultScenarioResult:
    """Everything one fault scenario produced."""

    plan: FaultPlan
    ledger: ErrorLedger
    jobs: Dict[str, ClientStats]
    hp_latency: LatencySummary
    backend_stats: Dict = field(default_factory=dict)
    # The backend's metrics registry and any utilization segments the
    # device recorded (only when tracing, for the trace's counters).
    metrics: Optional[MetricsRegistry] = None
    utilization_segments: List = field(default_factory=list)

    @property
    def hp_stats(self) -> ClientStats:
        return self.jobs["hp"]


def _run_fault_scenario(params: FaultsParams,
                        testbed: Testbed) -> FaultScenarioResult:
    """Run the collocation-under-faults scenario and return its ledger.

    With no explicit ``plan``, the first best-effort client is killed at
    40% of the horizon — the paper-style "BE job dies, HP job must not
    notice" experiment.  Fully deterministic under ``params``.
    """
    duration, model = params.duration, params.model
    plan = params.plan
    if plan is None:
        plan = FaultPlan((KillClient("be-0", at_time=duration * 0.4),))
    valid_targets = {"hp"} | {f"be-{i}" for i in range(params.be_clients)}
    for event in plan:
        if isinstance(event, KillClient) and event.client not in valid_targets:
            raise ValueError(
                f"fault plan targets unknown client {event.client!r}; "
                f"this scenario has {sorted(valid_targets)}")

    sim, device_spec = testbed.sim, testbed.device_spec
    ledger = ErrorLedger()

    inf_profile = get_profile(model, "inference", device_spec)
    testbed.store.add(inf_profile)
    testbed.store.add(get_profile(model, "training", device_spec))

    gpu = testbed.gpu(params.backend, OrionConfig(
        hp_request_latency=inf_profile.request_latency,
        watchdog_multiple=params.watchdog_multiple,
    ))

    clients: List = []
    hp_plan = build_plan(model, "inference")
    hp = InferenceClient(
        sim, gpu.ctx("hp", True, "inference"), hp_plan, device_spec,
        PoissonArrivals(params.hp_rps, testbed.rng.stream("poisson:hp")),
        "hp", horizon=duration,
        ctx_factory=lambda: gpu.ctx("hp", True, "inference"),
        ledger=ledger,
    )
    clients.append(hp)
    train_plan = build_plan(model, "training")
    for i in range(params.be_clients):
        name = f"be-{i}"
        clients.append(TrainingClient(
            sim, gpu.ctx(name, False, "training"), train_plan, device_spec,
            name, horizon=duration,
            ctx_factory=lambda n=name: gpu.ctx(n, False, "training"),
            ledger=ledger,
        ))

    injector = FaultInjector(
        sim, plan, device=gpu.device,
        clients={c.name: c for c in clients},
        profiles=testbed.store, tracer=testbed.tracer,
    ).start()

    gpu.backend.start()
    for client in clients:
        client.start()
    sim.run(until=duration)

    for entry in injector.log:
        ledger.record_injection(entry)
    ledger.finalize(duration)

    jobs = {c.name: c.stats for c in clients}
    hp_latency = summarize_latencies(hp.stats.records, after=params.warmup)

    return FaultScenarioResult(plan=plan, ledger=ledger, jobs=jobs,
                               hp_latency=hp_latency,
                               backend_stats=report_stats(gpu.backend,
                                                          FAULTS_STATS),
                               metrics=gpu.backend.metrics,
                               utilization_segments=list(
                                   gpu.device.utilization_segments))
