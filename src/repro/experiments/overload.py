"""Overload scenario: an inference service pushed past GPU capacity.

One high-priority inference client shares the GPU with N best-effort
inference clients under the Orion scheduler; the offered load totals a
multiple of the device's capacity (1 / solo request latency), so
without protection the best-effort work drowns the high-priority job.
The scenario wires up the full overload-protection stack of
DESIGN.md §6.2:

* bounded best-effort software queues ("block" backpressure or
  "reject" load shedding with the retryable ``QUEUE_FULL`` status);
* per-request deadlines with shed-at-admission on every client;
* optionally the adaptive SLO guard
  (:class:`~repro.core.control.DurThresholdGuard` on a
  :class:`~repro.core.control.Controller`), which tightens
  DUR_THRESHOLD / suspends best-effort admission when the windowed HP
  latency quantile breaches the SLO.

The Orion config deliberately starts with a *loose* DUR_THRESHOLD
(``initial_dur_frac``), so the unguarded run demonstrates the breach
the guard exists to fix.  Used by ``python -m repro overload``, the
``examples/overload.py`` demo, and ``benchmarks/test_overload_guard``.
Fully deterministic under (seed, arguments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import Controller, DurThresholdGuard, OrionConfig
from repro.experiments.runner import get_profile
from repro.metrics.availability import ErrorLedger
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.arrivals import make_arrivals
from repro.workloads.clients import ClientStats, InferenceClient
from repro.workloads.registry import build_plan

from .params import OverloadParams
from .testbed import Testbed, report_stats

__all__ = ["OverloadResult"]

#: The backend counters an overload scenario reports.
OVERLOAD_STATS = ("be_kernels_launched", "be_kernels_deferred",
                  "hp_deadline_misses", "be_suspensions",
                  "dur_threshold_frac")


@dataclass
class OverloadResult:
    """Everything one overload scenario produced."""

    capacity: float              #: requests/s the GPU serves solo
    solo_latency: float          #: dedicated-GPU request latency (s)
    slo: Optional[float]         #: HP latency SLO handed to the guard (s)
    hp_latency: LatencySummary
    jobs: Dict[str, ClientStats]
    ledger: ErrorLedger
    backend_stats: Dict = field(default_factory=dict)
    queue_telemetry: Dict[str, dict] = field(default_factory=dict)
    guard_actions: List[dict] = field(default_factory=list)
    guard_summary: Optional[dict] = None
    # The backend's metrics registry and any utilization segments the
    # device recorded (only when tracing, for the trace's counters).
    metrics: Optional[MetricsRegistry] = None
    utilization_segments: List = field(default_factory=list)

    @property
    def hp_stats(self) -> ClientStats:
        return self.jobs["hp"]

    def be_goodput(self, duration: float, warmup: float = 0.0) -> float:
        """Served best-effort requests per second (shed/failed excluded)."""
        span = duration - warmup
        if span <= 0:
            return 0.0
        served = sum(len(stats.completed(after=warmup))
                     for name, stats in self.jobs.items() if name != "hp")
        return served / span

    def total_shed(self) -> int:
        return sum(stats.shed for stats in self.jobs.values())


def _run_overload_scenario(params: OverloadParams,
                           testbed: Testbed) -> OverloadResult:
    """Run the overload scenario and return its accounting.

    ``hp_load`` and ``be_load`` are offered loads as fractions of the
    solo capacity (``be_load`` is split across the ``be_clients``
    best-effort clients); their sum past 1.0 is overload by
    construction.  Best-effort clients always use Poisson arrivals.
    ``slo_mult`` x solo latency is the HP SLO the guard enforces when
    ``guard`` is on; see :class:`OverloadParams` for every knob.
    """
    duration, be_clients = params.duration, params.be_clients
    sim, device_spec, rng_factory = testbed.sim, testbed.device_spec, testbed.rng
    ledger = ErrorLedger()

    profile = get_profile(params.model, "inference", device_spec)
    testbed.store.add(profile)
    solo_latency = profile.request_latency
    capacity = 1.0 / solo_latency
    slo = params.slo_mult * solo_latency
    be_deadline = None if params.deadline_mult is None \
        else params.deadline_mult * solo_latency

    gpu = testbed.gpu("orion", OrionConfig(
        hp_request_latency=solo_latency,
        dur_threshold_frac=params.initial_dur_frac,
        be_queue_depth=params.queue_depth,
        overload_policy=params.policy,
    ))
    backend = gpu.backend

    plan = build_plan(params.model, "inference")
    hp_rps = params.hp_load * capacity
    hp_arrivals = make_arrivals(
        params.arrivals, rps=hp_rps, rng=rng_factory.stream("arrivals:hp"),
        burst_rps=3.0 * hp_rps, burst_every=duration / 4,
        burst_duration=duration / 16,
        end_rps=3.0 * hp_rps, ramp_duration=duration,
    )
    clients: List[InferenceClient] = [InferenceClient(
        sim, gpu.ctx("hp", True, "inference"), plan, device_spec, hp_arrivals,
        "hp", horizon=duration, ledger=ledger,
    )]
    be_rps = (params.be_load * capacity / be_clients) if be_clients else 0.0
    for i in range(be_clients):
        name = f"be-{i}"
        clients.append(InferenceClient(
            sim, gpu.ctx(name, False, "inference"), plan, device_spec,
            make_arrivals("poisson", rps=be_rps,
                          rng=rng_factory.stream(f"arrivals:{name}")),
            name, horizon=duration, ledger=ledger, deadline=be_deadline,
        ))

    control = guard = None
    if params.guard:
        guard = DurThresholdGuard(slo=slo)
        control = Controller(sim, backend, max(4.0 * solo_latency, 1e-4),
                             [guard]).start()

    backend.start()
    for client in clients:
        client.start()
    sim.run(until=duration)
    ledger.finalize(duration)

    jobs = {c.name: c.stats for c in clients}
    hp_latency = summarize_latencies(jobs["hp"].records,
                                     after=params.warmup)

    return OverloadResult(
        capacity=capacity,
        solo_latency=solo_latency,
        slo=slo if params.guard else None,
        hp_latency=hp_latency,
        jobs=jobs,
        ledger=ledger,
        backend_stats=report_stats(backend, OVERLOAD_STATS),
        queue_telemetry=backend.queue_telemetry(),
        guard_actions=list(control.actions) if control else [],
        guard_summary=guard.summary(control) if control else None,
        metrics=backend.metrics,
        utilization_segments=list(gpu.device.utilization_segments),
    )
