"""Experiment runner: builds one GPU on the shared testbed plus the
clients; runs; collects per-job latency/throughput and device
utilization.

This is the harness behind every figure/table reproduction.  Offline
profiles (the §5.2 phase) are computed once per (model, kind, device)
and cached across experiments, exactly as a real deployment would reuse
profile files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import OrionConfig
from repro.gpu.specs import DeviceSpec, get_device
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.metrics.throughput import throughput as throughput_of
from repro.metrics.utilization import UtilizationAverages, average_utilization
from repro.profiler.nsight import profile_plan
from repro.profiler.profiles import ModelProfile
from repro.sim.rng import RngFactory
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.apollo import apollo_trace
from repro.workloads.arrivals import TraceArrivals, make_arrivals
from repro.workloads.clients import ClientStats, InferenceClient, TrainingClient
from repro.workloads.registry import build_plan

from .params import ExperimentParams, JobSpec
from .testbed import Testbed, report_stats

__all__ = ["ExperimentResult", "JobResult", "get_profile",
           "solo_throughput", "solo_latency_summary"]

#: The backend counters an experiment reports.
EXPERIMENT_STATS = ("be_kernels_launched", "be_kernels_deferred",
                    "profile_misses", "sm_threshold", "clients_deregistered",
                    "watchdog_flags", "hp_deadline_misses", "be_suspensions")

# (model, kind, batch, device) -> ModelProfile; offline profiles are
# deterministic, so sharing them across experiments is sound.
_PROFILE_CACHE: Dict[tuple, ModelProfile] = {}


def get_profile(model: str, kind: str, device_spec: DeviceSpec,
                batch_size: int = 0) -> ModelProfile:
    key = (model, kind, batch_size, device_spec.name)
    if key not in _PROFILE_CACHE:
        plan = build_plan(model, kind, batch_size=batch_size)
        _PROFILE_CACHE[key] = profile_plan(plan, device_spec)
    return _PROFILE_CACHE[key]


@dataclass
class JobResult:
    """Per-job outcome of one experiment."""

    name: str
    model: str
    kind: str
    high_priority: bool
    latency: LatencySummary
    throughput: float
    stats: ClientStats


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    params: ExperimentParams
    jobs: Dict[str, JobResult]
    #: Averages over [warmup, duration]; only with ``record_utilization``.
    utilization: Optional[UtilizationAverages] = None
    #: Every device's segments, whenever the devices recorded them.
    utilization_segments: List = field(default_factory=list)
    backend_stats: Dict = field(default_factory=dict)
    metrics: Optional[MetricsRegistry] = None

    @property
    def hp_job(self) -> JobResult:
        for job in self.jobs.values():
            if job.high_priority:
                return job
        raise KeyError("no high-priority job in this experiment")

    def be_jobs(self) -> List[JobResult]:
        return [j for j in self.jobs.values() if not j.high_priority]

    @property
    def aggregate_throughput(self) -> float:
        return sum(j.throughput for j in self.jobs.values())


def _make_arrivals(job: JobSpec, params: ExperimentParams,
                   rng_factory: RngFactory):
    if job.arrivals == "apollo":
        from repro.sim.rng import substream_seed

        trace = apollo_trace(params.duration,
                             seed=substream_seed(params.seed, f"apollo:{job.name}"))
        return TraceArrivals(trace)
    rng = rng_factory.stream(f"poisson:{job.name}") \
        if job.arrivals == "poisson" else None
    return make_arrivals(job.arrivals, rps=job.rps, rng=rng)


def _run_experiment(params: ExperimentParams,
                    testbed: Testbed) -> ExperimentResult:
    """Run one collocation experiment end to end."""
    sim, device_spec = testbed.sim, testbed.device_spec

    # Offline profiling phase (cached across runs).
    hp_latency: Optional[float] = None
    for job in params.jobs:
        profile = get_profile(job.model, job.kind, device_spec, job.batch_size)
        testbed.store.add(profile)
        if job.high_priority:
            hp_latency = profile.request_latency

    orion_kwargs = dict(params.orion or {})
    orion_kwargs.setdefault("hp_request_latency", hp_latency)
    gpu = testbed.gpu(params.backend, OrionConfig(**orion_kwargs),
                      record_utilization=params.record_utilization)
    backend = gpu.backend

    clients = []
    for job in params.jobs:
        ctx = gpu.ctx(job.name, job.high_priority, job.kind)
        plan = build_plan(job.model, job.kind, batch_size=job.batch_size)
        if job.kind == "training":
            client = TrainingClient(sim, ctx, plan, device_spec, job.name,
                                    horizon=params.duration)
        else:
            arrivals = _make_arrivals(job, params, testbed.rng)
            client = InferenceClient(sim, ctx, plan, device_spec, arrivals,
                                     job.name, horizon=params.duration)
        clients.append((job, client))

    backend.start()
    for _job, client in clients:
        client.start()
    sim.run(until=params.duration)

    jobs: Dict[str, JobResult] = {}
    for job, client in clients:
        records = client.stats.records
        latency = summarize_latencies(records, after=params.warmup)
        tput = throughput_of(records, params.warmup, params.duration)
        jobs[job.name] = JobResult(job.name, job.model, job.kind,
                                   job.high_priority, latency, tput,
                                   client.stats)

    segments = [segment for device in backend.devices()
                for segment in device.utilization_segments]
    result = ExperimentResult(params=params, jobs=jobs,
                              utilization_segments=segments,
                              metrics=backend.metrics)
    if params.record_utilization:
        result.utilization = average_utilization(segments, params.warmup,
                                                 params.duration)
    result.backend_stats = report_stats(backend, EXPERIMENT_STATS)
    if result.backend_stats:
        # Only backends that keep counters (Orion) report their queues.
        result.backend_stats["queue_telemetry"] = backend.queue_telemetry()
    return result


def solo_throughput(model: str, kind: str, device: str = "V100-16GB",
                    batch_size: int = 0) -> float:
    """Dedicated-GPU throughput (1 / solo request latency)."""
    profile = get_profile(model, kind, get_device(device), batch_size)
    return 1.0 / profile.request_latency


def solo_latency_summary(model: str, device: str = "V100-16GB",
                         batch_size: int = 0) -> float:
    """Dedicated-GPU inference request latency (the Ideal reference)."""
    profile = get_profile(model, "inference", get_device(device), batch_size)
    return profile.request_latency
