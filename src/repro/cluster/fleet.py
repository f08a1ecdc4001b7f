"""Fleet-scale resilience: N GPUs, one shared arrival stream, failover.

The cluster-placement module (§7 co-design) answers *where jobs should
live*; this module answers *what happens when the GPU they live on
dies*.  A :class:`Fleet` simulates ``num_gpus`` independent GPUs, each
running its own backend instance (Orion by default) with one resident
worker per tenant.  A shared arrival stream per tenant feeds a central
:class:`FleetRouter` that places every request on a GPU, scoring
candidates by queue depth, predicted interference (the placement
module's :func:`~repro.cluster.placement.pair_interference` between the
tenant's demand signature and the signatures already active on the
GPU), and a windowed health score.

Fleet-level faults come from the existing
:class:`~repro.faults.plan.FaultPlan` machinery — ``GpuCrash``,
``GpuDegrade`` and ``GpuRecover`` events executed by the
:class:`~repro.faults.injector.FaultInjector` with the fleet as its
target:

* **crash** — every resident worker is torn down through the normal
  ``deregister_client`` path (queues drained, streams destroyed); its
  queued and in-flight jobs are reclaimed by the router and re-admitted
  on healthy GPUs with bounded retries and exponential backoff.
* **degrade** — the device's kernel rates are scaled down; nothing is
  *told* about it: the health tracker must observe the rising service
  latencies and demote the GPU in routing.
* **recover** — a crashed GPU boots fresh (new device, new backend,
  new workers) and rejoins the routable set; a degraded GPU's slowdown
  clears.

Per-tenant policy knobs (:class:`TenantPolicy`) bound each tenant's
fleet-wide concurrency and router queue and grant priority boosts,
modeled on the ``tenant_gpu_policies`` idiom of multi-tenant GPU
operators.  The run's availability report aggregates the per-GPU
:class:`~repro.metrics.availability.ErrorLedger` entries into fleet
uptime fractions, failover counts, re-admission success and mean time
to recover.  Fully deterministic under (seed, arguments): same-seed
runs serialize byte-identically, including fault timing and every
routing decision (digested in the canonical output).
"""

from __future__ import annotations

import hashlib
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import OrionConfig
from repro.experiments.params import FleetParams
from repro.experiments.runner import get_profile
from repro.experiments.testbed import GpuStack, Testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, GpuCrash, GpuDegrade, GpuRecover
from repro.frameworks.lowering import bind_plan
from repro.metrics.availability import ErrorLedger
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.runtime.client import ClientContext
from repro.sim.process import Interrupted, Process, Signal, spawn
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.clients import (
    ClientStats,
    RequestRecord,
    arrival_loop,
    launch_ops,
)
from repro.workloads.registry import build_plan

from .placement import (
    JobSignature,
    adversarial_assignment,
    pair_interference,
    plan_placement,
    signature_of,
)

__all__ = [
    "TenantPolicy",
    "TenantSpec",
    "FleetJob",
    "GpuHealth",
    "FleetGpu",
    "FleetRouter",
    "Fleet",
    "FleetResult",
]

_ROUND = 9


def _r(x: float) -> float:
    return round(float(x), _ROUND)


# ---------------------------------------------------------------------------
# Tenants and jobs


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant routing/admission knobs enforced at the fleet router.

    ``max_concurrency`` bounds the tenant's fleet-wide dispatched jobs
    (queued-on-GPU plus in service); excess requests wait in the router
    backlog.  ``max_queued`` bounds that backlog — requests arriving
    past it are shed (rejected at admission, never tried).
    ``priority_boost`` is added to the tenant's base priority (1 for
    high-priority tenants, 0 otherwise) when ordering the backlog.
    Failover is bounded: an orphaned job is re-admitted at most
    ``max_retries`` times, with exponential backoff from
    ``backoff_base`` capped at ``backoff_cap`` seconds.
    """

    max_concurrency: Optional[int] = None
    max_queued: Optional[int] = None
    priority_boost: float = 0.0
    max_retries: int = 3
    backoff_base: float = 2e-3
    backoff_cap: float = 5e-2

    def __post_init__(self):
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1 (or None)")
        if self.max_queued is not None and self.max_queued < 0:
            raise ValueError("max_queued must be >= 0 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap <= 0:
            raise ValueError("backoff values must be > 0")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a model served fleet-wide at an aggregate rate."""

    name: str
    model: str = "mobilenet_v2"
    rps: float = 100.0
    high_priority: bool = False
    policy: TenantPolicy = field(default_factory=TenantPolicy)

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rps <= 0:
            raise ValueError("tenant rps must be > 0")


class FleetJob:
    """One request travelling through the fleet (routable unit)."""

    __slots__ = ("tenant", "seq", "arrival", "attempts", "gpus",
                 "_counted_readmit")

    def __init__(self, tenant: str, seq: int, arrival: float):
        self.tenant = tenant
        self.seq = seq
        self.arrival = arrival
        self.attempts = 0          # completed failovers so far
        self.gpus: List[int] = []  # every GPU this job was dispatched to
        self._counted_readmit = False


# ---------------------------------------------------------------------------
# Health tracking


class GpuHealth:
    """Windowed health score from observed outcomes, in [0, 1].

    The score is the recent success fraction scaled by a latency term:
    1 while the mean normalized service time (observed / solo) stays
    under ``latency_tolerance``, then decaying as ``tolerance / mean``.
    A degraded GPU is never *told* it is slow — its inflated service
    times push the score down, which is what demotes it in routing.
    """

    def __init__(self, window: int = 32, latency_tolerance: float = 2.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        if latency_tolerance <= 0:
            raise ValueError("latency_tolerance must be > 0")
        self.latency_tolerance = latency_tolerance
        self._ok: Deque[float] = deque(maxlen=window)
        self._latency: Deque[float] = deque(maxlen=window)

    def reset(self) -> None:
        """Forget the window (a recovered GPU starts with a clean slate:
        stale inflated-latency samples must not keep it demoted)."""
        self._ok.clear()
        self._latency.clear()

    def observe(self, ok: bool, norm_latency: Optional[float] = None) -> None:
        self._ok.append(1.0 if ok else 0.0)
        if norm_latency is not None:
            self._latency.append(norm_latency)

    def score(self) -> float:
        if not self._ok:
            return 1.0
        ok = sum(self._ok) / len(self._ok)
        scale = 1.0
        if self._latency:
            mean = sum(self._latency) / len(self._latency)
            if mean > self.latency_tolerance:
                scale = self.latency_tolerance / mean
        return ok * scale


# ---------------------------------------------------------------------------
# Per-GPU machinery


class _TenantWorker:
    """One tenant's resident serving process on one GPU.

    Mirrors :class:`~repro.workloads.clients.InferenceClient`'s serve
    loop, but jobs arrive from the fleet router instead of a private
    arrival process, and completion/failure is reported back to the
    router so it can account health, stats, and failover.
    """

    def __init__(self, fleet: "Fleet", gpu: "FleetGpu", spec: TenantSpec,
                 ctx: ClientContext):
        self.fleet = fleet
        self.sim = fleet.sim
        self.gpu = gpu
        self.spec = spec
        self.ctx = ctx
        self.plan = fleet.plans[spec.model]
        self.pending: Deque[FleetJob] = deque()
        self.current: Optional[FleetJob] = None
        self.dead = False
        # Warm once model state is resident on the device (the malloc at
        # the top of the serve loop); migrations wait on this before
        # uncordoning the tenant.
        self.warm = False
        self.warm_signal: Optional[Signal] = None
        # Draining: the worker finishes its in-flight job but accepts
        # nothing new; the migration state machine waits on drain_signal.
        self.draining = False
        self.drain_signal: Optional[Signal] = None
        self._work = Signal(fleet.sim)
        self._process: Optional[Process] = None

    def start(self) -> None:
        self._process = spawn(
            self.sim, self._loop(),
            f"{self.spec.name}@gpu{self.gpu.index}")

    @property
    def load(self) -> int:
        return len(self.pending) + (1 if self.current is not None else 0)

    def submit(self, job: FleetJob) -> None:
        self.pending.append(job)
        if not self._work.triggered:
            self._work.trigger()

    def drain(self) -> List[FleetJob]:
        """Stop accepting work; return the queued (not yet started) jobs.

        The in-flight job (if any) keeps running — :meth:`notify_idle`
        fires ``drain_signal`` once it completes.
        """
        self.draining = True
        jobs = list(self.pending)
        self.pending.clear()
        return jobs

    def notify_idle(self) -> None:
        """Wake a drain waiter once the in-flight job is gone."""
        if self.drain_signal is not None and not self.drain_signal.triggered:
            self.drain_signal.trigger()

    def _notify_warm(self) -> None:
        if self.warm_signal is not None and not self.warm_signal.triggered:
            self.warm_signal.trigger()

    def shutdown(self) -> List[FleetJob]:
        """Tear the worker down (GPU crash); return its reclaimed jobs."""
        if self._process is not None and self._process.alive:
            self._process.interrupt("gpu crashed")
        return self._release()

    def _release(self) -> List[FleetJob]:
        """Mark the worker dead, close its context, and hand back every
        job it held (in flight first, then queued)."""
        self.dead = True
        jobs: List[FleetJob] = []
        if self.current is not None:
            jobs.append(self.current)
            self.current = None
        jobs.extend(self.pending)
        self.pending.clear()
        self.ctx.close()
        self._notify_warm()
        self.notify_idle()
        return jobs

    def _loop(self):
        try:
            done = yield from self.ctx.malloc(self.plan.state_bytes)
            if done.error is not None:
                self._die()
                return
            self.warm = True
            self._notify_warm()
            bound = self.fleet.bound_plans[self.spec.model]
            while True:
                while not self.pending:
                    self._work = Signal(self.sim)
                    yield self._work
                    if self.dead:
                        return
                job = self.pending.popleft()
                self.current = job
                yield from self.ctx.begin_request()
                start = self.sim.now
                yield from launch_ops(self.ctx, bound.launch(self.ctx.client_id))
                yield from self.ctx.synchronize()
                self.ctx.end_request()
                if self.ctx.closed or self.ctx.poisoned:
                    # Sticky error mid-request that was not a fleet
                    # crash (those interrupt the loop): the worker dies
                    # and its jobs fail over like a crash's would.
                    self._die()
                    return
                self.current = None
                self.fleet.router.on_complete(self, job, start, self.sim.now)
        except Interrupted:
            return  # crash path: shutdown() already reclaimed the jobs

    def _die(self) -> None:
        self.fleet.router.on_worker_death(self, self._release())


class FleetGpu:
    """One simulated GPU: its device, backend instance, and workers."""

    def __init__(self, fleet: "Fleet", index: int):
        self.fleet = fleet
        self.index = index
        self.state = "down"  # boot() flips to "up"
        self.stack: Optional[GpuStack] = None  # None while down
        self.workers: Dict[str, _TenantWorker] = {}
        self.health = GpuHealth()
        self.crashes = 0
        self.recoveries = 0
        self.jobs_completed = 0

    @property
    def routable(self) -> bool:
        return self.state != "down"

    def queue_depth(self) -> int:
        return sum(w.load for w in self.workers.values())

    def boot(self) -> None:
        """Build a fresh device + backend and (re)spawn tenant workers.

        With an assignment in force, only the tenants homed on this GPU
        get workers; otherwise (the default all-resident fleet) every
        tenant is resident everywhere.
        """
        fleet = self.fleet
        hp = [t for t in fleet.tenants if t.high_priority]
        self.stack = fleet.testbed.gpu(fleet.backend_name, OrionConfig(
            hp_request_latency=fleet.solo_latency[hp[0].model] if hp else None))
        self.workers = {}
        self.stack.backend.start()
        for spec in fleet.tenants:
            if (fleet.assignment is None
                    or fleet.assignment.get(spec.name) == self.index):
                self.spawn_worker(spec)
        self.state = "up"

    def spawn_worker(self, spec: TenantSpec) -> _TenantWorker:
        """Create and start one tenant's resident worker on this GPU."""
        ctx = self.stack.ctx(f"{spec.name}@gpu{self.index}",
                             spec.high_priority, "inference")
        worker = _TenantWorker(self.fleet, self, spec, ctx)
        self.workers[spec.name] = worker
        worker.start()
        return worker

    def crash(self) -> List[FleetJob]:
        """Tear every worker down; return all reclaimed jobs."""
        self.state = "down"
        self.crashes += 1
        orphans: List[FleetJob] = []
        for spec in self.fleet.tenants:  # deterministic tenant order
            worker = self.workers.get(spec.name)
            if worker is not None:
                orphans.extend(worker.shutdown())
        self.workers = {}
        self.stack = None
        return orphans

    def degrade(self, slowdown: float) -> None:
        if self.stack is not None:
            self.stack.device.set_slowdown(slowdown)
            self.state = "degraded"

    def recover(self) -> None:
        if self.state == "down":
            self.health.reset()
            self.boot()
            self.recoveries += 1
        elif self.state == "degraded" and self.stack is not None:
            self.stack.device.set_slowdown(1.0)
            self.state = "up"
            # The slowdown is gone, but the health window still holds
            # the inflated-latency samples it produced — without a
            # reset the GPU stays demoted in routing until the window
            # rolls over (the down->boot path already starts clean).
            self.health.reset()
            self.recoveries += 1


# ---------------------------------------------------------------------------
# Routing


class FleetRouter:
    """Places every job on a GPU; owns backlog, policy, and failover.

    Candidate GPUs are scored by ``queue_depth + interference_weight *
    max pairwise interference with tenants active on the GPU +
    health_weight * (1 - health score)``; lowest score wins, ties break
    on GPU index, so routing is a pure function of simulation state.
    """

    def __init__(self, fleet: "Fleet", interference_weight: float = 1.0,
                 health_weight: float = 4.0):
        self.fleet = fleet
        self.sim = fleet.sim
        self.interference_weight = interference_weight
        self.health_weight = health_weight
        # Backlog of (sort key, job): key = (-(priority + boost), seq).
        self._backlog: List[Tuple[Tuple[float, int], FleetJob]] = []
        self._backlog_count: Dict[str, int] = {}
        self._dispatched: Dict[str, int] = {}
        # (tenant, gpu) pairs a migration has cordoned: no new dispatches.
        self._cordoned: set = set()
        # Jobs waiting out a failover backoff (scheduled via call_later):
        # tracked so horizon-end accounting never loses one mid-backoff.
        self._backoff_pending: List[FleetJob] = []
        # Accounting (all deterministic).
        self.submitted = 0
        self.dispatches = 0
        self.orphaned = 0
        self.failovers = 0
        self.readmitted_ok = 0
        self.retry_exhausted = 0
        self.migration_requeues = 0
        self.decisions: List[Tuple[float, int, int]] = []

    # -- admission ------------------------------------------------------
    def submit(self, job: FleetJob) -> None:
        self.submitted += 1
        spec = self.fleet.tenant(job.tenant)
        limit = spec.policy.max_queued
        if limit is not None and self._backlog_count.get(job.tenant, 0) >= limit:
            stats = self.fleet.stats[job.tenant]
            stats.shed += 1
            self.fleet.ledger.record_shed(job.tenant)
            return
        self._enqueue(job)
        self.pump()

    def _enqueue(self, job: FleetJob) -> None:
        spec = self.fleet.tenant(job.tenant)
        priority = (1.0 if spec.high_priority else 0.0) + spec.policy.priority_boost
        insort(self._backlog, ((-priority, job.seq), job))
        self._backlog_count[job.tenant] = \
            self._backlog_count.get(job.tenant, 0) + 1

    def backlog_size(self) -> int:
        return len(self._backlog)

    def drain_backlog(self) -> List[FleetJob]:
        """Remove and return every backlogged job (priority order).

        The public way to empty the router — used by horizon-end
        accounting and by migration drains; nothing outside the router
        touches ``_backlog`` directly.
        """
        jobs = [job for _, job in self._backlog]
        self._backlog.clear()
        self._backlog_count.clear()
        return jobs

    def drain_backoff(self) -> List[FleetJob]:
        """Remove and return jobs still waiting out a failover backoff."""
        jobs, self._backoff_pending = self._backoff_pending, []
        return jobs

    # -- migration support ----------------------------------------------
    def cordon(self, tenant: str, gpu_index: int) -> None:
        """Stop routing ``tenant`` to ``gpu_index`` (migration source)."""
        self._cordoned.add((tenant, gpu_index))

    def uncordon(self, tenant: str, gpu_index: int) -> None:
        self._cordoned.discard((tenant, gpu_index))

    def is_cordoned(self, tenant: str, gpu_index: int) -> bool:
        return (tenant, gpu_index) in self._cordoned

    def requeue(self, jobs: List[FleetJob]) -> None:
        """Return drained (not failed) jobs to the backlog.

        Unlike :meth:`reclaim` this charges no retry attempt and counts
        no failover: the jobs were healthy, their worker is just moving.
        Re-enqueueing keeps at-most-once accounting exact — the job
        object itself moves, so it can neither be lost nor duplicated.
        """
        for job in jobs:
            self.migration_requeues += 1
            self._dispatched[job.tenant] -= 1
            self._enqueue(job)
        if jobs:
            self.pump()

    # -- dispatch -------------------------------------------------------
    def pump(self) -> None:
        """Dispatch every backlog job that has capacity and a GPU."""
        progress = True
        while progress and self._backlog:
            progress = False
            for i, (_, job) in enumerate(self._backlog):
                if self._at_cap(job.tenant):
                    continue
                gpu = self._choose_gpu(job.tenant)
                if gpu is None:
                    continue
                del self._backlog[i]
                self._backlog_count[job.tenant] -= 1
                self._dispatch(job, gpu)
                progress = True
                break

    def _at_cap(self, tenant: str) -> bool:
        limit = self.fleet.tenant(tenant).policy.max_concurrency
        return limit is not None and self._dispatched.get(tenant, 0) >= limit

    def score(self, gpu: FleetGpu, tenant: str,
              others: Iterable[str]) -> float:
        """``gpu``'s placement score for ``tenant`` (lower is better),
        counting interference with the co-resident tenants ``others``."""
        score = float(gpu.queue_depth())
        score += self.health_weight * (1.0 - gpu.health.score())
        sig = self.fleet.signatures[tenant]
        interference = 0.0
        for other in others:
            if other != tenant:
                interference = max(
                    interference,
                    pair_interference(sig, self.fleet.signatures[other]))
        return score + self.interference_weight * interference

    def _choose_gpu(self, tenant: str) -> Optional[FleetGpu]:
        best: Optional[FleetGpu] = None
        best_score: Tuple[float, int] = (0.0, 0)
        for gpu in self.fleet.gpus:
            if not gpu.routable or tenant not in gpu.workers:
                continue
            worker = gpu.workers[tenant]
            if worker.dead or worker.draining \
                    or (tenant, gpu.index) in self._cordoned:
                continue
            busy = [other for other, w in gpu.workers.items() if w.load > 0]
            key = (self.score(gpu, tenant, busy), gpu.index)
            if best is None or key < best_score:
                best, best_score = gpu, key
        return best

    def _dispatch(self, job: FleetJob, gpu: FleetGpu) -> None:
        self.dispatches += 1
        self._dispatched[job.tenant] = self._dispatched.get(job.tenant, 0) + 1
        job.gpus.append(gpu.index)
        self.decisions.append((_r(self.sim.now), job.seq, gpu.index))
        gpu.workers[job.tenant].submit(job)

    # -- completion and failure -----------------------------------------
    def on_complete(self, worker: _TenantWorker, job: FleetJob,
                    start: float, end: float) -> None:
        self._dispatched[job.tenant] -= 1
        worker.gpu.jobs_completed += 1
        solo = self.fleet.solo_latency[worker.spec.model]
        norm = (end - start) / solo
        worker.gpu.health.observe(True, norm)
        stats = self.fleet.stats[job.tenant]
        stats.records.append(RequestRecord(job.arrival, start, end))
        self.fleet.ledger.record_served(job.tenant)
        if job.attempts > 0 and not job._counted_readmit:
            job._counted_readmit = True
            self.readmitted_ok += 1
        migration = self.fleet.migration
        if migration is not None:
            migration.observe_completion(worker, norm)
        if worker.draining and worker.current is None:
            worker.notify_idle()
        self.pump()

    def on_worker_death(self, worker: _TenantWorker,
                        jobs: List[FleetJob]) -> None:
        """A worker died on a sticky error (not a fleet crash)."""
        worker.gpu.health.observe(False)
        worker.gpu.workers.pop(worker.spec.name, None)
        self.reclaim(jobs, reason="worker-death")

    def reclaim(self, jobs: List[FleetJob], reason: str) -> None:
        """Fail orphaned jobs over: bounded retries, exponential backoff."""
        for job in jobs:
            self.orphaned += 1
            self._dispatched[job.tenant] -= 1
            policy = self.fleet.tenant(job.tenant).policy
            job.attempts += 1
            if job.attempts > policy.max_retries:
                self.retry_exhausted += 1
                stats = self.fleet.stats[job.tenant]
                stats.failed += 1
                self.fleet.ledger.record_failed(job.tenant)
                continue
            self.failovers += 1
            self.fleet.metrics.counter("fleet_failovers").inc()
            if self.fleet.tracer.enabled:
                self.fleet.tracer.instant(
                    "fleet", "failover", tenant=job.tenant, seq=job.seq,
                    attempt=job.attempts, reason=reason)
            delay = min(policy.backoff_cap,
                        policy.backoff_base * 2.0 ** (job.attempts - 1))
            self._backoff_pending.append(job)
            self.sim.call_later(delay, lambda j=job: self._readmit(j))

    def _readmit(self, job: FleetJob) -> None:
        # Re-admission bypasses max_queued: the job was already admitted
        # once; shedding it now would double-charge the tenant.
        self._backoff_pending.remove(job)
        self._enqueue(job)
        self.pump()


# ---------------------------------------------------------------------------
# The fleet itself


class Fleet:
    """N GPUs + router + shared arrival streams, under fault injection.

    This is the ``fleet`` target the :class:`FaultInjector` drives:
    :meth:`crash_gpu`, :meth:`degrade_gpu` and :meth:`recover_gpu`
    execute the plan's GPU-level events.
    """

    def __init__(
        self,
        testbed: Testbed,
        num_gpus: int,
        tenants: Sequence[TenantSpec],
        backend: str = "orion",
        ledger: Optional[ErrorLedger] = None,
        interference_weight: float = 1.0,
        health_weight: float = 4.0,
        assignment: Optional[Dict[str, int]] = None,
        max_tenants_per_gpu: int = 2,
    ):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if not tenants:
            raise ValueError("fleet needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if backend == "orion" and sum(t.high_priority for t in tenants) > 1:
            raise ValueError(
                "the orion backend supports one high-priority tenant per GPU")
        if assignment is not None:
            missing = set(names) - set(assignment)
            if missing:
                raise ValueError(
                    f"assignment misses tenants: {sorted(missing)}")
            for tenant, gpu in assignment.items():
                if tenant not in names:
                    raise ValueError(f"assignment names unknown tenant "
                                     f"{tenant!r}")
                if not 0 <= gpu < num_gpus:
                    raise ValueError(
                        f"tenant {tenant!r} assigned to gpu {gpu} outside "
                        f"the {num_gpus}-GPU fleet")
        if max_tenants_per_gpu < 1:
            raise ValueError("max_tenants_per_gpu must be >= 1")
        self.sim = testbed.sim
        self.num_gpus = num_gpus
        self.tenants = tuple(tenants)
        self._by_name = {t.name: t for t in self.tenants}
        self.backend_name = backend
        self.ledger = ledger if ledger is not None else ErrorLedger()
        self.tracer = testbed.tracer
        # Every GPU boots on the same testbed.
        self.testbed = testbed
        device_spec = testbed.device_spec
        self.metrics = MetricsRegistry()

        self.plans = {t.model: build_plan(t.model, "inference")
                      for t in self.tenants}
        # Kernel costs bound once per model for the fleet's lifetime,
        # shared by every worker serving that model.
        self.bound_plans = {model: bind_plan(plan, device_spec)
                            for model, plan in self.plans.items()}
        self.solo_latency: Dict[str, float] = {}
        self.signatures: Dict[str, JobSignature] = {}
        for t in self.tenants:
            profile = get_profile(t.model, "inference", device_spec)
            self.solo_latency[t.model] = profile.request_latency
            self.signatures[t.name] = signature_of(profile, name=t.name)

        self.stats: Dict[str, ClientStats] = {
            t.name: ClientStats(name=t.name, kind="inference")
            for t in self.tenants}
        self.router = FleetRouter(self, interference_weight=interference_weight,
                                  health_weight=health_weight)
        self.gpus: List[FleetGpu] = [FleetGpu(self, i)
                                     for i in range(num_gpus)]
        # Tenant -> home GPU (None: every tenant resident on every GPU).
        self.assignment: Optional[Dict[str, int]] = (
            dict(assignment) if assignment is not None else None)
        self.max_tenants_per_gpu = max_tenants_per_gpu
        # Attached by a MigrationController (repro.cluster.migration).
        self.migration = None
        # Fault accounting (the availability report's "injected" side).
        self.crashes_injected = 0
        self.degrades_injected = 0
        self.recoveries_injected = 0
        self.re_homed = 0
        self._job_seq = 0

    # -- setup ----------------------------------------------------------
    def tenant(self, name: str) -> TenantSpec:
        return self._by_name[name]

    def start(self, horizon: float) -> None:
        """Boot every GPU and spawn the shared arrival streams."""
        for gpu in self.gpus:
            gpu.boot()
        for spec in self.tenants:
            arrivals = PoissonArrivals(
                spec.rps, self.testbed.rng.stream(f"poisson:{spec.name}"))
            spawn(self.sim,
                  arrival_loop(arrivals, horizon,
                               lambda _t, name=spec.name: self._arrive(name)),
                  f"fleet-arrivals-{spec.name}")

    def _arrive(self, tenant: str) -> None:
        self._job_seq += 1
        self.router.submit(FleetJob(tenant, self._job_seq, self.sim.now))

    # -- worker lifecycle (migration / re-homing) ------------------------
    def add_worker(self, tenant: str, gpu_index: int) -> _TenantWorker:
        """Spawn ``tenant``'s resident worker on an up GPU (re-warm path)."""
        gpu = self.gpus[gpu_index]
        if not gpu.routable or gpu.stack is None:
            raise ValueError(f"gpu{gpu_index} is not up")
        if tenant in gpu.workers and not gpu.workers[tenant].dead:
            return gpu.workers[tenant]
        return gpu.spawn_worker(self.tenant(tenant))

    def remove_worker(self, tenant: str, gpu_index: int) -> List[FleetJob]:
        """Tear ``tenant``'s worker off a GPU; return any stranded jobs.

        The caller decides what happens to the returned jobs — a
        migration requeues them (no retry charge), a crash reclaims
        them through the failover path.
        """
        gpu = self.gpus[gpu_index]
        worker = gpu.workers.pop(tenant, None)
        if worker is None:
            return []
        return worker.shutdown()

    def rehome_tenant(self, tenant: str,
                      exclude: frozenset = frozenset()) -> Optional[int]:
        """Pick a deterministic new home GPU for a tenant (or None).

        Candidates are up GPUs outside ``exclude``; GPUs with free
        tenant slots win over over-capacity ones, then the router's
        scoring (queue depth, health, interference) and the GPU index
        break ties.
        """
        best: Optional[FleetGpu] = None
        best_key = None
        for gpu in self.gpus:
            if gpu.index in exclude or gpu.state != "up":
                continue
            live = [other for other, w in gpu.workers.items() if not w.dead]
            over = len(live) >= self.max_tenants_per_gpu
            key = (over, self.router.score(gpu, tenant, live), gpu.index)
            if best_key is None or key < best_key:
                best, best_key = gpu, key
        return best.index if best is not None else None

    def _rehome_after_crash(self, index: int) -> None:
        """Re-home tenants whose assigned GPU just died.

        Without this, a single-homed tenant would have no worker
        anywhere and its backlog would starve until the GPU recovered.
        If no GPU is up the assignment is left pointing at the dead GPU
        — its recovery boot restores the worker.
        """
        if self.assignment is None:
            return
        for spec in self.tenants:  # deterministic tenant order
            if self.assignment[spec.name] != index:
                continue
            new_home = self.rehome_tenant(spec.name,
                                          exclude=frozenset((index,)))
            if new_home is None:
                continue
            self.assignment[spec.name] = new_home
            self.add_worker(spec.name, new_home)
            self.re_homed += 1
            self.metrics.counter("fleet_rehomed").inc()
            if self.tracer.enabled:
                self.tracer.instant("migration", "rehome", tenant=spec.name,
                                    src=index, dst=new_home)

    # -- fault-injector target ------------------------------------------
    def crash_gpu(self, index: int) -> None:
        gpu = self.gpus[index]
        if not gpu.routable:
            return
        self.crashes_injected += 1
        self.metrics.counter("fleet_gpu_crashes").inc()
        if self.tracer.enabled:
            self.tracer.instant("fleet", "gpu_crash", gpu=index)
        self.ledger.record_down(f"gpu{index}", self.sim.now)
        orphans = gpu.crash()
        self._rehome_after_crash(index)
        self.router.reclaim(orphans, reason="gpu-crash")

    def degrade_gpu(self, index: int, slowdown: float) -> None:
        gpu = self.gpus[index]
        if not gpu.routable:
            return
        self.degrades_injected += 1
        self.metrics.counter("fleet_gpu_degrades").inc()
        if self.tracer.enabled:
            self.tracer.instant("fleet", "gpu_degrade", gpu=index,
                                slowdown=slowdown)
        gpu.degrade(slowdown)

    def recover_gpu(self, index: int) -> None:
        gpu = self.gpus[index]
        if gpu.state == "up":
            return
        was_down = gpu.state == "down"
        self.recoveries_injected += 1
        self.metrics.counter("fleet_gpu_recoveries").inc()
        if self.tracer.enabled:
            self.tracer.instant("fleet", "gpu_recover", gpu=index)
        gpu.recover()
        if was_down:
            self.ledger.record_recovered(f"gpu{index}", self.sim.now)
        self.router.pump()

    # -- end-of-run accounting ------------------------------------------
    def drain_unfinished(self) -> int:
        """Count jobs still queued/in-flight at the horizon as dropped.

        Covers the router backlog (through the public
        :meth:`FleetRouter.drain_backlog` API), jobs waiting out a
        failover backoff, and every worker's pending/current job — so
        ``submitted == served + shed + failed + dropped`` holds exactly.
        A migration controller holds no jobs: a drain requeues its jobs
        synchronously, into the backlog or onto a worker.
        """
        dropped = 0
        unfinished = self.router.drain_backlog() + self.router.drain_backoff()
        for job in unfinished:
            self.stats[job.tenant].dropped += 1
            dropped += 1
        for gpu in self.gpus:
            for worker in gpu.workers.values():
                for job in list(worker.pending) + (
                        [worker.current] if worker.current else []):
                    self.stats[job.tenant].dropped += 1
                    dropped += 1
        return dropped


# ---------------------------------------------------------------------------
# Scenario result + report


@dataclass
class FleetResult:
    """Everything one fleet scenario produced."""

    num_gpus: int
    backend: str
    plan: FaultPlan
    tenants: Tuple[TenantSpec, ...]
    jobs: Dict[str, ClientStats]
    hp_latency: LatencySummary
    ledger: ErrorLedger
    report: Dict = field(default_factory=dict)
    routing: Dict = field(default_factory=dict)
    #: Migration controller report (empty when rebalancing is off).
    migration: Dict = field(default_factory=dict)
    #: Every routing decision as (time, job seq, gpu index); the
    #: canonical output carries only its count and digest.
    decisions: List[Tuple[float, int, int]] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None

    def goodput(self, tenant: str, duration: float, after: float = 0.0) -> float:
        """Served requests per second for one tenant in [after, duration]."""
        span = duration - after
        if span <= 0:
            return 0.0
        served = [r for r in self.jobs[tenant].records
                  if after <= r.end <= duration]
        return len(served) / span


def availability_report(fleet: Fleet, duration: float) -> Dict:
    """Aggregate the ledger + router into the fleet availability report."""
    router = fleet.router
    gpus = {}
    recover_samples: List[float] = []
    for gpu in fleet.gpus:
        entry = fleet.ledger.client(f"gpu{gpu.index}")
        recover_samples.extend(entry.recovery_times)
        gpus[f"gpu{gpu.index}"] = {
            "state": gpu.state,
            "uptime_fraction": _r(
                fleet.ledger.availability(f"gpu{gpu.index}", duration)),
            "crashes": gpu.crashes,
            "recoveries": gpu.recoveries,
            "jobs_completed": gpu.jobs_completed,
            "health": _r(gpu.health.score()),
        }
    fleet_uptime = _r(sum(g["uptime_fraction"] for g in gpus.values())
                      / len(gpus))
    readmission_rate = (_r(router.readmitted_ok / router.failovers)
                        if router.failovers else None)
    mttr = (_r(sum(recover_samples) / len(recover_samples))
            if recover_samples else None)
    tenants = {}
    for spec in fleet.tenants:
        entry = fleet.ledger.client(spec.name)
        stats = fleet.stats[spec.name]
        tenants[spec.name] = {
            "served": entry.served,
            "failed": entry.failed,
            "shed": entry.shed,
            "dropped_at_horizon": stats.dropped,
        }
    report = {
        "duration": _r(duration),
        "num_gpus": fleet.num_gpus,
        "fleet_uptime_fraction": fleet_uptime,
        "gpus": gpus,
        "faults": {
            "crashes": fleet.crashes_injected,
            "degrades": fleet.degrades_injected,
            "recoveries": fleet.recoveries_injected,
        },
        "failover": {
            "orphaned": router.orphaned,
            "failovers": router.failovers,
            "readmitted": router.readmitted_ok,
            "retry_exhausted": router.retry_exhausted,
            "readmission_success_rate": readmission_rate,
            "re_homed": fleet.re_homed,
        },
        "mean_time_to_recover": mttr,
        "tenants": tenants,
    }
    if fleet.migration is not None:
        report["migrations"] = fleet.migration.migration_report()
    return report


def _routing_digest(decisions: Sequence[Tuple[float, int, int]],
                    migration_lines: Sequence[str] = ()) -> str:
    """sha256 over routing decisions plus migration transitions.

    Migration lines are appended after the decision lines, so a run
    without migrations digests identically to the pre-migration format.
    """
    blob = "\n".join(f"{t:.9f}:{seq}:{gpu}" for t, seq, gpu in decisions)
    if migration_lines:
        blob = "\n".join([blob, *migration_lines]) if blob \
            else "\n".join(migration_lines)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Scenario entry point


def _default_tenants(capacity: float, num_gpus: int, model: str,
                     hp_load: float, be_load: float,
                     be_tenants: int) -> List[TenantSpec]:
    tenants = [TenantSpec("hp", model=model, high_priority=True,
                          rps=hp_load * capacity * num_gpus,
                          policy=TenantPolicy(priority_boost=0.5))]
    for i in range(be_tenants):
        tenants.append(TenantSpec(
            f"be-{i}", model=model,
            rps=be_load * capacity * num_gpus / max(1, be_tenants)))
    return tenants


def _run_fleet_scenario(params: FleetParams, testbed: Testbed) -> FleetResult:
    """Run the fleet-resilience scenario and return its accounting.

    With no explicit ``plan``, a deterministic fleet plan is sampled
    from the seed (``crashes`` crashes + ``degrades`` degradations,
    optionally recovering ``recover_after`` seconds later).  With no
    explicit ``tenants``, one high-priority tenant and ``be_tenants``
    best-effort tenants serve ``model`` at ``hp_load``/``be_load``
    fractions of the fleet's aggregate solo capacity.  Fully
    deterministic under ``params``.

    ``placement`` selects tenant residency: ``"all"`` (default —
    every tenant resident on every GPU, migration off), ``"plan"``
    (single-home via :func:`plan_placement`), ``"adversarial"``
    (worst-case packing, for migration benchmarks), or an explicit
    ``{tenant: gpu}`` mapping.  ``rebalance=True`` attaches a
    :class:`~repro.cluster.migration.MigrationController` that
    periodically re-plans over measured interference and moves tenants
    through the cordon→drain→move→re-warm→uncordon state machine.
    """
    duration, num_gpus, model = params.duration, params.num_gpus, params.model
    placement, tenants, plan = params.placement, params.tenants, params.plan
    max_per_gpu = params.max_tenants_per_gpu
    sim, device_spec = testbed.sim, testbed.device_spec
    ledger = ErrorLedger()

    if plan is None:
        plan = FaultPlan.sample_fleet(
            params.seed, num_gpus, horizon=duration, crashes=params.crashes,
            degrades=params.degrades, slowdown=params.slowdown,
            recover_after=params.recover_after)
    non_fleet = [ev for ev in plan if not isinstance(
        ev, (GpuCrash, GpuDegrade, GpuRecover))]
    if non_fleet:
        raise ValueError(
            "fleet scenarios accept only GPU-level fault events "
            f"(GpuCrash/GpuDegrade/GpuRecover); got {non_fleet[0]!r}")
    if plan.max_gpu_index() >= num_gpus:
        raise ValueError(
            f"fault plan targets gpu {plan.max_gpu_index()} but the fleet "
            f"has only {num_gpus} GPUs")

    models = {model} | ({t.model for t in tenants} if tenants else set())
    for m in sorted(models):
        testbed.store.add(get_profile(m, "inference", device_spec))

    if tenants is None:
        capacity = 1.0 / get_profile(model, "inference",
                                     device_spec).request_latency
        tenants = _default_tenants(capacity, num_gpus, model,
                                   params.hp_load, params.be_load,
                                   params.be_tenants)

    assignment: Optional[Dict[str, int]] = None
    if placement in ("plan", "adversarial"):
        signatures = {
            t.name: signature_of(
                get_profile(t.model, "inference", device_spec), name=t.name)
            for t in tenants}
        if placement == "plan":
            placements = plan_placement(
                sorted(signatures.values(), key=lambda s: s.name),
                num_gpus, max_per_gpu=max_per_gpu)
            assignment = {job.name: p.gpu
                          for p in placements for job in p.jobs}
        else:
            assignment = adversarial_assignment(
                signatures, num_gpus, max_per_gpu=max_per_gpu)
    elif placement != "all":
        assignment = dict(placement)

    fleet = Fleet(
        testbed, num_gpus, tenants, backend=params.backend, ledger=ledger,
        interference_weight=params.interference_weight,
        health_weight=params.health_weight, assignment=assignment,
        max_tenants_per_gpu=max_per_gpu,
    )
    controller = None
    if params.rebalance:
        from repro.cluster.migration import MigrationController
        controller = MigrationController(fleet, params)
    fleet.start(duration)
    if controller is not None:
        controller.start(duration)
    injector = FaultInjector(sim, plan, fleet=fleet,
                             tracer=testbed.tracer).start()
    sim.run(until=duration)

    fleet.drain_unfinished()
    for entry in injector.log:
        ledger.record_injection(entry)
    ledger.finalize(duration)

    hp_names = [t.name for t in fleet.tenants if t.high_priority]
    hp_records = [r for name in hp_names
                  for r in fleet.stats[name].records]
    hp_records.sort(key=lambda r: (r.arrival, r.start, r.end))
    hp_latency = summarize_latencies(hp_records, after=params.warmup)

    report = availability_report(fleet, duration)
    migration_lines = (controller.digest_lines()
                       if controller is not None else ())
    routing = {
        "decisions": len(fleet.router.decisions),
        "submitted": fleet.router.submitted,
        "migrations": len(migration_lines),
        "digest": _routing_digest(fleet.router.decisions, migration_lines),
    }
    migration_report = (controller.migration_report()
                        if controller is not None else {})
    return FleetResult(
        num_gpus=num_gpus,
        backend=params.backend,
        plan=plan,
        tenants=fleet.tenants,
        jobs=dict(fleet.stats),
        hp_latency=hp_latency,
        ledger=ledger,
        report=report,
        routing=routing,
        migration=migration_report,
        decisions=list(fleet.router.decisions),
        metrics=fleet.metrics,
    )
