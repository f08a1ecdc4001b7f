"""Live tenant migration: closed-loop, crash-safe fleet rebalancing.

The placement module predicts interference from offline signatures and
the fleet acts on it once, at boot.  But predicted signatures misrank
real collocations, and a bad pairing (or a degraded-then-recovered GPU)
otherwise persists for the whole run.  This module closes the loop: a
:class:`MigrationController` measures pairwise interference from the
latencies tenants actually observe while co-active, periodically
re-plans the assignment with
:func:`~repro.cluster.placement.replan_placement`, prices each
candidate move against a drain + re-warm cost model, and executes the
accepted moves through a crash-safe state machine::

    planned -> cordoned -> draining -> moving -> rewarming -> completed
                   |            |          |          |
                   +------------+----------+----------+--> rolled-back
                                                       \\-> rerouted

Safety properties:

* **At-most-once job accounting.**  A migration never creates or loses
  a job: the drain step pulls the source worker's queued jobs and
  requeues the very same objects at the router inside one simulation
  event (no in-transit gap), and the in-flight job finishes on the
  source before the worker is torn down.  ``submitted == served + shed
  + failed + dropped`` holds exactly through any number of moves.
* **Rollback / re-route.**  If the destination dies or degrades while
  the tenant is draining or re-warming, the move is unwound: back to
  the source if it is still up (*rolled-back*), else to the best
  healthy GPU (*rerouted*).  If a GPU crash re-homes the tenant first
  (the fleet's crash path runs independently), the controller detects
  the changed assignment and stands down.
* **Hysteresis.**  A per-tenant cooldown, a cap on concurrent
  migrations, and a minimum predicted-gain threshold keep the
  controller from thrashing; the cost model additionally rejects moves
  whose predicted benefit over the remaining horizon does not pay for
  the drain + re-warm disruption.

Determinism: every decision is a pure function of simulation state, and
every state transition is folded into the run's routing digest, so
same-seed replays are byte-identical or the digest catches the drift.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments.params import FleetParams
from repro.sim.process import Signal, Timeout, spawn

from .placement import MoveProposal, pair_interference, replan_placement

__all__ = [
    "MigrationCostModel",
    "InterferenceTracker",
    "MigrationRecord",
    "MigrationController",
]

_ROUND = 9


def _r(x: float) -> float:
    return round(float(x), _ROUND)


@dataclass(frozen=True)
class MigrationCostModel:
    """Prices one move in seconds of disruption.

    Draining costs the queued work at the source (jobs x solo latency);
    re-warming costs shipping the model state to the destination at
    ``rewarm_bandwidth`` bytes/s (PCIe-class by default).  Both are
    *predictions* used to rank moves — the actual timing comes from the
    runtime when the move executes.
    """

    rewarm_bandwidth: float = 12e9

    def drain_seconds(self, queued: int, solo_latency: float) -> float:
        return queued * solo_latency

    def rewarm_seconds(self, state_bytes: int) -> float:
        return state_bytes / self.rewarm_bandwidth

    def cost_seconds(self, queued: int, solo_latency: float,
                     state_bytes: int) -> float:
        return (self.drain_seconds(queued, solo_latency)
                + self.rewarm_seconds(state_bytes))


class InterferenceTracker:
    """Windowed measured interference per co-active tenant pair.

    Each time a job completes while another tenant is active on the
    same GPU, the *excess* normalized latency — ``max(0, observed/solo
    - 1)`` — is attributed to every such pair.  The pairwise estimate
    is the window mean once ``min_samples`` observations exist;
    otherwise the caller falls back to the predicted signature-based
    score.  Keys are unordered pairs, so the estimate is symmetric by
    construction.
    """

    def __init__(self, window: int = 32, min_samples: int = 8):
        self.window = window
        self.min_samples = min_samples
        self._samples: Dict[Tuple[str, str], Deque[float]] = {}

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def observe(self, a: str, b: str, excess: float) -> None:
        key = self._key(a, b)
        window = self._samples.get(key)
        if window is None:
            window = self._samples[key] = deque(maxlen=self.window)
        window.append(max(0.0, excess))

    def measured(self, a: str, b: str) -> Optional[float]:
        window = self._samples.get(self._key(a, b))
        if window is None or len(window) < self.min_samples:
            return None
        return sum(window) / len(window)

    def sample_count(self, a: str, b: str) -> int:
        window = self._samples.get(self._key(a, b))
        return 0 if window is None else len(window)


@dataclass
class MigrationRecord:
    """One migration's full history (reported and digested)."""

    seq: int
    tenant: str
    src: int
    dst: int
    predicted_gain: float
    cost_seconds: float
    source: str  # "measured" | "predicted" (what scored the move)
    started: float
    transitions: List[Tuple[float, str]] = field(default_factory=list)
    outcome: str = "in-flight"
    finished: Optional[float] = None
    final_gpu: Optional[int] = None

    def as_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "tenant": self.tenant,
            "src": self.src,
            "dst": self.dst,
            "predicted_gain": _r(self.predicted_gain),
            "cost_seconds": _r(self.cost_seconds),
            "source": self.source,
            "started": _r(self.started),
            "finished": _r(self.finished) if self.finished is not None
            else None,
            "final_gpu": self.final_gpu,
            "outcome": self.outcome,
            "transitions": [[_r(t), s] for t, s in self.transitions],
        }


class MigrationController:
    """Periodically re-plans placement and executes safe tenant moves.

    Attach to a single-home fleet (``fleet.assignment`` must be set);
    :meth:`start` spawns the tick loop.  Its knobs are the fleet
    scenario's own :class:`~repro.experiments.params.FleetParams`
    fields: ``rebalance_interval`` is the re-plan period,
    ``migration_cooldown`` the per-tenant quiet time after a completed
    move, ``max_inflight_migrations`` the fleet-wide cap on concurrent
    moves, ``migration_min_gain`` the smallest predicted interference
    reduction worth considering and ``migration_cost_weight`` scales the
    drain+re-warm cost against the gain integrated over the remaining
    horizon; ``measure_window``/``measure_min_samples`` bound the
    measured-interference window.  All decisions and transitions
    are deterministic and recorded — :meth:`digest_lines` feeds the
    routing digest, :meth:`migration_report` the availability report.
    """

    def __init__(self, fleet, params: Optional[FleetParams] = None,
                 cost_model: Optional[MigrationCostModel] = None):
        if fleet.assignment is None:
            raise ValueError(
                "migration needs a single-home fleet: pass assignment= "
                "(placement='plan'/'adversarial' at the scenario layer)")
        self.fleet = fleet
        self.sim = fleet.sim
        self.params = params or FleetParams()
        self.cost_model = cost_model or MigrationCostModel()
        self.tracker = InterferenceTracker(
            window=self.params.measure_window,
            min_samples=self.params.measure_min_samples)
        self.horizon: Optional[float] = None
        self.records: List[MigrationRecord] = []
        self._inflight: Dict[str, MigrationRecord] = {}
        self._last_move: Dict[str, float] = {}
        self._digest: List[str] = []
        self._seq = 0
        self.ticks = 0
        self.rejected_by_cost = 0
        self.measured_decisions = 0
        self.predicted_decisions = 0
        fleet.migration = self

    # -- measurement feed (called by the router on every completion) ----
    def observe_completion(self, worker, norm_latency: float) -> None:
        """Attribute one completion's excess latency to co-active pairs."""
        excess = max(0.0, norm_latency - 1.0)
        tenant = worker.spec.name
        for other, w in worker.gpu.workers.items():
            if other != tenant and not w.dead and w.load > 0:
                self.tracker.observe(tenant, other, excess)

    # -- interference estimate used by the re-planner -------------------
    def pair(self, a: str, b: str) -> float:
        measured = self.tracker.measured(a, b)
        if measured is not None:
            return measured
        return pair_interference(self.fleet.signatures[a],
                                 self.fleet.signatures[b])

    # -- control loop ---------------------------------------------------
    def start(self, horizon: float):
        self.horizon = horizon
        return spawn(self.sim, self._tick_loop(horizon), "migration-ctl")

    def _tick_loop(self, horizon: float):
        while True:
            yield Timeout(self.params.rebalance_interval)
            if self.sim.now >= horizon:
                return
            self.ticks += 1
            self._tick()

    def _pinned(self) -> set:
        now = self.sim.now
        pinned = set(self._inflight)
        for tenant, t in self._last_move.items():
            if now - t < self.params.migration_cooldown:
                pinned.add(tenant)
        return pinned

    def _tick(self) -> None:
        fleet = self.fleet
        budget = self.params.max_inflight_migrations - len(self._inflight)
        if budget <= 0:
            return
        allowed = {g.index for g in fleet.gpus if g.state == "up"}
        if len(allowed) < 2:
            return
        proposals = replan_placement(
            fleet.assignment, fleet.num_gpus, self.pair,
            max_per_gpu=fleet.max_tenants_per_gpu,
            pinned=self._pinned(),
            min_gain=self.params.migration_min_gain,
            max_moves=budget,
            allowed_gpus=allowed,
        )
        for proposal in proposals:
            if len(self._inflight) >= self.params.max_inflight_migrations:
                break
            self._maybe_execute(proposal)

    def _maybe_execute(self, proposal: MoveProposal) -> None:
        fleet = self.fleet
        tenant = proposal.tenant
        # The plan was computed against a snapshot; re-validate live.
        if fleet.assignment.get(tenant) != proposal.src:
            return
        src_gpu = fleet.gpus[proposal.src]
        dst_gpu = fleet.gpus[proposal.dst]
        if dst_gpu.state != "up":
            return
        worker = src_gpu.workers.get(tenant)
        spec = fleet.tenant(tenant)
        queued = worker.load if worker is not None else 0
        cost = self.cost_model.cost_seconds(
            queued, fleet.solo_latency[spec.model],
            fleet.plans[spec.model].state_bytes)
        remaining = ((self.horizon - self.sim.now)
                     if self.horizon is not None else self.params.rebalance_interval)
        if proposal.gain * remaining <= self.params.migration_cost_weight * cost:
            self.rejected_by_cost += 1
            if fleet.tracer.enabled:
                fleet.tracer.instant(
                    "migration", "rejected_by_cost", tenant=tenant,
                    src=proposal.src, dst=proposal.dst,
                    gain=_r(proposal.gain), cost=_r(cost))
            return
        source = ("measured"
                  if self._scored_by_measurement(tenant, proposal.src)
                  else "predicted")
        if source == "measured":
            self.measured_decisions += 1
        else:
            self.predicted_decisions += 1
        self._seq += 1
        record = MigrationRecord(
            seq=self._seq, tenant=tenant, src=proposal.src,
            dst=proposal.dst, predicted_gain=proposal.gain,
            cost_seconds=cost, source=source, started=self.sim.now)
        self.records.append(record)
        self._inflight[tenant] = record
        self._transition(record, "planned")
        self.fleet.metrics.counter("fleet_migrations_started").inc()
        spawn(self.sim, self._execute(record),
              f"migrate-{tenant}-{self._seq}")

    def _scored_by_measurement(self, tenant: str, src: int) -> bool:
        """True when any co-resident pair at the source had enough
        samples for the measured estimate to drive the decision."""
        for other, w in self.fleet.gpus[src].workers.items():
            if other != tenant and not w.dead \
                    and self.tracker.measured(tenant, other) is not None:
                return True
        return False

    # -- the state machine ----------------------------------------------
    def _transition(self, record: MigrationRecord, state: str) -> None:
        now = self.sim.now
        record.transitions.append((now, state))
        self._digest.append(
            f"m:{now:.9f}:{record.seq}:{record.tenant}:"
            f"{record.src}->{record.dst}:{state}")
        if self.fleet.tracer.enabled:
            self.fleet.tracer.instant(
                "migration", state, tenant=record.tenant,
                src=record.src, dst=record.dst, seq=record.seq)

    def _finish(self, record: MigrationRecord, outcome: str,
                final_gpu: Optional[int]) -> None:
        record.outcome = outcome
        record.finished = self.sim.now
        record.final_gpu = final_gpu
        self._transition(record, outcome)
        self._inflight.pop(record.tenant, None)
        self._last_move[record.tenant] = self.sim.now
        self.fleet.metrics.counter(
            f"fleet_migrations_{outcome.replace('-', '_')}").inc()
        if self.fleet.tracer.enabled:
            self.fleet.tracer.span(
                "migration", f"migrate:{record.tenant}",
                record.started, self.sim.now,
                outcome=outcome, src=record.src, dst=record.dst)
        self.fleet.router.pump()

    def _execute(self, record: MigrationRecord):
        fleet = self.fleet
        router = fleet.router
        tenant = record.tenant
        src, dst = record.src, record.dst

        # cordon: no new dispatches to the source while we move.
        router.cordon(tenant, src)
        self._transition(record, "cordoned")
        try:
            worker = fleet.gpus[src].workers.get(tenant)
            if worker is None or worker.dead:
                # The source died between planning and execution; the
                # crash path (reclaim + re-home) already owns the jobs.
                self._finish(record, "failed", fleet.assignment.get(tenant))
                return

            # drain: queued jobs go straight back to the router (same
            # objects, same event — no accounting gap); the in-flight
            # job finishes on the source.
            self._transition(record, "draining")
            worker.drain_signal = Signal(self.sim)
            router.requeue(worker.drain())
            if worker.current is not None and not worker.dead:
                yield worker.drain_signal

            if worker.dead or fleet.assignment.get(tenant) != src:
                # Source crashed mid-drain; reclaim/re-home handled it.
                self._finish(record, "rerouted", fleet.assignment.get(tenant))
                return

            # move: tear the source worker down through the normal
            # deregister path and flip the tenant's home.
            self._transition(record, "moving")
            leftovers = fleet.remove_worker(tenant, src)
            if leftovers:
                router.requeue(leftovers)
            fleet.assignment[tenant] = dst

            if fleet.gpus[dst].state != "up":
                yield from self._unwind(record, src)
                return

            # rewarm: spawn the destination worker and wait for its
            # model state to be resident.
            self._transition(record, "rewarming")
            new_worker = fleet.add_worker(tenant, dst)
            if not new_worker.warm:
                new_worker.warm_signal = Signal(self.sim)
                yield new_worker.warm_signal

            if fleet.assignment.get(tenant) != dst:
                # Destination crashed mid-warm; the crash path already
                # re-homed the tenant somewhere healthy.
                self._finish(record, "rerouted", fleet.assignment.get(tenant))
                return
            if new_worker.dead or fleet.gpus[dst].state != "up":
                yield from self._unwind(record, src)
                return

            self._finish(record, "completed", dst)
        finally:
            router.uncordon(tenant, src)
            router.pump()

    def _unwind(self, record: MigrationRecord, src: int):
        """Destination unusable mid-move: go back (or somewhere healthy).

        *rolled-back* when the original source still works; *rerouted*
        to the best healthy GPU otherwise; *failed* when nothing is up
        (the assignment keeps pointing at the destination so its
        eventual recovery boot restores the worker).
        """
        fleet = self.fleet
        tenant = record.tenant
        target: Optional[int] = None
        outcome = "failed"
        if fleet.gpus[src].state == "up":
            target, outcome = src, "rolled-back"
        else:
            best = fleet.rehome_tenant(tenant,
                                       exclude=frozenset((record.dst,)))
            if best is not None:
                target, outcome = best, "rerouted"
        if target is not None:
            fleet.assignment[tenant] = target
            worker = fleet.add_worker(tenant, target)
            if not worker.warm and not worker.dead:
                worker.warm_signal = Signal(self.sim)
                yield worker.warm_signal
        self._finish(record, outcome, fleet.assignment.get(tenant))

    # -- accounting hooks -----------------------------------------------
    def digest_lines(self) -> List[str]:
        """Migration transitions for the routing digest (event order)."""
        return list(self._digest)

    def migration_report(self) -> Dict:
        outcomes = {"completed": 0, "rolled-back": 0, "rerouted": 0,
                    "failed": 0, "in-flight": 0}
        net_gain = 0.0
        for record in self.records:
            outcomes[record.outcome] += 1
            if record.outcome == "completed":
                net_gain += record.predicted_gain
        return {
            "started": len(self.records),
            "ticks": self.ticks,
            "completed": outcomes["completed"],
            "rolled_back": outcomes["rolled-back"],
            "rerouted": outcomes["rerouted"],
            "failed": outcomes["failed"],
            "in_flight": outcomes["in-flight"],
            "rejected_by_cost": self.rejected_by_cost,
            "requeued_jobs": self.fleet.router.migration_requeues,
            "re_homed": self.fleet.re_homed,
            "measured_decisions": self.measured_decisions,
            "predicted_decisions": self.predicted_decisions,
            "net_predicted_gain": _r(net_gain),
            "records": [r.as_dict() for r in self.records],
        }
