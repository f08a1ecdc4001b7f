"""The Orion scheduler backend (paper §5, Listing 1).

Clients' GPU operations are intercepted into per-client software
queues.  A scheduler process drains them:

* high-priority kernels are forwarded immediately to a dedicated
  high-priority CUDA stream;
* best-effort kernels are admitted round-robin, only when the policy in
  :mod:`repro.core.policy` allows: the kernel is small enough
  (SM_THRESHOLD), has the opposite compute/memory profile to the
  current high-priority kernel, and the outstanding best-effort
  pipeline is under the DUR_THRESHOLD budget — tracked with CUDA
  events, never with blocking synchronization (§5.1.2);
* memory operations bypass the kernel policy and go straight to the
  device (§5.1.3); their blocking semantics are enforced by the device
  model itself.

All decisions use *profiled* kernel characteristics from the offline
profiling phase (§5.2), not simulator ground truth.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.gpu.cuda_events import CudaEvent
from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaError, CudaErrorCode
from repro.kernels.kernel import KernelOp, MemoryOp, ResourceProfile
from repro.profiler.profiles import KernelProfile, ProfileStore
from repro.runtime.backend import (
    Backend,
    BackendOptions,
    ClientInfo,
    Op,
    SoftwareQueue,
    UnknownClientError,
)
from repro.sim.engine import Simulator
from repro.sim.process import Signal, Timeout, spawn

from .policy import PolicyConfig, have_different_profiles

__all__ = ["OrionBackend", "OrionConfig", "OVERLOAD_POLICIES"]

# HP request latency assumed before the first profile/measurement lands
# (OrionConfig.fallback_hp_latency overrides; kept as the default).
_FALLBACK_HP_LATENCY = 10e-3
# Per-op interception cost of Orion's wrappers (<1% overhead, §6.5).
ORION_INTERCEPTION_OVERHEAD = 0.4e-6

#: Valid per-client bounded-queue policies (DESIGN.md §6.2).
OVERLOAD_POLICIES = ("block", "reject")


class OrionConfig(PolicyConfig):
    """Policy config plus scheduler-level settings.

    ``manage_pcie`` enables the §5.1.3 extension: best-effort
    host<->device copies are held in the software queue while a
    high-priority transfer occupies the PCIe bus, so the latency-
    critical job's copies get the full bus bandwidth.

    ``watchdog_multiple`` (off when None) arms a watchdog that flags a
    best-effort kernel whose completion is overdue by that multiple of
    its profiled duration; flags are surfaced in backend telemetry.
    ``watchdog_interval`` is the watchdog's polling period in seconds.

    Overload protection (DESIGN.md §6.2): ``be_queue_depth`` bounds
    each best-effort software queue (None = unbounded, the paper's
    behaviour); when a queue is full, ``overload_policy`` decides
    whether ``submit`` blocks the client until the queue drains to
    ``be_queue_high_water`` ("block", the default) or rejects the op
    with a retryable ``QUEUE_FULL`` status ("reject"), for every
    best-effort client alike.
    ``fallback_hp_latency`` is the HP request latency assumed before
    any profile or measurement lands.  ``hp_window`` sizes the rolling
    window of observed HP request latencies the SLO guard watches.

    ``protect_prefill`` (phase-aware scheduling, §7 extension): while
    the high-priority client has declared a ``"prefill"`` phase via
    :meth:`OrionBackend.phase_marker` and its work is in flight, no
    best-effort kernel is admitted at all — the compute-bound prefill
    gets the whole GPU so TTFT stays flat, while decode phases fall
    back to the normal resource-aware policy (which happily collocates
    the memory-bound decode with compute-heavy best-effort kernels).
    Inert for workloads that never declare a prefill phase.
    """

    def __init__(self, hp_request_latency: Optional[float] = None,
                 manage_pcie: bool = False,
                 watchdog_multiple: Optional[float] = None,
                 watchdog_interval: float = 1e-3,
                 fallback_hp_latency: float = _FALLBACK_HP_LATENCY,
                 be_queue_depth: Optional[int] = None,
                 be_queue_high_water: Optional[int] = None,
                 overload_policy: str = "block",
                 protect_prefill: bool = True,
                 hp_window: int = 128, **kwargs):
        super().__init__(**kwargs)
        if watchdog_multiple is not None and watchdog_multiple <= 0:
            raise ValueError("watchdog_multiple must be positive")
        if watchdog_interval <= 0:
            raise ValueError("watchdog_interval must be positive")
        if fallback_hp_latency <= 0:
            raise ValueError("fallback_hp_latency must be positive")
        if be_queue_depth is not None and be_queue_depth < 1:
            raise ValueError("be_queue_depth must be >= 1")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(f"overload_policy must be one of "
                             f"{OVERLOAD_POLICIES}, got {overload_policy!r}")
        if hp_window < 1:
            raise ValueError("hp_window must be >= 1")
        self.hp_request_latency = hp_request_latency
        self.manage_pcie = manage_pcie
        self.watchdog_multiple = watchdog_multiple
        self.watchdog_interval = watchdog_interval
        self.fallback_hp_latency = fallback_hp_latency
        self.be_queue_depth = be_queue_depth
        self.be_queue_high_water = be_queue_high_water
        self.overload_policy = overload_policy
        self.protect_prefill = protect_prefill
        self.hp_window = hp_window


class _BeClientState:
    """Per-best-effort-client scheduling state."""

    __slots__ = ("queue", "stream", "event", "outstanding",
                 "head_op", "head_version", "head_profile", "head_missed")

    def __init__(self, queue: SoftwareQueue, stream):
        self.queue = queue
        self.stream = stream
        self.event = CudaEvent()
        self.outstanding = 0.0  # expected seconds of submitted-unfinished work
        # Profile of the queue's head kernel, valid while the head is
        # ``head_op`` and the store is at ``head_version``; a blocked
        # head is re-checked on every wake.
        self.head_op: Optional[KernelOp] = None
        self.head_version = -1
        self.head_profile: Optional[KernelProfile] = None
        self.head_missed = False


class OrionBackend(Backend):
    """Fine-grained, interference-aware GPU scheduler."""

    name = "orion"

    def __init__(
        self,
        sim: Simulator,
        device: GpuDevice,
        profiles: ProfileStore,
        config: Optional[OrionConfig] = None,
        options: Optional[BackendOptions] = None,
    ):
        super().__init__(sim, options)
        self.device = device
        self.profiles = profiles
        self.config = config or OrionConfig()
        self._hp_queue: Optional[SoftwareQueue] = None
        self._hp_stream = None
        self._hp_client_id: Optional[str] = None
        self._be: Dict[str, _BeClientState] = {}
        self._current_hp: Optional[KernelOp] = None
        self._started = False
        # EWMA of observed HP request latency (used when no profiled
        # latency was supplied).
        self._hp_latency_ewma: Optional[float] = None
        self._hp_request_started_at: Optional[float] = None
        self._hp_request_deadline: Optional[float] = None
        # Rolling window of observed HP request latencies, watched by
        # the adaptive SLO guard (repro.core.sloguard).
        self.hp_latency_window: Deque[float] = deque(
            maxlen=self.config.hp_window)
        # Overload state: while suspended, no best-effort kernel is
        # admitted at all (the SLO guard's emergency brake).
        self.be_admission_suspended = False
        self.be_suspensions = 0
        # Phase hint from the HP client (phase_marker); "prefill" arms
        # the protect_prefill deferral in _try_launch_be.
        self._hp_phase: Optional[str] = None
        # Counters for tests/telemetry.
        self.be_kernels_launched = 0
        self.be_kernels_deferred = 0
        self.prefill_deferrals = 0
        self.profile_misses = 0
        self.hp_requests_completed = 0
        self.hp_deadline_misses = 0
        self.clients_deregistered = 0
        self._hp_transfers_active = 0
        # Watchdog state: flagged overdue BE kernels (op seq -> record).
        self.watchdog_flags: List[dict] = []
        self._watchdog_seen: set = set()
        self._watchdog_wake = Signal(sim)

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        info = self._register(client_id, high_priority, kind)
        if high_priority:
            if self._hp_queue is not None:
                raise ValueError("Orion supports exactly one high-priority client")
            priority = 1 if self.config.use_stream_priorities else 0
            self._hp_stream = self.device.create_stream(priority=priority,
                                                        name="orion-hp")
            # The HP queue is never bounded: overload protection sheds
            # best-effort work, not the latency-critical job's.
            self._hp_queue = self._new_queue(client_id)
            self._hp_client_id = client_id
        else:
            stream = self.device.create_stream(priority=0, name=f"orion-be-{client_id}")
            queue = self._new_queue(client_id,
                                    max_depth=self.config.be_queue_depth,
                                    high_water=self.config.be_queue_high_water)
            state = _BeClientState(queue, stream)
            self._be[client_id] = state
            self._be_order.append(client_id)
        return info

    def devices(self) -> List[GpuDevice]:
        return [self.device]

    def interception_overhead(self) -> float:
        return ORION_INTERCEPTION_OVERHEAD

    def stats(self) -> Dict[str, object]:
        return {
            "be_kernels_launched": self.be_kernels_launched,
            "be_kernels_deferred": self.be_kernels_deferred,
            "prefill_deferrals": self.prefill_deferrals,
            "profile_misses": self.profile_misses,
            "sm_threshold": self.sm_threshold,
            "dur_threshold_frac": self.config.dur_threshold_frac,
            "protect_prefill": self.config.protect_prefill,
            "clients_deregistered": self.clients_deregistered,
            "watchdog_flags": len(self.watchdog_flags),
            "hp_requests_completed": self.hp_requests_completed,
            "hp_deadline_misses": self.hp_deadline_misses,
            "be_suspensions": self.be_suspensions,
        }

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._start_scheduler()
            if self.config.watchdog_multiple is not None:
                spawn(self.sim, self._run_watchdog(), "orion-watchdog")

    def submit(self, client_id: str, op: Op) -> Signal:
        # Hot path: direct dict lookup (client_info adds a call frame).
        info = self.clients.get(client_id)
        if info is None:
            raise UnknownClientError(client_id, self.name)
        if isinstance(op, MemoryOp):
            # With PCIe management on, best-effort transfers go through
            # the software queue so the scheduler can keep the bus clear
            # for high-priority copies (§5.1.3 extension).
            if (self.config.manage_pcie and not info.high_priority
                    and op.kind.is_transfer):
                state = self._be_state(client_id)
                if state.queue.full and self.config.overload_policy == "reject":
                    return self._reject_overload(state.queue, client_id)
                done = state.queue.push(op)
                self._wake_scheduler()
                return done
            # Otherwise memory ops bypass the kernel policy.  Their
            # completion still wakes the scheduler: a request's trailing
            # D2H copy is often the op whose completion opens the
            # HP-idle window best-effort kernels are waiting for.
            done = self._memory_stream_for(client_id, info).submit(op)
            if info.high_priority and op.kind.is_transfer:
                self._hp_transfers_active += 1
                done.add_callback(lambda _sig: self._hp_transfer_done())
            self._watch_stream(done)
            return done
        if info.high_priority:
            done = self._hp_queue.push(op)
        else:
            state = self._be_state(client_id)
            if state.queue.full and self.config.overload_policy == "reject":
                return self._reject_overload(state.queue, client_id)
            done = state.queue.push(op)
        self._wake_scheduler()
        return done

    def _reject_overload(self, queue: SoftwareQueue, client_id: str) -> Signal:
        """Load shedding at the queue: complete immediately with the
        retryable ``QUEUE_FULL`` status instead of enqueueing."""
        if self.tracer.enabled:
            self.tracer.instant("scheduler", "queue_reject",
                                client=client_id, depth=queue.depth)
        return queue.reject()

    def admission_gate(self, client_id: str) -> Optional[Signal]:
        """Backpressure: block a best-effort client whose bounded queue
        is full (policy "block") until it drains to the high-water
        mark.  High-priority clients are never blocked."""
        info = self.client_info(client_id)
        if info.high_priority:
            return None
        state = self._be.get(client_id)
        if (state is None or self.config.overload_policy != "block"
                or not state.queue.full):
            return None
        return state.queue.wait_for_room()

    def begin_request(self, client_id: str,
                      deadline: Optional[float] = None) -> Optional[Signal]:
        if client_id == self._hp_client_id:
            self._hp_request_started_at = self.sim.now
            self._hp_request_deadline = deadline
        return None

    def phase_marker(self, client_id: str, phase: str) -> Optional[Signal]:
        """Record the HP client's declared phase (§7 phase hints).

        Only the high-priority client's markers matter here: entering
        ``"prefill"`` arms the protect-prefill deferral, leaving it
        wakes the scheduler so deferred best-effort work re-evaluates.
        Never blocks the caller.
        """
        if client_id == self._hp_client_id and phase != self._hp_phase:
            self._hp_phase = phase
            if phase != "prefill":
                self._wake_scheduler()
        return None

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        """Self-healing teardown for a dead client (§7's cluster-manager
        duty, absorbed into the scheduler): drain its software queue
        with errored signals, destroy its stream, free its allocations,
        repair the round-robin state, and — for the high-priority
        client — vacate the HP slot so a successor can register."""
        client_id = info.client_id
        error = CudaError(CudaErrorCode.CLIENT_KILLED,
                          "client deregistered with ops pending",
                          client_id=client_id, time=self.sim.now)
        # Scheduler bookkeeping is repaired *before* any signal fires:
        # triggering a drained/destroyed op's signal can run a scheduler
        # pass synchronously, and it must never observe the dead client
        # in its round-robin order or HP slot.
        if client_id == self._hp_client_id:
            hp_queue, hp_stream = self._hp_queue, self._hp_stream
            self._hp_queue = None
            self._hp_stream = None
            self._hp_client_id = None
            self._current_hp = None
            self._hp_request_started_at = None
            self._hp_request_deadline = None
            self._hp_phase = None
            # A successor HP client is a different workload: its latency
            # estimate must be re-learned, not inherited from the dead one.
            self._hp_latency_ewma = None
            self.hp_latency_window.clear()
            for _op, done in hp_queue.drain():
                done.trigger(None, error=error)
            self.device.destroy_stream(hp_stream, error=error)
        elif client_id in self._be:
            state = self._be.pop(client_id)
            self._leave_rotation(client_id)
            for _op, done in state.queue.drain():
                done.trigger(None, error=error)
            self.device.destroy_stream(state.stream, error=error)
        self.device.release_client(client_id)
        self.clients_deregistered += 1
        self._wake_scheduler()

    def end_request(self, client_id: str) -> None:
        if client_id == self._hp_client_id and self._hp_request_started_at is not None:
            observed = self.sim.now - self._hp_request_started_at
            if self._hp_latency_ewma is None:
                self._hp_latency_ewma = observed
            else:
                self._hp_latency_ewma = 0.8 * self._hp_latency_ewma + 0.2 * observed
            self.hp_latency_window.append(observed)
            if (self._hp_request_deadline is not None
                    and self.sim.now > self._hp_request_deadline):
                self.hp_deadline_misses += 1
            self._hp_request_started_at = None
            self._hp_request_deadline = None
            self.hp_requests_completed += 1
            if self._hp_phase is not None:
                # Phase hints are request-scoped: a lingering "prefill"
                # must not keep deferring best-effort work while the HP
                # client sits idle between requests.
                self._hp_phase = None
                self._wake_scheduler()

    # ------------------------------------------------------------------
    # Overload controls (driven by repro.core.sloguard)
    # ------------------------------------------------------------------
    def suspend_be_admission(self) -> None:
        """Stop admitting best-effort kernels entirely (emergency brake
        when the HP SLO is breached and DUR_THRESHOLD is already at its
        floor).  Queued ops stay queued; blocked clients stay blocked."""
        if not self.be_admission_suspended:
            self.be_admission_suspended = True
            self.be_suspensions += 1
            if self.tracer.enabled:
                self.tracer.instant("scheduler", "be_admission_suspended")

    def resume_be_admission(self) -> None:
        """Re-open best-effort admission after the SLO recovers."""
        if self.be_admission_suspended:
            self.be_admission_suspended = False
            if self.tracer.enabled:
                self.tracer.instant("scheduler", "be_admission_resumed")
            self._wake_scheduler()

    # ------------------------------------------------------------------
    # Scheduler internals
    # ------------------------------------------------------------------
    def _be_state(self, client_id: str) -> _BeClientState:
        try:
            return self._be[client_id]
        except KeyError:
            raise UnknownClientError(client_id, self.name) from None

    def _memory_stream_for(self, client_id: str, info: ClientInfo):
        if info.high_priority:
            return self._hp_stream
        return self._be_state(client_id).stream

    def _wake_watchdog(self) -> None:
        if not self._watchdog_wake.triggered:
            self._watchdog_wake.trigger()

    @property
    def hp_request_latency(self) -> float:
        if self.config.hp_request_latency is not None:
            return self.config.hp_request_latency
        if self._hp_latency_ewma is not None:
            return self._hp_latency_ewma
        return self.config.fallback_hp_latency

    @property
    def sm_threshold(self) -> int:
        if self.config.sm_threshold is not None:
            return self.config.sm_threshold
        return self.device.spec.num_sms

    def _cache_head_profile(self, state: _BeClientState,
                            op: KernelOp) -> KernelProfile:
        """Look up the head kernel's profile and cache it on ``state``."""
        profile = self.profiles.lookup(op.spec.name)
        state.head_missed = profile is None
        if profile is None:
            # Unprofiled kernel: be conservative — treat as unknown
            # profile with its static launch footprint and a pessimistic
            # duration.
            profile = KernelProfile(
                kernel_id=op.spec.name,
                duration=op.duration,
                compute_util=op.compute_util,
                memory_util=op.memory_util,
                sm_needed=op.sm_needed,
                profile=ResourceProfile.UNKNOWN,
            )
        state.head_op = op
        state.head_version = self.profiles.version
        state.head_profile = profile
        return profile

    def _total_outstanding(self) -> float:
        return sum(state.outstanding for state in self._be.values())

    def _current_hp_profile(self) -> Optional[ResourceProfile]:
        """Profile of the HP kernel executing (or next to execute) now.

        The framework submits HP kernels in bursts well ahead of the
        GPU, so the *last submitted* kernel is a poor proxy for what is
        on the SMs; the in-flight stream op is the right reference for
        the opposite-profile check.
        """
        if self._hp_stream is None:
            return None
        in_flight = self._hp_stream.in_flight
        if in_flight is not None and isinstance(in_flight.op, KernelOp):
            return in_flight.op.profile
        for stream_op in self._hp_stream.queue:
            if isinstance(stream_op.op, KernelOp):
                return stream_op.op.profile
        if self._current_hp is not None:
            return self._current_hp.profile
        return None

    # Listing 1's run_scheduler is Backend._scheduler_pass, event-driven
    # instead of busy-polling: one pass per wake (new work, or a
    # completion that changes the world).
    def _forward_hp(self) -> bool:
        """High-priority ops: forward immediately, in order."""
        forwarded = False
        while self._hp_queue is not None and len(self._hp_queue):
            op, done = self._hp_queue.pop()
            inner = self._hp_stream.submit(op)
            self._chain(inner, done)
            self._current_hp = op
            self._watch_stream(inner)
            forwarded = True
        return forwarded

    def _hp_transfer_done(self) -> None:
        self._hp_transfers_active -= 1
        self._wake_scheduler()

    def _run_watchdog(self):
        """Flag best-effort kernels whose completion event is overdue by
        ``watchdog_multiple`` x their profiled duration.  Real GPU stacks
        use this to detect hung/runaway kernels; here the flags feed the
        availability telemetry."""
        multiple = self.config.watchdog_multiple
        while True:
            # Sleep while no best-effort stream has work: a free-running
            # poll loop would keep the event calendar non-empty forever
            # and an un-bounded sim.run() could never drain.
            if not any(state.stream.busy for state in self._be.values()):
                self._watchdog_wake = Signal(self.sim)
                yield self._watchdog_wake
                continue
            yield Timeout(self.config.watchdog_interval)
            now = self.sim.now
            for client_id, state in self._be.items():
                in_flight = state.stream.in_flight
                if in_flight is None or in_flight.started_at is None:
                    continue
                op = in_flight.op
                if not isinstance(op, KernelOp) or op.seq in self._watchdog_seen:
                    continue
                # Profile lookup without the _be_profile miss counter:
                # the watchdog polls, and polling must not skew stats.
                profile = self.profiles.lookup(op.spec.name)
                expected = profile.duration if profile is not None else op.duration
                deadline = in_flight.started_at + multiple * expected
                if now > deadline:
                    self._watchdog_seen.add(op.seq)
                    if self.tracer.enabled:
                        self.tracer.instant("scheduler", "watchdog_flag",
                                            client=client_id,
                                            kernel=op.spec.name)
                    self.watchdog_flags.append({
                        "time": now,
                        "client": client_id,
                        "kernel": op.spec.name,
                        "expected_duration": expected,
                        "overdue_by": now - deadline,
                    })

    def _try_launch_be(self, client_id: str) -> bool:
        # Only ever called with ids from _be_order: no _be_state frame.
        state = self._be[client_id]
        op = state.queue.peek()
        if op is None:
            return False
        # Runs on every wake for every client with queued work, so block
        # tracing is guarded here rather than inside _trace_be_block.
        tracing = self.tracer.enabled
        if self.be_admission_suspended:
            self.be_kernels_deferred += 1
            if tracing:
                self._trace_be_block(client_id, "suspended")
            return False
        if isinstance(op, MemoryOp):
            # PCIe management: hold BE transfers while an HP transfer
            # owns the bus; submit directly otherwise.
            if self._hp_transfers_active > 0:
                self.be_kernels_deferred += 1
                if tracing:
                    self._trace_be_block(client_id, "pcie_hold")
                return False
            op, done = state.queue.pop()
            inner = state.stream.submit(op)
            self._chain(inner, done)
            self._watch_stream(inner)
            return True
        if op is state.head_op and state.head_version == self.profiles.version:
            be_profile = state.head_profile
        else:
            be_profile = self._cache_head_profile(state, op)
        if state.head_missed:
            self.profile_misses += 1
        # Duration throttle (Listing 1 lines 12-16), accounted per
        # best-effort client as in the listing: reset the budget when
        # this client's recorded CUDA event shows its pipeline drained.
        if state.outstanding > 0 and state.event.query():
            state.outstanding = 0.0
        # Listing 1's schedule_be and duration throttle.  The HP task is
        # running while its software queue or stream holds work; nothing
        # between the checks changes that, so evaluate it once.
        config = self.config
        hp_queue = self._hp_queue
        hp_running = hp_queue is not None and (
            len(hp_queue) > 0 or self._hp_stream.busy)
        if (hp_running and config.protect_prefill
                and self._hp_phase == "prefill"):
            # Phase hint: compute-bound prefill in flight — hold all
            # best-effort kernels so TTFT stays at its solo latency.
            self.be_kernels_deferred += 1
            self.prefill_deferrals += 1
            if tracing:
                self._trace_be_block(client_id, "prefill_protect")
            return False
        if config.use_dur_throttle:
            # Extension over the listing (DESIGN.md): while the HP task
            # runs, a kernel whose own expected duration exceeds the
            # whole budget is deferred too — submitted kernels are not
            # preemptible, so it could hold the GPU past the HP target.
            budget = config.dur_threshold_frac * self.hp_request_latency
            if state.outstanding > budget or (
                    hp_running and be_profile.duration > budget):
                self.be_kernels_deferred += 1
                if tracing:
                    self._trace_be_block(client_id, "dur_threshold")
                return False
        if hp_running:
            # SM rule (strict: fewer SMs than SM_THRESHOLD) and profile
            # rule (opposite compute/memory class, unknown allowed).
            admit = True
            if config.use_sm_limit:
                admit = be_profile.sm_needed < self.sm_threshold
            if admit and config.use_profiles:
                hp_profile = self._current_hp_profile()
                current = hp_profile if hp_profile is not None \
                    else ResourceProfile.UNKNOWN
                admit = have_different_profiles(current, be_profile.profile)
            if not admit:
                self.be_kernels_deferred += 1
                if tracing:
                    self._trace_be_block(client_id, "policy")
                return False
        op, done = state.queue.pop()
        if tracing:
            self.tracer.instant("scheduler", "be_admit", client=client_id,
                                kernel=op.spec.name)
        inner = state.stream.submit(op)
        self._chain(inner, done)
        state.outstanding += be_profile.duration
        state.event.record(state.stream)
        self._watch_stream(inner)
        self.be_kernels_launched += 1
        self._wake_watchdog()
        return True

    def _trace_be_block(self, client_id: str, reason: str) -> None:
        self.tracer.instant("scheduler", "be_block", client=client_id,
                            reason=reason)

    def _chain(self, inner: Signal, outer: Signal) -> None:
        """Forward the stream's completion to the client's signal."""
        inner.add_callback(lambda sig: outer.trigger(sig.value, error=sig.error))

    def _watch_stream(self, done: Signal) -> None:
        """Re-evaluate the policy when a submitted op completes."""
        done.add_callback(lambda _sig: self._wake_scheduler())
