"""The simulated GPU device.

Ties together the pieces of §2 of the paper: per-stream work queues, a
non-preemptive hardware dispatcher that honours stream priorities, the
calibrated contention model, the device-memory allocator, and the PCIe
copy engine.  Execution is rate-based: whenever the resident kernel set
changes, every kernel's progress rate is recomputed from the contention
model and the next completion is rescheduled.

Hardware-faithful behaviours the scheduler layers above rely on:

* Kernels on one stream execute strictly in order.
* Once dispatched, a kernel runs to completion (no preemption) — the
  reason Orion needs its DUR_THRESHOLD throttle.
* When the head of a higher-priority stream cannot be admitted (SM
  backlog at the oversubscription cap), lower-priority kernels do not
  jump ahead of it.
* ``cudaMalloc``/``cudaFree`` synchronize the whole device.
* A *blocking* host<->device copy stalls kernel dispatch for its
  duration (the utilization dips visible in Figure 8 of the paper).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.kernels.kernel import KernelOp, MemoryOp, MemoryOpKind
from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.process import Signal
from repro.telemetry.tracer import NULL_TRACER

from .contention import ContentionModel, ContentionParams
from .errors import CudaError, CudaErrorCode
from .memory import DeviceMemory, GpuOutOfMemoryError
from .pcie import PcieEngine
from .specs import DeviceSpec
from .streams import Stream, StreamOp

__all__ = ["GpuDevice", "RunningKernel", "ArmedKernelFault"]

_EPS = 1e-12


def _candidate_key(stream):
    """Dispatch order: priority first, then FIFO by head enqueue, then id."""
    return (-stream.priority, stream.queue[0].enqueued_at, stream.stream_id)

# Time a faulting kernel occupies its stream before the launch failure
# is reported (real faulting kernels abort almost immediately).
FAULT_REPORT_LATENCY = 1e-6


class ArmedKernelFault:
    """A pending injected fault: the next matching kernel launch fails."""

    __slots__ = ("kernel_name", "client_id", "count")

    def __init__(self, kernel_name: str, client_id: Optional[str] = None,
                 count: int = 1):
        if count < 1:
            raise ValueError("fault count must be >= 1")
        self.kernel_name = kernel_name
        self.client_id = client_id
        self.count = count

    def matches(self, op: KernelOp) -> bool:
        if op.spec.name != self.kernel_name:
            return False
        return self.client_id is None or op.client_id == self.client_id


class RunningKernel:
    """Book-keeping for one resident kernel.

    ``key`` is the kernel's contention-model input, its
    :func:`~repro.gpu.contention.demand_key` built once at admission (a
    stream's priority is fixed at creation).
    """

    __slots__ = ("stream_op", "op", "remaining", "rate", "admitted_at", "key")

    def __init__(self, stream_op: StreamOp, op: KernelOp, admitted_at: float):
        self.stream_op = stream_op
        self.op = op
        self.remaining = op.duration
        self.rate = 1.0
        self.admitted_at = admitted_at
        self.key = (op.compute_util, op.memory_util, op.sm_needed,
                    stream_op.stream.priority)


class GpuDevice:
    """One simulated GPU."""

    def __init__(
        self,
        sim: Simulator,
        spec: DeviceSpec,
        contention_params: ContentionParams = ContentionParams(),
        record_utilization: bool = False,
        tracer=NULL_TRACER,
    ):
        self.sim = sim
        self.spec = spec
        self.contention = ContentionModel(spec.num_sms, contention_params)
        self.memory = DeviceMemory(spec.memory_capacity)
        self.pcie = PcieEngine(sim, spec.pcie_bandwidth, spec.pcie_latency)
        self.streams: List[Stream] = []
        self.running: Dict[int, RunningKernel] = {}
        # Incrementally-maintained sum of running kernels' sm_needed
        # (exact int arithmetic; avoids re-summing per admission check).
        self._sm_backlog = 0
        self._completion_event: Optional[ScheduledEvent] = None
        # Seq reserved by a completion that left survivors whose rates
        # the next dispatch pass recomputes (see _on_completion).
        self._reserved_seq: Optional[int] = None
        self._dispatch_scheduled = False
        self._last_rate_update = sim.now
        # Blocking memcpys in flight stall kernel dispatch.
        self._dispatch_blockers = 0
        # FIFO of pending device-synchronizing ops (cudaMalloc/cudaFree).
        self._pending_syncs: Deque[StreamOp] = deque()
        self._sync_in_progress = False
        self._active_transfers = 0
        # Live allocations per client (for cudaFree matching).
        self._allocations: Dict[str, List] = {}
        # Armed fault-injection state (see repro.faults).
        self._armed_kernel_faults: List[ArmedKernelFault] = []
        self._armed_transfer_faults = 0
        # Telemetry: the run's tracer, passed in by the testbed; the
        # default null tracer keeps the hot paths on the disabled fast
        # path.
        self.tracer = tracer
        # Degradation factor (fleet fault injection): kernel progress
        # rates are divided by this, so a slowdown of 3.0 makes every
        # resident kernel take 3x as long from the moment it is set.
        self.slowdown = 1.0
        self.record_utilization = record_utilization
        self.utilization_segments: List[Tuple[float, float, float, float, float]] = []
        self.kernels_completed = 0
        self.kernels_faulted = 0
        self.transfers_faulted = 0
        self.oom_failures = 0
        self.kernel_busy_time = 0.0

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def create_stream(self, priority: int = 0, name: Optional[str] = None) -> Stream:
        stream = Stream(self, priority=priority, name=name)
        self.streams.append(stream)
        return stream

    def destroy_stream(self, stream: Stream, error: Optional[CudaError] = None) -> int:
        """Tear down a stream: queued (undispatched) ops complete with an
        error; an in-flight op runs to completion (kernels are not
        preemptible).  Returns the number of ops cancelled."""
        if error is None:
            error = CudaError(CudaErrorCode.CLIENT_KILLED,
                              f"stream {stream.name} destroyed",
                              time=self.sim.now)
        cancelled = list(stream.queue)
        stream.queue.clear()
        # Device-synchronizing ops the dispatcher already parked.
        doomed_syncs = [s for s in self._pending_syncs if s.stream is stream]
        for head in doomed_syncs:
            self._pending_syncs.remove(head)
            if stream.in_flight is head:
                stream.in_flight = None
            cancelled.append(head)
        if stream in self.streams:
            self.streams.remove(stream)
        for head in cancelled:
            head.finished_at = self.sim.now
            head.done.trigger(None, error=error)
        self._schedule_dispatch()
        return len(cancelled)

    def release_client(self, client_id: str) -> int:
        """Free every allocation owned by ``client_id`` (dead-client
        cleanup); returns bytes freed."""
        freed = self.memory.release_client(client_id)
        self._allocations.pop(client_id, None)
        return freed

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def arm_kernel_fault(self, kernel_name: str, client_id: Optional[str] = None,
                         count: int = 1) -> None:
        """Make the next ``count`` launches of ``kernel_name`` (optionally
        restricted to one client) fail with a sticky launch failure."""
        self._armed_kernel_faults.append(
            ArmedKernelFault(kernel_name, client_id, count))

    def arm_transfer_fault(self, count: int = 1) -> None:
        """Make the next ``count`` PCIe transfers fail."""
        if count < 1:
            raise ValueError("fault count must be >= 1")
        self._armed_transfer_faults += count

    def _consume_kernel_fault(self, op: KernelOp) -> Optional[CudaError]:
        for fault in self._armed_kernel_faults:
            if fault.matches(op):
                fault.count -= 1
                if fault.count == 0:
                    self._armed_kernel_faults.remove(fault)
                return CudaError(CudaErrorCode.LAUNCH_FAILURE,
                                 "injected kernel fault",
                                 client_id=op.client_id,
                                 kernel=op.spec.name,
                                 time=self.sim.now)
        return None

    def _consume_transfer_fault(self, op: MemoryOp) -> Optional[CudaError]:
        if self._armed_transfer_faults <= 0:
            return None
        self._armed_transfer_faults -= 1
        return CudaError(CudaErrorCode.TRANSFER_FAILURE,
                         "injected PCIe transfer fault",
                         client_id=op.client_id,
                         time=self.sim.now)

    def notify_work(self, _stream: Stream) -> None:
        """Called by streams on submit; coalesces dispatch passes."""
        self._schedule_dispatch()

    def _schedule_dispatch(self) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        self.sim.call_soon(self._dispatch_pass)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def sm_backlog(self) -> int:
        """SMs demanded by the resident kernel set."""
        return self._sm_backlog

    @property
    def idle(self) -> bool:
        """True when no kernel, transfer, or sync is in progress."""
        return (
            not self.running
            and self._active_transfers == 0
            and not self._sync_in_progress
        )

    def _dispatch_pass(self) -> None:
        self._dispatch_scheduled = False
        # Close the telemetry segment under the old resident set before
        # any admission changes it.
        self._checkpoint()
        # A device-wide sync owns the device exclusively.
        if self._sync_in_progress or self._pending_syncs:
            if self._reserved_seq is not None:
                self._recompute_rates()
            self._try_start_sync()
            return
        # Candidate streams with a ready head, priority first, then FIFO.
        candidates = [s for s in self.streams
                      if s.in_flight is None and s.queue]
        if len(candidates) > 1:
            candidates.sort(key=_candidate_key)
        spec = self.spec
        sm_cap = spec.sm_oversubscription * spec.num_sms
        running = self.running
        now = self.sim.now
        kernels_gated = False
        changed = False
        for stream in candidates:
            # Handling one candidate never changes another's queue or
            # in-flight op, so every candidate's head is still ready.
            head = stream.queue[0]
            op = head.op
            if isinstance(op, MemoryOp):
                if op.kind.synchronizes_device:
                    stream.queue.popleft()
                    stream.in_flight = head
                    self._pending_syncs.append(head)
                    self._schedule_dispatch()
                    continue
                self._start_memory_op(stream, head)
                continue
            # Kernel admission.
            if kernels_gated or self._dispatch_blockers > 0:
                continue
            fault = self._consume_kernel_fault(op) \
                if self._armed_kernel_faults else None
            if fault is not None:
                # The kernel is dispatched but crashes almost instantly:
                # it never occupies SMs, and its completion signal
                # carries the (sticky) launch failure.
                stream.queue.popleft()
                stream.in_flight = head
                head.started_at = now
                self.kernels_faulted += 1
                if self.tracer.enabled:
                    self.tracer.op_dispatch(op.client_id, op.seq, stream.name)
                    self.tracer.instant("device", "kernel_fault",
                                        client=op.client_id,
                                        kernel=op.spec.name)
                self.sim.call_later(
                    FAULT_REPORT_LATENCY,
                    lambda h=head, e=fault: self._finish_faulted_op(h, e))
                continue
            # Admission: an idle device takes any kernel; otherwise the
            # resident count and the SM backlog are capped.
            if running and (
                    len(running) >= spec.max_concurrent_kernels
                    or self._sm_backlog + op.sm_needed > sm_cap):
                # Respect priority: a stalled higher-priority kernel
                # gates all lower-priority kernel dispatch.
                kernels_gated = True
                continue
            stream.queue.popleft()
            stream.in_flight = head
            head.started_at = now
            running[op.seq] = RunningKernel(head, op, now)
            self._sm_backlog += op.sm_needed
            if self.tracer.enabled:
                self.tracer.op_dispatch(op.client_id, op.seq, stream.name)
            changed = True
        if changed:
            # The new resident set orders as a fresh calendar entry.
            self._reserved_seq = None
        if changed or self._reserved_seq is not None:
            self._recompute_rates()

    # ------------------------------------------------------------------
    # Kernel execution (rate-based)
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Advance running kernels to now and close the telemetry segment
        for the elapsed interval using the rates that were in force."""
        now = self.sim.now
        elapsed = now - self._last_rate_update
        if elapsed > 0:
            running = self.running.values()
            if self.record_utilization:
                compute, mem, sm = self.contention.device_utilization(
                    [r.op for r in running], [r.rate for r in running])
                self.utilization_segments.append(
                    (self._last_rate_update, now, compute, mem, sm))
            if running:
                for r in running:
                    left = r.remaining - elapsed * r.rate
                    r.remaining = left if left > 0.0 else 0.0
                self.kernel_busy_time += elapsed
        self._last_rate_update = now

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) the device's effective speed.

        Running kernels advance at their old rates up to now, then
        continue at the scaled rates — a mid-run thermal throttle or
        failing part, as injected by ``repro.faults`` GpuDegrade.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be > 0")
        if factor == self.slowdown:
            return
        self._checkpoint()
        self.slowdown = factor
        self._reserved_seq = None
        self._recompute_rates()

    def _recompute_rates(self) -> None:
        """Set every resident kernel's rate and reschedule the next
        completion for the new rates, under the reserved seq if a
        completion left one."""
        running = self.running.values()
        rates = self.contention.rates(running)
        seq, self._reserved_seq = self._reserved_seq, None
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not rates:
            return
        inv = 1.0 / self.slowdown  # exactly 1.0 unless degraded
        soonest = math.inf
        for r, rate in zip(running, rates):
            rate *= inv
            r.rate = rate
            t = r.remaining / (rate if rate > _EPS else _EPS)
            if t < soonest:
                soonest = t
        sim = self.sim
        self._completion_event = sim.call_at(
            sim.now + max(soonest, 1e-9), self._on_completion, seq)

    def _on_completion(self) -> None:
        """Retire the finished kernels and queue the dispatch pass.

        The survivors' rates are not recomputed here: the dispatch pass
        at this same instant recomputes them once, after admitting any
        successor.  The completion reserves the seq its eager
        ``call_at`` would have taken, so when the pass admits nothing
        the survivors' next completion orders exactly as if scheduled
        now.
        """
        self._completion_event = None
        self._checkpoint()
        running = self.running
        now = self.sim.now
        finished = [r for r in running.values() if r.remaining <= 1e-9]
        # Bookkeeping and the next dispatch pass are queued *before*
        # completion signals fire: the hardware starts the next pending
        # kernel immediately, while host software only observes the
        # completion afterwards.  Schedulers polling device occupancy
        # must not see a phantom idle gap between back-to-back kernels.
        to_signal = []
        for r in finished:
            op = r.op
            del running[op.seq]
            self._sm_backlog -= op.sm_needed
            stream_op = r.stream_op
            stream = stream_op.stream
            stream_op.finished_at = now
            stream.in_flight = None
            stream.ops_completed += 1
            if self.tracer.enabled:
                self.tracer.op_complete(op.client_id, op.seq, stream.name,
                                        op.duration, True)
            to_signal.append(stream_op.done)
        self.kernels_completed += len(finished)
        if running:
            self._reserved_seq = self.sim.reserve_seq()
        self._schedule_dispatch()
        for done in to_signal:
            done.trigger(now)

    def _finish_stream_op(self, stream_op: StreamOp,
                          error: Optional[CudaError] = None) -> None:
        stream_op.finished_at = self.sim.now
        stream = stream_op.stream
        stream.in_flight = None
        stream.ops_completed += 1
        if self.tracer.enabled:
            self.tracer.op_complete(stream_op.op.client_id, stream_op.op.seq,
                                    stream.name, None, error is None)
        stream_op.done.trigger(self.sim.now, error=error)

    def _finish_faulted_op(self, stream_op: StreamOp, error: CudaError) -> None:
        self._finish_stream_op(stream_op, error=error)
        self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------
    def _start_memory_op(self, stream: Stream, head: StreamOp) -> None:
        op = head.op
        assert isinstance(op, MemoryOp)
        stream.queue.popleft()
        stream.in_flight = head
        head.started_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.op_dispatch(op.client_id, op.seq, stream.name)
        if op.kind.is_transfer:
            direction = "d2h" if op.kind is MemoryOpKind.MEMCPY_D2H else "h2d"
            self._active_transfers += 1
            if op.blocking:
                self._dispatch_blockers += 1
            fault = self._consume_transfer_fault(op) \
                if self._armed_transfer_faults else None
            if fault is not None:
                # The bus rejects the copy after its setup latency; the
                # op completes with a transfer failure instead of data.
                self.transfers_faulted += 1
                self.sim.call_later(
                    self.pcie.latency,
                    lambda h=head, o=op, e=fault: self._finish_transfer(h, o, e))
                return
            done = self.pcie.start_transfer(op.nbytes, direction)
            done.add_callback(lambda _sig, s=stream, h=head, o=op: self._finish_transfer(h, o))
        elif op.kind is MemoryOpKind.MEMSET:
            # Device-side fill: bounded by memory bandwidth; modelled as
            # a short non-contending operation.
            duration = op.nbytes / self.spec.memory_bandwidth + self.spec.kernel_min_duration
            self.sim.call_later(duration, lambda h=head: self._finish_simple_op(h))
        else:  # pragma: no cover - syncs are routed earlier
            raise AssertionError(f"unexpected memory op {op.kind} in _start_memory_op")

    def _finish_transfer(self, head: StreamOp, op: MemoryOp,
                         error: Optional[CudaError] = None) -> None:
        self._active_transfers -= 1
        if op.blocking:
            self._dispatch_blockers -= 1
        self._finish_stream_op(head, error=error)
        self._schedule_dispatch()

    def _finish_simple_op(self, head: StreamOp) -> None:
        self._finish_stream_op(head)
        self._schedule_dispatch()

    def _try_start_sync(self) -> None:
        """Run the next cudaMalloc/cudaFree once the device drains."""
        if self._sync_in_progress or not self._pending_syncs:
            return
        if self.running or self._active_transfers > 0:
            return  # completion paths re-trigger dispatch, which re-tries
        head = self._pending_syncs.popleft()
        self._sync_in_progress = True
        head.started_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.op_dispatch(head.op.client_id, head.op.seq,
                                    head.stream.name)
        error: Optional[CudaError] = None
        try:
            self._apply_memory_op(head.op)
        except GpuOutOfMemoryError as exc:
            # CUDA-style: cudaMalloc returns cudaErrorMemoryAllocation
            # (non-sticky) to the calling client rather than tearing
            # down the whole simulation.
            self.oom_failures += 1
            error = CudaError(CudaErrorCode.OUT_OF_MEMORY, str(exc),
                              client_id=head.op.client_id, time=self.sim.now)
            if self.tracer.enabled:
                self.tracer.instant("device", "oom",
                                    client=head.op.client_id,
                                    nbytes=head.op.nbytes)

        def finish(h=head, e=error):
            self._sync_in_progress = False
            self._finish_stream_op(h, error=e)
            self._schedule_dispatch()

        self.sim.call_later(self.spec.device_sync_latency, finish)

    def _apply_memory_op(self, op: MemoryOp) -> None:
        """Update the allocator for a malloc/free (raises on OOM)."""
        client = op.client_id or "anonymous"
        if op.kind is MemoryOpKind.MALLOC:
            alloc = self.memory.malloc(op.nbytes, client)
            self._allocations.setdefault(client, []).append(alloc)
        elif op.kind is MemoryOpKind.FREE:
            owned = self._allocations.get(client, [])
            match = next((a for a in owned if a.nbytes == op.nbytes),
                         owned[-1] if owned else None)
            if match is not None:
                owned.remove(match)
                self.memory.free_allocation(match)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def synchronize_signal(self) -> Signal:
        """Signal fired when every stream drains (cudaDeviceSynchronize)."""
        done = Signal(self.sim)

        def poll():
            if self.idle and all(not s.busy for s in self.streams):
                done.trigger(self.sim.now)
            else:
                self.sim.call_later(5e-6, poll)

        poll()
        return done

    def resident_profiles(self) -> List[KernelOp]:
        """Kernels currently resident on the device."""
        return [r.op for r in self.running.values()]
