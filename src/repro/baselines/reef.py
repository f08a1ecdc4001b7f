"""REEF-N baseline (Han et al., OSDI '22; §6.1 of the Orion paper).

REEF targets AMD GPUs where kernels can be preempted; for NVIDIA GPUs
its authors proposed REEF-N, a restricted variant in which high-
priority kernels *bypass* best-effort kernels in software queues before
submission (no preemption after submission).  Following the Orion
paper's reimplementation:

* high-priority ops are forwarded immediately to a high-priority stream;
* best-effort kernels launch only while the high-priority software
  queue is empty, keeping at most ``queue_size`` (12, per discussion
  with the REEF authors) kernels outstanding on the GPU;
* kernel selection considers *size* (a best-effort kernel must fit in
  the SMs the running kernels leave free — REEF's dynamic kernel
  padding) and expected latency, but NOT compute/memory profiles —
  the interference-blindness Orion fixes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaError, CudaErrorCode
from repro.kernels.kernel import KernelOp, MemoryOp
from repro.runtime.backend import (
    Backend,
    BackendOptions,
    ClientInfo,
    Op,
    SoftwareQueue,
    UnknownClientError,
)
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["ReefBackend", "REEF_QUEUE_SIZE"]

REEF_QUEUE_SIZE = 12


class _BeState:
    __slots__ = ("queue", "stream", "outstanding")

    def __init__(self, queue: SoftwareQueue, stream):
        self.queue = queue
        self.stream = stream
        self.outstanding = 0


class ReefBackend(Backend):
    """REEF-N scheduling policy."""

    name = "reef"

    def __init__(self, sim: Simulator, device: GpuDevice,
                 queue_size: int = REEF_QUEUE_SIZE,
                 be_queue_depth: Optional[int] = None,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, options)
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if be_queue_depth is not None and be_queue_depth < 1:
            raise ValueError("be_queue_depth must be >= 1")
        self.device = device
        self.queue_size = queue_size
        # Overload protection: bound on each BE *software* queue (in
        # front of queue_size, which caps submitted-to-GPU kernels).
        # Overflow rejects with the retryable QUEUE_FULL status.
        self.be_queue_depth = be_queue_depth
        self._hp_stream = None
        self._hp_queue: Optional[SoftwareQueue] = None
        self._hp_client_id: Optional[str] = None
        self._be: Dict[str, _BeState] = {}
        self._started = False
        self.be_kernels_launched = 0

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        info = self._register(client_id, high_priority, kind)
        if high_priority:
            if self._hp_stream is not None:
                raise ValueError("REEF-N supports one high-priority client")
            self._hp_stream = self.device.create_stream(priority=1, name="reef-hp")
            self._hp_queue = self._new_queue(client_id)
            self._hp_client_id = client_id
        else:
            stream = self.device.create_stream(priority=0, name=f"reef-be-{client_id}")
            queue = self._new_queue(client_id, max_depth=self.be_queue_depth)
            self._be[client_id] = _BeState(queue, stream)
            self._be_order.append(client_id)
        return info

    def devices(self) -> List[GpuDevice]:
        return [self.device]

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._start_scheduler()

    def submit(self, client_id: str, op: Op) -> Signal:
        # Hot path: direct dict lookup (client_info adds a call frame).
        info = self.clients.get(client_id)
        if info is None:
            raise UnknownClientError(client_id, self.name)
        if info.high_priority:
            done = self._hp_queue.push(op)
        elif isinstance(op, MemoryOp):
            done = self._be[client_id].stream.submit(op)
            self._watch(done)
            return done
        else:
            queue = self._be[client_id].queue
            if queue.full:
                return queue.reject()
            done = queue.push(op)
        self._wake_scheduler()
        return done

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        client_id = info.client_id
        error = CudaError(CudaErrorCode.CLIENT_KILLED,
                          "client deregistered with ops pending",
                          client_id=client_id, time=self.sim.now)
        # Repair scheduler bookkeeping before any signal fires: a
        # triggered signal can run a scheduler pass synchronously, and
        # it must never observe the dead client in its state.
        if client_id == self._hp_client_id:
            hp_queue, hp_stream = self._hp_queue, self._hp_stream
            self._hp_stream = None
            self._hp_queue = None
            self._hp_client_id = None
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
        self._wake_scheduler()

    @property
    def hp_pending(self) -> bool:
        return self._hp_queue is not None and bool(len(self._hp_queue))

    def _free_sms(self) -> int:
        """SMs available for padding.

        Resident kernels hold their SMs; SMs are also reserved for the
        high-priority stream's next pending kernel so a best-effort
        kernel never races the real-time work into a just-freed slot.
        """
        reserved = self.device.sm_backlog
        if self._hp_stream is not None:
            for stream_op in self._hp_stream.queue:
                if isinstance(stream_op.op, KernelOp):
                    reserved += stream_op.op.sm_needed
                    break
        return max(0, self.device.spec.num_sms - reserved)

    def _forward_hp(self) -> bool:
        """HP bypass: drain the HP queue first, always."""
        forwarded = False
        while self.hp_pending:
            op, done = self._hp_queue.pop()
            inner = self._hp_stream.submit(op)
            inner.add_callback(
                lambda sig, d=done: d.trigger(sig.value, error=sig.error))
            self._watch(inner)
            forwarded = True
        return forwarded

    def _try_launch_be(self, client_id: str) -> bool:
        state = self._be[client_id]
        op = state.queue.peek()
        if op is None:
            return False
        if state.outstanding >= self.queue_size:
            return False
        # A BE kernel launches when the HP job has no work anywhere
        # (queue and stream drained), or — REEF's dynamic kernel
        # padding — when it is small enough to fit in the SMs the
        # resident kernels leave free.  No profile awareness.
        hp_idle = not self.hp_pending and (
            self._hp_stream is None or not self._hp_stream.busy
        )
        if not hp_idle:
            if not isinstance(op, KernelOp):
                return False
            if op.sm_needed > self._free_sms():
                return False
        op, done = state.queue.pop()
        inner = state.stream.submit(op)
        state.outstanding += 1

        def on_done(sig, d=done, s=state):
            s.outstanding -= 1
            d.trigger(sig.value, error=sig.error)
            self._wake_scheduler()

        inner.add_callback(on_done)
        self.be_kernels_launched += 1
        return True

    def _watch(self, done: Signal) -> None:
        done.add_callback(lambda _sig: self._wake_scheduler())
