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

from typing import Optional

from repro.gpu.device import GpuDevice
from repro.kernels.kernel import KernelOp, MemoryOp
from repro.runtime.backend import (
    Backend,
    BackendOptions,
    ClientInfo,
    Op,
    UnknownClientError,
)
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["ReefBackend", "REEF_QUEUE_SIZE"]

REEF_QUEUE_SIZE = 12


class ReefBackend(Backend):
    """REEF-N scheduling policy."""

    name = "reef"

    def __init__(self, sim: Simulator, device: GpuDevice,
                 queue_size: int = REEF_QUEUE_SIZE,
                 be_queue_depth: Optional[int] = None,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, device, options)
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if be_queue_depth is not None and be_queue_depth < 1:
            raise ValueError("be_queue_depth must be >= 1")
        self.queue_size = queue_size
        # Overload protection: bound on each BE *software* queue (in
        # front of queue_size, which caps submitted-to-GPU kernels).
        # Overflow rejects with the retryable QUEUE_FULL status.
        self.be_queue_depth = be_queue_depth
        self.be_kernels_launched = 0

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        return self._register_queued(client_id, high_priority, kind,
                                     hp_priority=1,
                                     be_queue_depth=self.be_queue_depth)

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
