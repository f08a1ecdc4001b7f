"""CUDA stream model.

A stream is an ordered queue of operations that the device executes
in FIFO order; at most one op of a stream is in flight at a time.
Streams carry a priority (larger = more important, default 0) which the
hardware dispatcher uses when choosing among streams with ready work —
but, as on real NVIDIA GPUs, priority never preempts a running kernel.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Union

from repro.kernels.kernel import KernelOp, MemoryOp
from repro.sim.process import Signal

if TYPE_CHECKING:  # pragma: no cover
    from .device import GpuDevice

__all__ = ["Stream", "StreamOp", "DEFAULT_PRIORITY", "HIGH_PRIORITY"]

DEFAULT_PRIORITY = 0
HIGH_PRIORITY = 1

_stream_ids = itertools.count()


class StreamOp:
    """An op enqueued on a stream, with its completion signal."""

    __slots__ = ("op", "done", "stream", "enqueued_at", "started_at", "finished_at")

    def __init__(self, op: Union[KernelOp, MemoryOp], done: Signal, stream: "Stream",
                 enqueued_at: float):
        self.op = op
        self.done = done
        self.stream = stream
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None


class Stream:
    """One CUDA stream bound to a device."""

    def __init__(self, device: "GpuDevice", priority: int = DEFAULT_PRIORITY,
                 name: Optional[str] = None):
        self.device = device
        self.priority = priority
        self.stream_id = next(_stream_ids)
        self.name = name or f"stream-{self.stream_id}"
        self.queue: Deque[StreamOp] = deque()
        self.in_flight: Optional[StreamOp] = None
        # Signal of the most recently enqueued op; cudaEventRecord
        # semantics hang off this ("event completes when all work
        # submitted to the stream before the record completes").
        self.last_op_done: Optional[Signal] = None
        self.ops_submitted = 0
        self.ops_completed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stream {self.name} prio={self.priority} queued={len(self.queue)}>"

    @property
    def busy(self) -> bool:
        """True while the stream has queued or in-flight work."""
        return self.in_flight is not None or bool(self.queue)

    def submit(self, op: Union[KernelOp, MemoryOp]) -> Signal:
        """Enqueue ``op``; returns a signal fired on its completion."""
        done = Signal(self.device.sim)
        stream_op = StreamOp(op, done, self, self.device.sim.now)
        self.queue.append(stream_op)
        self.last_op_done = done
        self.ops_submitted += 1
        self.device.notify_work(self)
        return done

    def synchronize_signal(self) -> Signal:
        """Signal that fires when all currently-submitted work completes."""
        if self.last_op_done is None or self.last_op_done.triggered:
            done = Signal(self.device.sim)
            done.trigger()
            return done
        return self.last_op_done
