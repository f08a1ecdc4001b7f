"""Temporal sharing baseline (§4, §6.1).

Time-slices the GPU at request/minibatch granularity: one job's request
runs at a time, with the high-priority job's requests served first
among waiters.  An arriving high-priority request must still wait for
any ongoing best-effort iteration to finish — the head-of-line blocking
the paper identifies as temporal sharing's core weakness.
"""

from __future__ import annotations

from typing import Optional

from repro.gpu.device import GpuDevice
from repro.runtime.backend import BackendOptions, ClientInfo, Op, UnknownClientError
from repro.runtime.direct import DirectStreamBackend
from repro.sim.engine import Simulator
from repro.sim.process import Signal
from repro.sim.resources import FifoLock

__all__ = ["TemporalBackend"]


class TemporalBackend(DirectStreamBackend):
    """Request-granularity time slicing with priority.

    Its "queue" is the wait for the GPU lock: ``_waiting`` holds each
    client's not-yet-granted slice request, for wait telemetry and for
    cancellation when a waiting client dies.
    """

    name = "temporal"
    wait_metric = "slice"

    def __init__(self, sim: Simulator, device: GpuDevice,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, device, options)
        self._gpu_lock = FifoLock(sim)
        self._holding: Optional[str] = None

    def submit(self, client_id: str, op: Op) -> Signal:
        stream = self._streams.get(client_id)
        if stream is None:
            raise UnknownClientError(client_id, self.name)
        # Memory operations (model-state allocation at startup) are
        # allowed outside a slice; kernels require holding it.
        if op.is_kernel and self._holding != client_id:
            raise RuntimeError(
                f"temporal sharing: client {client_id!r} submitted a kernel "
                "outside its time slice (begin_request was not awaited)"
            )
        return stream.submit(op)

    def begin_request(self, client_id: str,
                      deadline: Optional[float] = None) -> Optional[Signal]:
        info = self.client_info(client_id)
        grant = self._gpu_lock.acquire(priority=info.priority, holder=client_id)
        enqueued, waiting = self._wait_instruments(client_id)
        enqueued.value += 1

        def on_grant(_sig):
            self._holding = client_id
            self._waiting.pop(client_id, None)
            waiting.value = 0

        if not grant.triggered:
            self._waiting[client_id] = grant
            waiting.set(1)
            if self.tracer.enabled:
                self.tracer.instant("scheduler", "slice_wait",
                                    client=client_id)
        grant.add_callback(on_grant)
        return grant

    def end_request(self, client_id: str) -> None:
        if self._holding != client_id:
            raise RuntimeError(f"end_request from non-holder {client_id!r}")
        self._holding = None
        self._gpu_lock.release()

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        client_id = info.client_id
        # A dead client must not wedge the time-slice rotation: withdraw
        # its queued slice request, or hand the GPU on if it held it.
        pending = self._waiting.pop(client_id, None)
        if pending is not None:
            self._gpu_lock.cancel(pending)
        if self._holding == client_id:
            self._holding = None
            self._gpu_lock.release()
        super()._deregister_cleanup(info)
