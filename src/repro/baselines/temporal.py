"""Temporal sharing baseline (§4, §6.1).

Time-slices the GPU at request/minibatch granularity: one job's request
runs at a time, with the high-priority job's requests served first
among waiters.  An arriving high-priority request must still wait for
any ongoing best-effort iteration to finish — the head-of-line blocking
the paper identifies as temporal sharing's core weakness.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.device import GpuDevice
from repro.runtime.backend import Backend, BackendOptions, ClientInfo, Op
from repro.sim.engine import Simulator
from repro.sim.process import Signal
from repro.sim.resources import FifoLock

__all__ = ["TemporalBackend"]


class TemporalBackend(Backend):
    """Request-granularity time slicing with priority."""

    name = "temporal"

    def __init__(self, sim: Simulator, device: GpuDevice,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, options)
        self.device = device
        self._streams: Dict[str, object] = {}
        self._gpu_lock = FifoLock(sim)
        self._holding: Optional[str] = None
        # Outstanding (not yet granted) slice requests, for cancellation
        # when a waiting client dies.
        self._pending_grants: Dict[str, Signal] = {}
        # Per-client slice-wait telemetry (temporal sharing has no
        # software op queues; its "queue" is the wait for the GPU lock).
        # Instruments live on the MetricsRegistry; cached per client.
        self._waits: Dict[str, tuple] = {}

    def _wait_instruments(self, client_id: str) -> tuple:
        inst = self._waits.get(client_id)
        if inst is None:
            inst = (self.metrics.counter("slice_wait_total", client=client_id),
                    self.metrics.gauge("slice_waiting", client=client_id))
            self._waits[client_id] = inst
        return inst

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        info = self._register(client_id, high_priority, kind)
        self._streams[client_id] = self.device.create_stream(
            name=f"{client_id}-stream"
        )
        return info

    def submit(self, client_id: str, op: Op) -> Signal:
        # Memory operations (model-state allocation at startup) are
        # allowed outside a slice; kernels require holding it.
        if op.is_kernel and self._holding != client_id:
            raise RuntimeError(
                f"temporal sharing: client {client_id!r} submitted a kernel "
                "outside its time slice (begin_request was not awaited)"
            )
        return self._streams[client_id].submit(op)

    def begin_request(self, client_id: str,
                      deadline: Optional[float] = None) -> Optional[Signal]:
        info = self.client_info(client_id)
        grant = self._gpu_lock.acquire(priority=info.priority, holder=client_id)
        enqueued, waiting = self._wait_instruments(client_id)
        enqueued.value += 1

        def on_grant(_sig):
            self._holding = client_id
            self._pending_grants.pop(client_id, None)
            waiting.value = 0

        if not grant.triggered:
            self._pending_grants[client_id] = grant
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
        pending = self._pending_grants.pop(client_id, None)
        if pending is not None:
            self._gpu_lock.cancel(pending)
        if self._holding == client_id:
            self._holding = None
            self._gpu_lock.release()
        stream = self._streams.pop(client_id, None)
        if stream is not None:
            self.device.destroy_stream(stream)
        self.device.release_client(client_id)

    def queue_telemetry(self) -> Dict[str, dict]:
        """Slice-wait snapshot in the uniform queue-telemetry schema:
        ``depth`` is 1 while the client waits for its time slice."""
        snapshot = {}
        for client_id, (enqueued, waiting) in sorted(self._waits.items()):
            snapshot[client_id] = {
                "depth": 1 if client_id in self._pending_grants else 0,
                "enqueued_total": enqueued.value,
                "max_depth_seen": waiting.max_seen,
                "rejected_total": 0,
                "max_depth": None,
            }
        return snapshot

    def devices(self) -> List[GpuDevice]:
        return [self.device]
