"""Tick-Tock / Wavelet baseline (Wang et al., MLSys '21; §6.1).

Tick-Tock offsets the forward and backward passes of two collocated
training jobs (one runs its "tick" forward while the other runs its
"tock" backward) to minimize aggregate memory usage, synchronizing at
phase boundaries.  The Orion paper's criticism — which this
implementation reproduces — is exactly that synchronization: at every
phase boundary the fastest job waits for the slowest, so aggregate
throughput is gated by the slower job.

Implementation: training clients emit forward/backward/update phase
markers; the backend holds clients at a phase barrier until every
registered training client reaches it, releasing them in lockstep with
alternating offsets.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.device import GpuDevice
from repro.runtime.backend import Backend, BackendOptions, ClientInfo, Op
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["TickTockBackend"]


class TickTockBackend(Backend):
    """Phase-synchronized training collocation."""

    name = "ticktock"

    def __init__(self, sim: Simulator, device: GpuDevice,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, options)
        self.device = device
        self._streams: Dict[str, object] = {}
        self._waiting: Dict[str, Signal] = {}
        self.barriers_released = 0
        # Per-client barrier-wait telemetry (Tick-Tock has no software
        # op queues; its "queue" is the phase barrier).  Instruments
        # live on the MetricsRegistry; cached per client.
        self._waits: Dict[str, tuple] = {}

    def _wait_instruments(self, client_id: str) -> tuple:
        inst = self._waits.get(client_id)
        if inst is None:
            inst = (self.metrics.counter("barrier_wait_total",
                                         client=client_id),
                    self.metrics.gauge("barrier_waiting", client=client_id))
            self._waits[client_id] = inst
        return inst

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        if kind != "training":
            raise ValueError("Tick-Tock collocates training jobs only")
        info = self._register(client_id, high_priority, kind)
        self._streams[client_id] = self.device.create_stream(
            name=f"ticktock-{client_id}"
        )
        return info

    def submit(self, client_id: str, op: Op) -> Signal:
        self.client_info(client_id)
        return self._streams[client_id].submit(op)

    def phase_marker(self, client_id: str, phase: str) -> Optional[Signal]:
        """Barrier: wait until every training client reaches a boundary."""
        if phase == "update":
            # Updates piggyback on the backward slot; no extra barrier.
            return None
        if len(self.clients) < 2:
            return None
        gate = Signal(self.sim)
        self._waiting[client_id] = gate
        enqueued, waiting_g = self._wait_instruments(client_id)
        enqueued.value += 1
        waiting_g.set(1)
        if len(self._waiting) == len(self.clients):
            self._release_barrier()
        return gate

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        client_id = info.client_id
        stream = self._streams.pop(client_id, None)
        if stream is not None:
            self.device.destroy_stream(stream)
        self.device.release_client(client_id)
        self._waiting.pop(client_id, None)
        # A dead partner must not strand survivors at the barrier: if
        # everyone still alive is already waiting, release them.  The
        # base class removes the dead client from ``clients`` after this
        # hook runs, hence the ``- 1``.
        if self._waiting and len(self._waiting) >= len(self.clients) - 1:
            self._release_barrier()

    def _release_barrier(self) -> None:
        waiting, self._waiting = self._waiting, {}
        self.barriers_released += 1
        if self.tracer.enabled:
            self.tracer.instant("scheduler", "barrier_release",
                                clients=len(waiting))
        for client_id, signal in waiting.items():
            if client_id in self._waits:
                self._waits[client_id][1].value = 0
            signal.trigger()

    def queue_telemetry(self) -> Dict[str, dict]:
        """Barrier-wait snapshot in the uniform queue-telemetry schema:
        ``depth`` is 1 while the client is held at a phase barrier."""
        snapshot = {}
        for client_id, (enqueued, waiting) in sorted(self._waits.items()):
            snapshot[client_id] = {
                "depth": 1 if client_id in self._waiting else 0,
                "enqueued_total": enqueued.value,
                "max_depth_seen": waiting.max_seen,
                "rejected_total": 0,
                "max_depth": None,
            }
        return snapshot

    def devices(self) -> List[GpuDevice]:
        return [self.device]
