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

from typing import Optional

from repro.gpu.device import GpuDevice
from repro.runtime.backend import BackendOptions, ClientInfo
from repro.runtime.direct import DirectStreamBackend
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["TickTockBackend"]


class TickTockBackend(DirectStreamBackend):
    """Phase-synchronized training collocation.

    Its "queue" is the phase barrier: ``_waiting`` holds the gate of
    each client waiting there, for wait telemetry and the release.
    """

    name = "ticktock"
    stream_name = "ticktock-{}"
    wait_metric = "barrier"

    def __init__(self, sim: Simulator, device: GpuDevice,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, device, options)
        self.barriers_released = 0

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        if kind != "training":
            raise ValueError("Tick-Tock collocates training jobs only")
        return super().register_client(client_id, high_priority, kind)

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
        super()._deregister_cleanup(info)
        self._waiting.pop(info.client_id, None)
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
            self._waits[client_id][1].value = 0
            signal.trigger()
