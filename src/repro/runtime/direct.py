"""Direct-submission backends.

``DirectStreamBackend`` maps each client to its own CUDA stream on one
shared device and submits ops straight through — this is the substrate
for the GPU Streams, Priority Streams, and MPS baselines.

``DedicatedBackend`` gives every client its own GPU: the paper's Ideal
configuration (latency lower bound, throughput upper bound).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaError, CudaErrorCode
from repro.sim.engine import Simulator
from repro.sim.process import Signal

from .backend import Backend, BackendOptions, ClientInfo, Op, UnknownClientError

__all__ = ["DirectStreamBackend", "DedicatedBackend"]


class DirectStreamBackend(Backend):
    """One stream per client on a shared device; no software scheduling."""

    name = "streams"

    def __init__(self, sim: Simulator, device: GpuDevice, use_priorities: bool = False,
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, options)
        self.device = device
        self.use_priorities = use_priorities
        self._streams: Dict[str, object] = {}

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        info = self._register(client_id, high_priority, kind)
        priority = info.priority if self.use_priorities else 0
        self._streams[client_id] = self.device.create_stream(
            priority=priority, name=f"{client_id}-stream"
        )
        return info

    def submit(self, client_id: str, op: Op) -> Signal:
        # Hot path: one dict lookup instead of client_info + _streams.
        stream = self._streams.get(client_id)
        if stream is None:
            raise UnknownClientError(client_id, self.name)
        return stream.submit(op)

    def devices(self) -> List[GpuDevice]:
        return [self.device]

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        # Parity with the scheduling backends: queued ops of the dead
        # client complete with a client-attributed kill, not an
        # anonymous stream teardown.
        error = CudaError(CudaErrorCode.CLIENT_KILLED,
                          "client deregistered with ops pending",
                          client_id=info.client_id, time=self.sim.now)
        stream = self._streams.pop(info.client_id, None)
        if stream is not None:
            self.device.destroy_stream(stream, error=error)
        self.device.release_client(info.client_id)


class DedicatedBackend(Backend):
    """Each client gets a whole GPU to itself (the Ideal baseline)."""

    name = "ideal"
    process_per_client = True

    def __init__(self, sim: Simulator, device_factory: Callable[[], GpuDevice],
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, options)
        self._device_factory = device_factory
        self._devices: Dict[str, GpuDevice] = {}
        self._streams: Dict[str, object] = {}

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        info = self._register(client_id, high_priority, kind)
        device = self._device_factory()
        self._devices[client_id] = device
        self._streams[client_id] = device.create_stream(name=f"{client_id}-stream")
        return info

    def submit(self, client_id: str, op: Op) -> Signal:
        stream = self._streams.get(client_id)
        if stream is None:
            raise UnknownClientError(client_id, self.name)
        return stream.submit(op)

    def devices(self) -> List[GpuDevice]:
        return list(self._devices.values())

    def device_for(self, client_id: str) -> GpuDevice:
        return self._devices[client_id]

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        error = CudaError(CudaErrorCode.CLIENT_KILLED,
                          "client deregistered with ops pending",
                          client_id=info.client_id, time=self.sim.now)
        stream = self._streams.pop(info.client_id, None)
        device = self._devices.pop(info.client_id, None)
        if device is not None and stream is not None:
            device.destroy_stream(stream, error=error)
            device.release_client(info.client_id)
