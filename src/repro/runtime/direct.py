"""Direct-submission backends.

``DirectStreamBackend`` maps each client to its own CUDA stream on one
shared device and submits ops straight through — this is the substrate
for the GPU Streams, Priority Streams, and MPS baselines, and for the
techniques that gate clients without reordering their ops (temporal
sharing, Tick-Tock).

``DedicatedBackend`` gives every client its own GPU: the paper's Ideal
configuration (latency lower bound, throughput upper bound).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.gpu.device import GpuDevice
from repro.gpu.streams import Stream
from repro.sim.engine import Simulator
from repro.sim.process import Signal

from .backend import Backend, BackendOptions, ClientInfo, Op, UnknownClientError

__all__ = ["DirectStreamBackend", "DedicatedBackend"]


class DirectStreamBackend(Backend):
    """One stream per client on a shared device; no software scheduling."""

    name = "streams"
    #: Whether a high-priority client's stream gets CUDA priority 1.
    use_priorities: bool = False
    #: Name of a client's stream, formatted with its id (names reach
    #: traces).
    stream_name: str = "{}-stream"

    def __init__(self, sim: Simulator, device: Optional[GpuDevice],
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, device, options)
        self._streams: Dict[str, Stream] = {}

    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        info = self._register(client_id, high_priority, kind)
        priority = info.priority if self.use_priorities else 0
        self._streams[client_id] = self._place(client_id).create_stream(
            priority=priority, name=self.stream_name.format(client_id))
        return info

    def _place(self, client_id: str) -> GpuDevice:
        """The device a new client's stream is created on."""
        return self.device

    def submit(self, client_id: str, op: Op) -> Signal:
        # Hot path: one dict lookup instead of client_info + _streams.
        stream = self._streams.get(client_id)
        if stream is None:
            raise UnknownClientError(client_id, self.name)
        return stream.submit(op)

    def _start_scheduler(self) -> None:
        """Ops go straight to their streams: no scheduler to start."""

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        # Parity with the scheduling backends: queued ops of the dead
        # client complete with a client-attributed kill, not an
        # anonymous stream teardown.
        stream = self._streams.pop(info.client_id)
        stream.device.destroy_stream(stream,
                                     error=self._kill_error(info.client_id))
        stream.device.release_client(info.client_id)


class DedicatedBackend(DirectStreamBackend):
    """Each client gets a whole GPU to itself (the Ideal baseline)."""

    name = "ideal"
    process_per_client = True

    def __init__(self, sim: Simulator, device_factory: Callable[[], GpuDevice],
                 options: Optional[BackendOptions] = None):
        super().__init__(sim, None, options)
        self._device_factory = device_factory
        self._devices: Dict[str, GpuDevice] = {}

    def _place(self, client_id: str) -> GpuDevice:
        device = self._devices[client_id] = self._device_factory()
        return device

    def devices(self) -> List[GpuDevice]:
        return list(self._devices.values())

    def device_for(self, client_id: str) -> GpuDevice:
        return self._devices[client_id]

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        del self._devices[info.client_id]
        super()._deregister_cleanup(info)
