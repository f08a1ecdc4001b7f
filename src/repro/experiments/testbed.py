"""The simulated testbed every scenario kind runs on.

The paper (§6.1) compares Orion with every baseline on one testbed; this
module is that testbed.  :data:`BACKENDS` maps each sharing technique's
name to its constructor, and :class:`Testbed` holds what one run shares
(simulator, device spec, RNG factory, profile store, tracer).
:meth:`Testbed.gpu` builds one GPU's stack on top of it: the device,
the backend over it, and the host GIL its client threads share, with
the tracer passed to each at construction.

``run(scenario)`` builds one testbed per run and hands it to the
kind's implementation.  The testbed only builds.  Each kind adds its
own profiles to the store and starts its clients, guards, fault
injectors and backend in its own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.baselines import (
    DedicatedBackend,
    MpsBackend,
    PriorityStreamsBackend,
    ReefBackend,
    StreamsBackend,
    TemporalBackend,
    TickTockBackend,
)
from repro.core import OrionBackend, OrionConfig
from repro.gpu.device import GpuDevice
from repro.gpu.specs import DeviceSpec, get_device
from repro.profiler.profiles import ProfileStore
from repro.runtime.backend import Backend, BackendOptions
from repro.runtime.client import ClientContext
from repro.runtime.host import HostGil, HostThread
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.telemetry.tracer import NULL_TRACER, TelemetryConfig

__all__ = ["BACKENDS", "Testbed", "GpuStack", "report_stats"]

#: A backend constructor: (sim, new_device, profiles, orion_config,
#: options) -> Backend.  ``new_device()`` builds one GPU of the testbed;
#: ``orion_config`` may be None (Orion's defaults).
BackendFactory = Callable[[Simulator, Callable[[], GpuDevice], ProfileStore,
                           Optional[OrionConfig], BackendOptions], Backend]


def _on_one_device(cls) -> BackendFactory:
    """A baseline that shares one device and ignores the Orion config."""
    return lambda sim, new_device, _store, _config, options: \
        cls(sim, new_device(), options=options)


#: Every sharing technique, by the name configs and the CLI use.
BACKENDS: Dict[str, BackendFactory] = {
    "orion": lambda sim, new_device, store, config, options:
        OrionBackend(sim, new_device(), store, config, options=options),
    "reef": _on_one_device(ReefBackend),
    "mps": _on_one_device(MpsBackend),
    "streams": _on_one_device(StreamsBackend),
    "priority-streams": _on_one_device(PriorityStreamsBackend),
    "temporal": _on_one_device(TemporalBackend),
    "ticktock": _on_one_device(TickTockBackend),
    # Ideal: a whole device per client, built as each one registers.
    "ideal": lambda sim, new_device, _store, _config, options:
        DedicatedBackend(sim, new_device, options=options),
}


def report_stats(backend: Backend, keys: Tuple[str, ...]) -> Dict[str, object]:
    """The ``keys`` subset of ``backend.stats()``, in that order; empty
    for a backend that keeps no counters."""
    stats = backend.stats()
    return {key: stats[key] for key in keys} if stats else {}


class GpuStack:
    """One GPU as a scenario sees it: device, backend, host GIL.

    ``device`` is None for the ``ideal`` backend, whose devices are
    built per client.  ``gil`` is None when every client runs in its own
    process (``backend.process_per_client``).
    """

    def __init__(self, sim: Simulator, device: Optional[GpuDevice],
                 backend: Backend, gil: Optional[HostGil]):
        self.sim = sim
        self.device = device
        self.backend = backend
        self.gil = gil

    def ctx(self, name: str, high_priority: bool, kind: str) -> ClientContext:
        """Register client ``name`` with a host thread of its own."""
        host = HostThread(
            self.sim, gil=self.gil,
            interception_overhead=self.backend.interception_overhead())
        return ClientContext(self.backend, name, host,
                             high_priority=high_priority, kind=kind)


@dataclass
class Testbed:
    """What one run shares across its GPUs."""

    __test__ = False  # not a pytest test class despite the name

    sim: Simulator
    device_spec: DeviceSpec
    rng: RngFactory
    store: ProfileStore
    tracer: object = NULL_TRACER

    @classmethod
    def build(cls, device: str, seed: int,
              telemetry: Optional[TelemetryConfig] = None) -> "Testbed":
        """A fresh testbed; the tracer also records every simulator
        event when ``telemetry.engine_events`` is set."""
        telemetry = telemetry or TelemetryConfig()
        sim = Simulator()
        tracer = telemetry.build_tracer(sim)
        if telemetry.engine_events:
            sim.attach_tracer(tracer)
        return cls(sim, get_device(device), RngFactory(seed), ProfileStore(),
                   tracer)

    def gpu(self, backend: str, config: Optional[OrionConfig] = None,
            record_utilization: bool = False) -> GpuStack:
        """Build one GPU running ``backend``.  ``config`` is used only
        by Orion.  Its devices record utilization segments when asked
        to, and always under tracing: the segments are the trace's
        device counters."""
        record_utilization = record_utilization or self.tracer.enabled
        factory = BACKENDS.get(backend)
        if factory is None:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"known: {', '.join(BACKENDS)}")

        def new_device() -> GpuDevice:
            return GpuDevice(self.sim, self.device_spec,
                             record_utilization=record_utilization,
                             tracer=self.tracer)

        instance = factory(self.sim, new_device, self.store, config,
                           BackendOptions(tracer=self.tracer))
        # Ideal has no device until its first client registers.
        devices = instance.devices()
        gil = None if instance.process_per_client else HostGil(self.sim)
        return GpuStack(self.sim, devices[0] if devices else None,
                        instance, gil)
