"""Deregister/queue-drain parity on the stream-per-client backends.

The scheduling backends (Orion, REEF) already promise full teardown on
deregistration — queued ops errored with a client-attributed kill,
stream destroyed, memory freed, survivors untouched.  These tests pin
the same contract on every backend that gives each client its own
stream: the direct-submission baselines (GPU Streams, Priority
Streams, MPS), temporal sharing, Tick-Tock and the Ideal/Dedicated
backend.
"""

import pytest

from repro.baselines import (
    DedicatedBackend,
    MpsBackend,
    PriorityStreamsBackend,
    StreamsBackend,
    TemporalBackend,
    TickTockBackend,
)
from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaErrorCode
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import MemoryOp, MemoryOpKind
from repro.runtime.backend import UnknownClientError
from repro.sim.engine import Simulator
from repro.sim.process import spawn

from helpers import compute_spec, make_kernel

STREAM_PER_CLIENT = (StreamsBackend, PriorityStreamsBackend, MpsBackend,
                     TemporalBackend, TickTockBackend)


def make_spatial(cls, sim):
    return cls(sim, GpuDevice(sim, V100_16GB))


def register(backend, client_id, high_priority=False):
    # Tick-Tock collocates training jobs only.
    kind = "training" if isinstance(backend, TickTockBackend) else "inference"
    backend.register_client(client_id, high_priority, kind)


def begin(backend, client_id):
    """Open a request; temporal sharing grants its time slice here, and
    the GPU must be free so the grant is immediate."""
    grant = backend.begin_request(client_id)
    assert grant is None or grant.triggered


def make_dedicated(sim):
    return DedicatedBackend(sim, lambda: GpuDevice(sim, V100_16GB))


@pytest.mark.parametrize("cls", STREAM_PER_CLIENT)
def test_deregister_rejects_further_lifecycle_calls(cls):
    sim = Simulator()
    backend = make_spatial(cls, sim)
    register(backend, "victim")
    begin(backend, "victim")
    backend.deregister_client("victim")
    with pytest.raises(UnknownClientError):
        backend.submit("victim", make_kernel(compute_spec()))
    with pytest.raises(UnknownClientError):
        backend.deregister_client("victim")


@pytest.mark.parametrize("cls", STREAM_PER_CLIENT)
def test_deregister_drains_queued_ops_with_client_kill(cls):
    sim = Simulator()
    backend = make_spatial(cls, sim)
    register(backend, "victim")
    begin(backend, "victim")
    device = backend.devices()[0]
    # Two long kernels: the first occupies the stream, the second is
    # still queued (undispatched) when the client dies.
    first = backend.submit("victim", make_kernel(
        compute_spec("long-a", duration=5e-3), client_id="victim"))
    queued = backend.submit("victim", make_kernel(
        compute_spec("long-b", duration=5e-3), client_id="victim"))
    sim.run(until=1e-4)
    assert not queued.triggered
    streams_before = len(device.streams)
    backend.deregister_client("victim")
    assert len(device.streams) == streams_before - 1
    assert queued.triggered
    assert queued.error is not None
    assert queued.error.code is CudaErrorCode.CLIENT_KILLED
    assert queued.error.client_id == "victim"
    # The in-flight kernel is not preemptible: it runs to completion.
    sim.run()
    assert first.triggered


@pytest.mark.parametrize("cls", STREAM_PER_CLIENT)
def test_deregister_releases_memory(cls):
    sim = Simulator()
    backend = make_spatial(cls, sim)
    register(backend, "victim")
    device = backend.devices()[0]
    backend.submit("victim", MemoryOp(kind=MemoryOpKind.MALLOC,
                                      nbytes=1 << 30, blocking=True,
                                      client_id="victim"))
    sim.run()
    assert device.memory.client_usage("victim") == 1 << 30
    backend.deregister_client("victim")
    assert device.memory.client_usage("victim") == 0
    assert device.memory.used == 0


@pytest.mark.parametrize("cls", STREAM_PER_CLIENT)
def test_survivors_unaffected_by_deregistration(cls):
    sim = Simulator()
    backend = make_spatial(cls, sim)
    register(backend, "victim")
    register(backend, "survivor", high_priority=True)
    begin(backend, "victim")
    backend.submit("victim", make_kernel(
        compute_spec("v-k", duration=5e-3), client_id="victim"))
    ops = []

    def survivor():
        # Temporal sharing holds the survivor here until the victim's
        # slice is handed on; the others let it submit at once.
        grant = backend.begin_request("survivor")
        if grant is not None:
            yield grant
        ops.append(backend.submit("survivor", make_kernel(
            compute_spec("s-k", duration=1e-3), client_id="survivor")))
        yield ops[0]
        ops.append(backend.submit("survivor", make_kernel(
            compute_spec("s-k2", duration=1e-3), client_id="survivor")))

    spawn(sim, survivor())
    sim.run(until=1e-4)
    backend.deregister_client("victim")
    # The survivor's registration is intact.
    assert backend.client_info("survivor") is not None
    sim.run()
    assert len(ops) == 2
    assert all(op.triggered and op.error is None for op in ops)


def test_dedicated_backend_deregister_parity():
    sim = Simulator()
    backend = make_dedicated(sim)
    backend.register_client("victim", False, "inference")
    backend.register_client("survivor", False, "inference")
    victim_device = backend.device_for("victim")
    backend.submit("victim", MemoryOp(kind=MemoryOpKind.MALLOC,
                                      nbytes=1 << 20, blocking=True,
                                      client_id="victim"))
    backend.submit("victim", make_kernel(
        compute_spec("long-a", duration=5e-3), client_id="victim"))
    queued = backend.submit("victim", make_kernel(
        compute_spec("long-b", duration=5e-3), client_id="victim"))
    sim.run(until=1e-4)
    backend.deregister_client("victim")
    assert queued.error is not None
    assert queued.error.code is CudaErrorCode.CLIENT_KILLED
    assert queued.error.client_id == "victim"
    assert victim_device.memory.client_usage("victim") == 0
    assert victim_device not in backend.devices()
    with pytest.raises(UnknownClientError):
        backend.submit("victim", make_kernel(compute_spec()))
    survivor_op = backend.submit("survivor", make_kernel(
        compute_spec("s-k", duration=1e-3), client_id="survivor"))
    sim.run()
    assert survivor_op.error is None
