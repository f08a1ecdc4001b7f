"""Behavioural tests for the baseline backends."""

import pytest

from repro.baselines.reef import ReefBackend
from repro.baselines.spatial import MpsBackend, PriorityStreamsBackend, StreamsBackend
from repro.baselines.temporal import TemporalBackend
from repro.baselines.ticktock import TickTockBackend
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.runtime.backend import UnknownClientError
from repro.runtime.client import ClientContext
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel, memory_spec


def make(sim, backend_cls, **kwargs):
    device = GpuDevice(sim, V100_16GB)
    return backend_cls(sim, device, **kwargs), device


# ----------------------------------------------------------------------
# Temporal sharing
# ----------------------------------------------------------------------
def test_temporal_serializes_requests():
    sim = Simulator()
    backend, device = make(sim, TemporalBackend)
    a = ClientContext(backend, "a", HostThread(sim), high_priority=True)
    b = ClientContext(backend, "b", HostThread(sim))
    overlap = {"max_running": 0}

    def job(ctx, duration):
        for _ in range(3):
            yield from ctx.begin_request()
            yield from ctx.launch_kernel(
                make_kernel(compute_spec(f"{ctx.client_id}-k", duration=duration))
            )
            yield from ctx.synchronize()
            ctx.end_request()

    def monitor():
        for _ in range(200):
            overlap["max_running"] = max(overlap["max_running"],
                                         len(device.running))
            yield Timeout(5e-5)

    spawn(sim, job(a, 1e-3))
    spawn(sim, job(b, 1e-3))
    spawn(sim, monitor())
    sim.run()
    assert overlap["max_running"] <= 1


def test_temporal_priority_requests_jump_queue():
    sim = Simulator()
    backend, _ = make(sim, TemporalBackend)
    hp = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be1 = ClientContext(backend, "be1", HostThread(sim))
    be2 = ClientContext(backend, "be2", HostThread(sim))
    order = []

    def request(ctx, delay):
        yield Timeout(delay)
        yield from ctx.begin_request()
        order.append(ctx.client_id)
        yield from ctx.launch_kernel(
            make_kernel(compute_spec(f"{ctx.client_id}-k", duration=1e-3))
        )
        yield from ctx.synchronize()
        ctx.end_request()

    spawn(sim, request(be1, 0.0))
    spawn(sim, request(be2, 1e-4))   # queued behind be1
    spawn(sim, request(hp, 2e-4))    # arrives last, should run second
    sim.run()
    assert order == ["be1", "hp", "be2"]


def test_temporal_kernel_outside_slice_rejected():
    sim = Simulator()
    backend, _ = make(sim, TemporalBackend)
    ctx = ClientContext(backend, "a", HostThread(sim), high_priority=True)

    def rogue():
        yield from ctx.launch_kernel(make_kernel(compute_spec("k")))

    spawn(sim, rogue())
    with pytest.raises(RuntimeError):
        sim.run()


def test_temporal_allows_memory_ops_outside_slice():
    sim = Simulator()
    backend, _ = make(sim, TemporalBackend)
    ctx = ClientContext(backend, "a", HostThread(sim), high_priority=True)

    def startup():
        yield from ctx.malloc(1024)

    p = spawn(sim, startup())
    sim.run()
    assert p.triggered


# ----------------------------------------------------------------------
# Streams / MPS
# ----------------------------------------------------------------------
def test_streams_variants_priority_flags():
    sim = Simulator()
    s, _ = make(sim, StreamsBackend)
    p, _ = make(sim, PriorityStreamsBackend)
    m, _ = make(sim, MpsBackend)
    assert not s.use_priorities and not s.process_per_client
    assert p.use_priorities and not p.process_per_client
    assert not m.use_priorities and m.process_per_client


def test_streams_allow_overlap():
    sim = Simulator()
    backend, device = make(sim, StreamsBackend)
    a = ClientContext(backend, "a", HostThread(sim))
    b = ClientContext(backend, "b", HostThread(sim))
    overlap = {"max_running": 0}

    def job(ctx, spec):
        yield from ctx.launch_kernel(make_kernel(spec))
        yield from ctx.synchronize()

    def monitor():
        for _ in range(100):
            overlap["max_running"] = max(overlap["max_running"],
                                         len(device.running))
            yield Timeout(2e-5)

    spawn(sim, job(a, compute_spec("a-k", duration=1e-3, sms=160)))
    spawn(sim, job(b, memory_spec("b-k", duration=1e-3)))
    spawn(sim, monitor())
    sim.run()
    assert overlap["max_running"] == 2


# ----------------------------------------------------------------------
# REEF-N
# ----------------------------------------------------------------------
def reef_setup(sim, queue_size=12):
    backend, device = make(sim, ReefBackend, queue_size=queue_size)
    hp = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be = ClientContext(backend, "be", HostThread(sim))
    backend.start()
    return backend, device, hp, be


def test_reef_queue_size_default():
    sim = Simulator()
    backend, *_ = reef_setup(sim)
    assert backend.queue_size == 12


def test_reef_invalid_queue_size():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    with pytest.raises(ValueError):
        ReefBackend(sim, device, queue_size=0)


def test_reef_single_hp_client():
    sim = Simulator()
    backend, device, hp, be = reef_setup(sim)
    with pytest.raises(ValueError):
        ClientContext(backend, "hp2", HostThread(sim), high_priority=True)
    # The refused client leaves no registration behind.
    with pytest.raises(UnknownClientError):
        backend.client_info("hp2")


def test_reef_limits_outstanding_be(monkeypatch):
    sim = Simulator()
    backend, device, hp, be = reef_setup(sim, queue_size=3)
    committed = {"max": 0}
    original = backend._try_launch_be

    def tracked(client_id):
        result = original(client_id)
        committed["max"] = max(committed["max"],
                               backend._be[client_id].outstanding)
        return result

    monkeypatch.setattr(backend, "_try_launch_be", tracked)

    def be_job():
        for i in range(10):
            yield from be.launch_kernel(
                make_kernel(memory_spec(f"be-{i}", duration=1e-4))
            )
        yield from be.synchronize()

    spawn(sim, be_job())
    sim.run()
    assert committed["max"] <= 3


def test_reef_starves_be_while_hp_streams_kernels():
    sim = Simulator()
    backend, device, hp, be = reef_setup(sim)
    record = {}

    def hp_job():
        # Continuous big HP kernels: no idle window, no free SMs.
        for i in range(8):
            yield from hp.launch_kernel(
                make_kernel(compute_spec(f"hp-{i}", duration=5e-4, sms=640))
            )
        yield from hp.synchronize()
        record["hp_end"] = sim.now

    def be_job():
        yield Timeout(1e-4)
        yield from be.launch_kernel(
            make_kernel(compute_spec("be-big", duration=1e-4, sms=640))
        )
        yield from be.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp_job())
    spawn(sim, be_job())
    sim.run()
    assert record["be_end"] >= record["hp_end"]


def test_reef_pads_small_be_kernels_alongside_hp():
    sim = Simulator()
    backend, device, hp, be = reef_setup(sim)
    record = {}

    def hp_job():
        yield from hp.launch_kernel(
            make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))  # 20 SMs
        )
        yield from hp.synchronize()
        record["hp_end"] = sim.now

    def be_job():
        yield Timeout(1e-4)
        yield from be.launch_kernel(
            make_kernel(memory_spec("be-small", duration=1e-4, blocks=64))
        )
        yield from be.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp_job())
    spawn(sim, be_job())
    sim.run()
    assert record["be_end"] < record["hp_end"]


# ----------------------------------------------------------------------
# Tick-Tock
# ----------------------------------------------------------------------
def test_ticktock_rejects_inference_clients():
    sim = Simulator()
    backend, _ = make(sim, TickTockBackend)
    with pytest.raises(ValueError):
        ClientContext(backend, "inf", HostThread(sim), kind="inference")


def test_ticktock_phase_barrier_synchronizes_clients():
    sim = Simulator()
    backend, _ = make(sim, TickTockBackend)
    a = ClientContext(backend, "a", HostThread(sim), kind="training",
                      high_priority=True)
    b = ClientContext(backend, "b", HostThread(sim), kind="training")
    log = []

    def job(ctx, work):
        for it in range(2):
            yield from ctx.phase("forward")
            log.append((ctx.client_id, "fwd", sim.now))
            yield from ctx.launch_kernel(
                make_kernel(compute_spec(f"{ctx.client_id}-f{it}",
                                         duration=work, sms=160))
            )
            yield from ctx.synchronize()
            yield from ctx.phase("backward")
            log.append((ctx.client_id, "bwd", sim.now))
            yield from ctx.launch_kernel(
                make_kernel(compute_spec(f"{ctx.client_id}-b{it}",
                                         duration=work, sms=160))
            )
            yield from ctx.synchronize()

    spawn(sim, job(a, 1e-3))
    spawn(sim, job(b, 3e-3))  # slower job gates the faster one
    sim.run()
    assert backend.barriers_released >= 3
    # Paired phase entries happen at identical times (lockstep).
    a_times = [t for c, _p, t in log if c == "a"]
    b_times = [t for c, _p, t in log if c == "b"]
    assert a_times == pytest.approx(b_times)


def test_ticktock_single_client_not_gated():
    sim = Simulator()
    backend, _ = make(sim, TickTockBackend)
    a = ClientContext(backend, "a", HostThread(sim), kind="training")

    def job():
        yield from a.phase("forward")
        yield from a.launch_kernel(make_kernel(compute_spec("k", duration=1e-4)))
        yield from a.synchronize()

    p = spawn(sim, job())
    sim.run()
    assert p.triggered
