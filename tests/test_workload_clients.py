"""Tests for inference/training client processes driving real model plans."""

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.runtime.client import ClientContext
from repro.runtime.direct import DedicatedBackend, DirectStreamBackend
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.workloads.arrivals import ClosedLoop, UniformArrivals
from repro.workloads.clients import InferenceClient, TrainingClient
from repro.workloads.registry import build_plan


def setup(sim):
    backend = DedicatedBackend(sim, lambda: GpuDevice(sim, V100_16GB))
    return backend


def test_inference_client_serves_uniform_arrivals():
    sim = Simulator()
    backend = setup(sim)
    ctx = ClientContext(backend, "inf", HostThread(sim), high_priority=True)
    plan = build_plan("mobilenet_v2", "inference")
    client = InferenceClient(sim, ctx, plan, V100_16GB,
                             UniformArrivals(50.0), "inf", horizon=0.5)
    client.start()
    sim.run(until=0.6)
    records = client.stats.records
    assert len(records) >= 20
    for r in records:
        assert r.end > r.start >= r.arrival
        assert r.latency > 0


def test_inference_latency_includes_queueing():
    sim = Simulator()
    backend = setup(sim)
    ctx = ClientContext(backend, "inf", HostThread(sim), high_priority=True)
    plan = build_plan("resnet50", "inference")  # ~5.4 ms service
    # 400 rps >> capacity: queue builds, latency >> service time.
    client = InferenceClient(sim, ctx, plan, V100_16GB,
                             UniformArrivals(400.0), "inf", horizon=0.3)
    client.start()
    sim.run(until=0.3)
    records = client.stats.records
    assert records
    assert records[-1].latency > 5 * records[0].latency


def test_closed_loop_inference_client():
    sim = Simulator()
    backend = setup(sim)
    ctx = ClientContext(backend, "inf", HostThread(sim))
    plan = build_plan("mobilenet_v2", "inference")
    client = InferenceClient(sim, ctx, plan, V100_16GB, ClosedLoop(),
                             "inf", horizon=0.2)
    client.start()
    sim.run(until=0.3)
    records = client.stats.records
    assert len(records) >= 50  # ~1.5 ms per request back to back
    for r in records:
        assert r.arrival == r.start


def test_training_client_iterates():
    sim = Simulator()
    backend = setup(sim)
    ctx = ClientContext(backend, "train", HostThread(sim), kind="training")
    plan = build_plan("mobilenet_v2", "training")
    client = TrainingClient(sim, ctx, plan, V100_16GB, "train", horizon=0.5)
    client.start()
    sim.run(until=0.6)
    records = client.stats.records
    assert len(records) >= 8
    durations = [r.service_time for r in records[1:]]
    mean = sum(durations) / len(durations)
    assert 0.02 < mean < 0.10  # ~45 ms per iteration solo


def test_training_client_rejects_inference_plan():
    sim = Simulator()
    backend = setup(sim)
    ctx = ClientContext(backend, "t", HostThread(sim), kind="training")
    with pytest.raises(ValueError):
        TrainingClient(sim, ctx, build_plan("resnet50", "inference"),
                       V100_16GB, "t", horizon=1.0)


def test_client_allocates_model_state():
    sim = Simulator()
    backend = setup(sim)
    ctx = ClientContext(backend, "train", HostThread(sim), kind="training")
    plan = build_plan("mobilenet_v2", "training")
    client = TrainingClient(sim, ctx, plan, V100_16GB, "train", horizon=0.05)
    client.start()
    sim.run(until=0.1)
    device = backend.device_for("train")
    assert device.memory.used >= plan.state_bytes


# ---------------------------------------------------------------------------
# Restart supervision (a client given a ctx_factory)
# ---------------------------------------------------------------------------

KILL_AT = 0.05


def supervised_client(sim, kind, restart=True, max_restarts=8):
    """One mobilenet_v2 client on a shared device; returns (device, client)."""
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)

    def new_ctx():
        return ClientContext(backend, "c", HostThread(sim),
                             high_priority=kind == "inference", kind=kind)

    plan = build_plan("mobilenet_v2", kind)
    factory = new_ctx if restart else None
    if kind == "inference":
        client = InferenceClient(sim, new_ctx(), plan, V100_16GB,
                                 UniformArrivals(200.0), "c", horizon=0.2,
                                 ctx_factory=factory,
                                 max_restarts=max_restarts)
    else:
        client = TrainingClient(sim, new_ctx(), plan, V100_16GB, "c",
                                horizon=0.2, ctx_factory=factory,
                                max_restarts=max_restarts)
    return device, client


def served_after(client, t):
    return [r for r in client.stats.records if r.start > t]


@pytest.mark.parametrize("kind", ["inference", "training"])
def test_kill_with_ctx_factory_restarts_on_fresh_context(kind):
    sim = Simulator()
    _device, client = supervised_client(sim, kind)
    first_ctx = client.ctx
    client.start()
    sim.call_at(KILL_AT, client.kill)
    sim.run(until=0.2)
    assert first_ctx.closed
    assert client.ctx is not first_ctx and not client.ctx.closed
    assert client.stats.restarts == 1
    assert served_after(client, KILL_AT)


@pytest.mark.parametrize("kind", ["inference", "training"])
def test_kill_without_ctx_factory_stops(kind):
    sim = Simulator()
    _device, client = supervised_client(sim, kind, restart=False)
    client.start()
    sim.call_at(KILL_AT, client.kill)
    sim.run(until=0.2)
    assert not client.alive
    assert client.stats.restarts == 0
    assert client.stats.records and not served_after(client, KILL_AT)


@pytest.mark.parametrize("kind", ["inference", "training"])
def test_halt_never_restarts(kind):
    sim = Simulator()
    _device, client = supervised_client(sim, kind)
    client.start()
    sim.call_at(KILL_AT, client.halt)
    sim.run(until=0.2)
    assert not client.alive
    assert client.stats.restarts == 0
    assert client.stats.records and not served_after(client, KILL_AT)


@pytest.mark.parametrize("kind", ["inference", "training"])
def test_repeated_sticky_faults_stop_after_max_restarts(kind):
    sim = Simulator()
    device, client = supervised_client(sim, kind, max_restarts=2)
    tag = "inf-b4" if kind == "inference" else "train-b64"
    device.arm_kernel_fault(f"mobilenet_v2-{tag}/relu_0", count=100)
    client.start()
    sim.run(until=0.2)
    assert not client.alive
    assert client.stats.restarts == 2
    assert client.stats.failed == 3
    assert not client.stats.records
