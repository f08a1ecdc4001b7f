"""Additional coverage: stream bookkeeping, dispatch counters, REEF
round-robin over several best-effort clients, op timestamps."""

import pytest

from repro.baselines.reef import ReefBackend
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.runtime.client import ClientContext
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel, memory_spec


def test_stream_counters_track_submissions_and_completions():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    stream = device.create_stream()

    def run():
        done = None
        for i in range(5):
            done = stream.submit(make_kernel(compute_spec(f"k{i}",
                                                          duration=1e-4)))
        yield done

    spawn(sim, run())
    sim.run()
    assert stream.ops_submitted == 5
    assert stream.ops_completed == 5
    assert not stream.busy


def test_stream_op_timestamps_ordered():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    stream = device.create_stream()
    captured = {}

    def run():
        op = make_kernel(compute_spec("k", duration=1e-3))
        done = stream.submit(op)
        captured["stream_op"] = stream.queue[0] if stream.queue else None
        yield done

    spawn(sim, run())
    # Grab the StreamOp before dispatch consumes it.
    sim.step()  # resume process -> submit happens
    stream_op = stream.queue[0]
    sim.run()
    assert stream_op.enqueued_at <= stream_op.started_at <= stream_op.finished_at
    assert stream_op.finished_at == pytest.approx(
        stream_op.started_at + 1e-3, rel=0.01
    )


def test_device_busy_time_not_double_counted_with_two_streams():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    s1, s2 = device.create_stream(), device.create_stream()

    def run():
        d1 = s1.submit(make_kernel(compute_spec("a", duration=1e-3, sms=100)))
        d2 = s2.submit(make_kernel(memory_spec("b", duration=1e-3)))
        yield d1
        yield d2

    spawn(sim, run())
    sim.run()
    # Wall-clock busy time, not per-kernel sums: two concurrent 1 ms
    # kernels (slowed a bit by contention) take < 2 ms of device time.
    assert device.kernel_busy_time < 1.9e-3


def test_reef_round_robin_serves_all_be_clients():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = ReefBackend(sim, device)
    ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    ctxs = [ClientContext(backend, f"be{i}", HostThread(sim)) for i in range(3)]
    backend.start()
    finished = {}

    def client(index, ctx):
        for k in range(4):
            yield from ctx.launch_kernel(
                make_kernel(memory_spec(f"be{index}-{k}", duration=1e-4),
                            client_id=ctx.client_id)
            )
        yield from ctx.synchronize()
        finished[index] = sim.now

    for i, ctx in enumerate(ctxs):
        spawn(sim, client(i, ctx))
    sim.run()
    assert set(finished) == {0, 1, 2}
    # No client finishes wildly later than the others (fair service).
    assert max(finished.values()) < 3 * min(finished.values()) + 1e-3


def test_concurrent_streams_respect_max_kernel_cap():
    sim = Simulator()
    spec = V100_16GB.with_overrides(max_concurrent_kernels=4)
    device = GpuDevice(sim, spec)
    streams = [device.create_stream() for _ in range(10)]
    peak = {"n": 0}

    def run():
        signals = [
            s.submit(make_kernel(memory_spec(f"m{i}", duration=5e-4, blocks=8)))
            for i, s in enumerate(streams)
        ]
        for signal in signals:
            yield signal

    def monitor():
        for _ in range(200):
            peak["n"] = max(peak["n"], len(device.running))
            yield Timeout(1e-5)

    spawn(sim, run())
    spawn(sim, monitor())
    sim.run()
    assert peak["n"] <= 4
    assert device.kernels_completed == 10


def test_experiment_result_accessors():
    from repro.experiments.params import ExperimentParams, JobSpec
    from repro.experiments.scenario import Scenario, run as run_scenario

    hp = JobSpec(model="mobilenet_v2", kind="inference", high_priority=True,
                 arrivals="uniform", rps=30)
    be = JobSpec(model="mobilenet_v2", kind="training")
    config = ExperimentParams(jobs=[hp, be], backend="mps", duration=1.0,
                              warmup=0.2)
    result = run_scenario(Scenario(kind="experiment", params=config)).result
    assert result.hp_job.name == hp.name
    assert [j.name for j in result.be_jobs()] == [be.name]
    assert result.aggregate_throughput == pytest.approx(
        sum(j.throughput for j in result.jobs.values())
    )
