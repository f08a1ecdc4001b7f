"""Unit tests for the runtime layer: hosts/GIL, client contexts, backends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.spatial import PriorityStreamsBackend
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import MemoryOpKind
from repro.runtime.backend import Backend, SoftwareQueue
from repro.runtime.client import ClientContext
from repro.runtime.direct import DedicatedBackend, DirectStreamBackend
from repro.runtime.host import HostGil, HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Signal, Timeout, spawn

from helpers import compute_spec, make_kernel


@pytest.fixture
def sim():
    return Simulator()


def drive(sim, gen):
    p = spawn(sim, gen)
    sim.run()
    return p


# ----------------------------------------------------------------------
# Host model
# ----------------------------------------------------------------------
def test_launch_cost_without_gil(sim):
    host = HostThread(sim, launch_overhead=5e-6)
    record = {}

    def run():
        yield from host.launch_cost()
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] == pytest.approx(5e-6)
    assert host.ops_launched == 1


def test_interception_overhead_adds_to_cost(sim):
    host = HostThread(sim, launch_overhead=5e-6, interception_overhead=1e-6)
    record = {}

    def run():
        yield from host.launch_cost()
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] == pytest.approx(6e-6)


def test_gil_serializes_threads(sim):
    gil = HostGil(sim)
    hosts = [HostThread(sim, gil=gil, launch_overhead=10e-6) for _ in range(3)]
    ends = []

    def launcher(host):
        yield from host.launch_cost()
        ends.append(sim.now)

    for host in hosts:
        spawn(sim, launcher(host))
    sim.run()
    # Three 10us launches through one GIL take 30us, not 10us.
    assert max(ends) == pytest.approx(30e-6)
    assert gil.contended_acquisitions >= 2


def test_host_time_accounting(sim):
    host = HostThread(sim, launch_overhead=5e-6)

    def run():
        for _ in range(4):
            yield from host.launch_cost()

    drive(sim, run())
    assert host.host_time == pytest.approx(20e-6)


def test_negative_overheads_rejected(sim):
    with pytest.raises(ValueError):
        HostThread(sim, launch_overhead=-1e-6)


# ----------------------------------------------------------------------
# Software queue
# ----------------------------------------------------------------------
def test_software_queue_fifo(sim):
    queue = SoftwareQueue(sim, "c")
    a, b = make_kernel(compute_spec("a")), make_kernel(compute_spec("b"))
    queue.push(a)
    queue.push(b)
    assert queue.peek() is a
    op, _sig = queue.pop()
    assert op is a
    assert queue.peek() is b


def test_software_queue_pop_empty_raises(sim):
    with pytest.raises(IndexError):
        SoftwareQueue(sim, "c").pop()


def test_software_queue_len_and_counter(sim):
    queue = SoftwareQueue(sim, "c")
    for i in range(3):
        queue.push(make_kernel(compute_spec(f"k{i}")))
    assert len(queue) == 3
    assert queue.enqueued_total == 3


# ----------------------------------------------------------------------
# Client context semantics
# ----------------------------------------------------------------------
def make_ctx(sim, backend=None):
    if backend is None:
        device = GpuDevice(sim, V100_16GB)
        backend = DirectStreamBackend(sim, device)
    host = HostThread(sim)
    return ClientContext(backend, "job", host), backend


def test_kernel_launch_is_async(sim):
    ctx, _ = make_ctx(sim)
    op = make_kernel(compute_spec(duration=5e-3))
    record = {}

    def run():
        yield from ctx.launch_kernel(op)
        record["after_launch"] = sim.now
        yield from ctx.synchronize()
        record["after_sync"] = sim.now

    drive(sim, run())
    assert record["after_launch"] < 1e-4  # returned before the kernel ran
    assert record["after_sync"] >= 5e-3


def test_blocking_memcpy_waits(sim):
    ctx, _ = make_ctx(sim)
    nbytes = int(16e9 * 1e-3)
    record = {}

    def run():
        yield from ctx.memcpy(nbytes, MemoryOpKind.MEMCPY_H2D, blocking=True)
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] >= 1e-3


def test_async_memcpy_returns_immediately(sim):
    ctx, _ = make_ctx(sim)
    nbytes = int(16e9 * 1e-3)
    record = {}

    def run():
        yield from ctx.memcpy(nbytes, MemoryOpKind.MEMCPY_H2D, blocking=False)
        record["t"] = sim.now
        yield from ctx.synchronize()
        record["sync"] = sim.now

    drive(sim, run())
    assert record["t"] < 1e-4
    assert record["sync"] >= 1e-3


def test_memcpy_rejects_non_transfer(sim):
    ctx, _ = make_ctx(sim)

    def run():
        yield from ctx.memcpy(100, MemoryOpKind.MALLOC)

    spawn(sim, run())
    with pytest.raises(ValueError):
        sim.run()


def test_malloc_blocks_until_sync(sim):
    ctx, _ = make_ctx(sim)
    record = {}

    def run():
        yield from ctx.malloc(1024)
        record["t"] = sim.now

    drive(sim, run())
    assert record["t"] >= V100_16GB.device_sync_latency


def test_synchronize_with_nothing_outstanding(sim):
    ctx, _ = make_ctx(sim)

    def run():
        yield from ctx.synchronize()
        yield Timeout(0.0)

    p = drive(sim, run())
    assert p.triggered


# ----------------------------------------------------------------------
# Direct backends
# ----------------------------------------------------------------------
def test_direct_backend_one_stream_per_client(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    backend.register_client("a", high_priority=False, kind="inference")
    backend.register_client("b", high_priority=True, kind="training")
    assert len(device.streams) == 2


def test_direct_backend_priority_mapping(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = PriorityStreamsBackend(sim, device)
    backend.register_client("hp", high_priority=True, kind="inference")
    backend.register_client("be", high_priority=False, kind="inference")
    priorities = {s.name: s.priority for s in device.streams}
    assert priorities["hp-stream"] == 1
    assert priorities["be-stream"] == 0


def test_duplicate_client_rejected(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    backend.register_client("a", high_priority=False, kind="inference")
    with pytest.raises(ValueError):
        backend.register_client("a", high_priority=False, kind="inference")


def test_bad_job_kind_rejected(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    with pytest.raises(ValueError):
        backend.register_client("a", high_priority=False, kind="mystery")


def test_dedicated_backend_one_device_per_client(sim):
    backend = DedicatedBackend(sim, lambda: GpuDevice(sim, V100_16GB))
    backend.register_client("a", high_priority=True, kind="inference")
    backend.register_client("b", high_priority=False, kind="training")
    assert len(backend.devices()) == 2
    assert backend.device_for("a") is not backend.device_for("b")


# ----------------------------------------------------------------------
# Outstanding-signal pruning
# ----------------------------------------------------------------------
class _ManualBackend(Backend):
    """Hands out bare completion signals that the test fires itself."""

    name = "manual"

    def register_client(self, client_id, high_priority, kind):
        return self._register(client_id, high_priority, kind)

    def submit(self, client_id, op):
        return Signal(self.sim)


@settings(max_examples=40, deadline=None)
# Past the first prune point (32 outstanding) in every example.
@given(fires=st.lists(st.booleans(), min_size=40, max_size=300))
def test_outstanding_pruning_keeps_every_pending_signal(fires):
    """Whichever ops complete at once, every pending completion signal
    stays tracked, and synchronize() waits for exactly those."""
    sim = Simulator()
    ctx = ClientContext(_ManualBackend(sim), "job", HostThread(sim))
    op = make_kernel(compute_spec())
    pending, synced = [], []

    def job():
        for fire_now in fires:
            done = yield from ctx.launch_kernel(op)
            if fire_now:
                done.trigger()
            else:
                pending.append(done)
            assert [s for s in ctx._outstanding if not s.triggered] == pending
        yield from ctx.synchronize()
        synced.append(sim.now)

    spawn(sim, job())
    issued_by = sim.run()
    times = [issued_by + 1 + i for i in range(len(pending))]
    for at, signal in zip(times, pending):
        sim.call_at(at, signal.trigger)
    if pending:
        sim.run(until=times[-1] - 0.5)
        assert synced == []
    sim.run()
    assert synced == [times[-1] if pending else issued_by]
