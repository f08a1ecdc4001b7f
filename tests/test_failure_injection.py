"""Failure-injection tests: CUDA-style error semantics, client lifecycle
management, scheduler self-healing, and property tests over random deaths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import OrionBackend, OrionConfig
from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaErrorCode
from repro.gpu.specs import V100_16GB
from repro.profiler.profiles import KernelProfile, ModelProfile, ProfileStore
from repro.runtime.backend import UnknownClientError
from repro.runtime.client import ClientContext
from repro.runtime.direct import DirectStreamBackend
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel, memory_spec


def store_for(*ops):
    store = ProfileStore()
    profile = ModelProfile("synthetic", "inference", "V100-16GB", 10e-3)
    for op in ops:
        profile.kernels[op.spec.name] = KernelProfile(
            op.spec.name, op.duration, op.compute_util, op.memory_util,
            op.sm_needed, op.profile,
        )
    store.add(profile)
    return store


def setup_orion(sim, config=None, ops=(), be_names=("be",)):
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store_for(*ops),
                           config or OrionConfig(hp_request_latency=10e-3))
    hp_ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be_ctxs = [ClientContext(backend, name, HostThread(sim))
               for name in be_names]
    backend.start()
    return backend, device, hp_ctx, be_ctxs


# ---------------------------------------------------------------------------
# CUDA-style error semantics
# ---------------------------------------------------------------------------

def test_oom_surfaces_as_explicit_error():
    """An impossible allocation completes with a non-sticky OUT_OF_MEMORY
    status — the client observes the failure, the simulation survives."""
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    ctx = ClientContext(backend, "greedy", HostThread(sim))
    record = {}

    def hog():
        done = yield from ctx.malloc(V100_16GB.memory_capacity + 1)
        record["error"] = done.error

    spawn(sim, hog())
    sim.run()
    assert record["error"] is not None
    assert record["error"].code is CudaErrorCode.OUT_OF_MEMORY
    assert not record["error"].sticky
    assert not ctx.poisoned  # OOM is retryable, not context-corrupting
    assert device.oom_failures == 1


def test_two_jobs_overflowing_capacity_fail_on_second_malloc():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    a = ClientContext(backend, "a", HostThread(sim))
    b = ClientContext(backend, "b", HostThread(sim))
    two_thirds = int(V100_16GB.memory_capacity * 2 / 3)
    errors = {}

    def job(name, ctx):
        done = yield from ctx.malloc(two_thirds)
        errors[name] = done.error

    spawn(sim, job("a", a))
    spawn(sim, job("b", b))
    sim.run()
    failed = [e for e in errors.values() if e is not None]
    assert len(failed) == 1
    assert failed[0].code is CudaErrorCode.OUT_OF_MEMORY
    assert device.memory.used == two_thirds  # first job's state intact


def test_kernel_fault_poisons_context_and_reset_recovers():
    """A faulting kernel is a sticky error: subsequent ops complete
    immediately with CONTEXT_POISONED until reset() (cudaDeviceReset)."""
    sim = Simulator()
    bad = make_kernel(compute_spec("hp-bad", duration=1e-3))
    backend, device, hp_ctx, _ = setup_orion(sim, ops=[bad])
    device.arm_kernel_fault("hp-bad", client_id="hp")
    record = {}

    def run():
        done = yield from hp_ctx.launch_kernel(bad)
        yield done
        record["fault"] = done.error
        rejected = yield from hp_ctx.launch_kernel(
            make_kernel(compute_spec("hp-after", duration=1e-4)))
        record["rejected"] = rejected.error
        hp_ctx.reset()
        ok = yield from hp_ctx.launch_kernel(
            make_kernel(compute_spec("hp-retry", duration=1e-4)))
        yield ok
        record["after_reset"] = ok.error

    spawn(sim, run())
    sim.run()
    assert record["fault"].code is CudaErrorCode.LAUNCH_FAILURE
    assert record["fault"].sticky
    assert record["rejected"].code is CudaErrorCode.CONTEXT_POISONED
    assert record["after_reset"] is None
    assert device.kernels_faulted == 1
    assert hp_ctx.errors  # history survives reset()


def test_transfer_fault_is_sticky():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    ctx = ClientContext(backend, "c", HostThread(sim))
    device.arm_transfer_fault()
    record = {}

    def run():
        from repro.kernels.kernel import MemoryOpKind

        done = yield from ctx.memcpy(1 << 20, MemoryOpKind.MEMCPY_H2D)
        record["error"] = done.error

    spawn(sim, run())
    sim.run()
    assert record["error"].code is CudaErrorCode.TRANSFER_FAILURE
    assert ctx.poisoned
    assert device.transfers_faulted == 1


# ---------------------------------------------------------------------------
# Client lifecycle: deregistration and self-healing
# ---------------------------------------------------------------------------

def test_orion_deregister_drains_queue_and_errors_signals():
    """Killing a BE client errors its pending ops with CLIENT_KILLED,
    frees its state, and the scheduler keeps serving the HP client."""
    sim = Simulator()
    kernels = [make_kernel(memory_spec(f"be{i}", duration=5e-4))
               for i in range(40)]
    backend, device, hp_ctx, (be_ctx,) = setup_orion(sim, ops=kernels)
    signals = []
    record = {}

    def be_job():
        for op in kernels:
            done = yield from be_ctx.launch_kernel(op)
            signals.append(done)

    def hp_job():
        yield Timeout(4e-3)
        done = yield from hp_ctx.launch_kernel(
            make_kernel(compute_spec("hp-k", duration=1e-3)))
        yield done
        record["hp_error"] = done.error

    spawn(sim, be_job())
    spawn(sim, hp_job())
    sim.call_at(2e-3, lambda: be_ctx.close())
    sim.run()
    assert record["hp_error"] is None
    assert backend.clients_deregistered == 1
    killed = [s for s in signals
              if s.error is not None
              and s.error.code is CudaErrorCode.CLIENT_KILLED]
    assert killed  # queued ops did not vanish silently
    assert be_ctx.poisoned and be_ctx.closed
    # The dead client's allocations were released.
    assert device.memory.client_usage("be") == 0
    with pytest.raises(UnknownClientError):
        backend.deregister_client("be")


def test_hp_kill_vacates_slot_for_successor():
    """Killing the HP client mid-run lets a successor register as HP and
    serve on the re-acquired priority stream."""
    sim = Simulator()
    backend, device, hp_ctx, (be_ctx,) = setup_orion(sim)
    record = {}

    def first_hp():
        for i in range(20):
            done = yield from hp_ctx.launch_kernel(
                make_kernel(compute_spec(f"hp1-{i}", duration=5e-4)))
            yield Timeout(2e-4)

    def successor():
        yield Timeout(3e-3)  # after the kill
        hp2 = ClientContext(backend, "hp2", HostThread(sim),
                            high_priority=True)
        done = yield from hp2.launch_kernel(
            make_kernel(compute_spec("hp2-k", duration=1e-3)))
        yield done
        record["hp2_error"] = done.error
        record["hp2_done"] = sim.now

    spawn(sim, first_hp())
    spawn(sim, successor())
    sim.call_at(2e-3, lambda: hp_ctx.close())
    sim.run()
    assert record["hp2_error"] is None
    assert "hp2_done" in record
    assert backend.clients_deregistered == 1


def test_unknown_client_error_from_submit():
    sim = Simulator()
    backend, _device, _hp, _ = setup_orion(sim)
    op = make_kernel(compute_spec("ghost-k", duration=1e-4))
    with pytest.raises(UnknownClientError) as excinfo:
        backend.submit("ghost", op)
    assert "ghost" in str(excinfo.value)
    assert "orion" in str(excinfo.value)
    assert isinstance(excinfo.value, KeyError)  # backward compatible


def test_watchdog_flags_overdue_be_kernels():
    """With a corrupted (under-reported) profile the watchdog flags BE
    kernels running far beyond their expected duration."""
    sim = Simulator()
    slow = make_kernel(memory_spec("be-slow", duration=4e-3))
    config = OrionConfig(hp_request_latency=10e-3, watchdog_multiple=3.0)
    device = GpuDevice(sim, V100_16GB)
    store = store_for(slow)
    # Profile now claims the kernel is 100x faster than it is.
    assert store.corrupt("be-slow", factor=0.01)
    backend = OrionBackend(sim, device, store, config)
    ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be_ctx = ClientContext(backend, "be", HostThread(sim))
    backend.start()

    def be_job():
        done = yield from be_ctx.launch_kernel(slow)
        yield done

    spawn(sim, be_job())
    sim.run()
    assert backend.watchdog_flags
    flag = backend.watchdog_flags[0]
    assert flag["client"] == "be"
    assert flag["kernel"] == "be-slow"
    assert flag["overdue_by"] > 0


def test_temporal_lock_released_when_holder_dies():
    """Temporal sharing: a dead slice holder must not wedge survivors."""
    from repro.baselines.temporal import TemporalBackend

    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = TemporalBackend(sim, device)
    victim = ClientContext(backend, "victim", HostThread(sim))
    survivor = ClientContext(backend, "survivor", HostThread(sim))
    record = {}

    def victim_job():
        yield from victim.begin_request()
        yield Timeout(1.0)  # would hold the GPU forever

    def survivor_job():
        yield Timeout(1e-4)
        yield from survivor.begin_request()
        done = yield from survivor.launch_kernel(
            make_kernel(compute_spec("s-k", duration=1e-4)))
        yield done
        survivor.end_request()
        record["done"] = sim.now

    spawn(sim, victim_job())
    spawn(sim, survivor_job())
    sim.call_at(1e-3, lambda: victim.close())
    sim.run(until=0.1)
    assert record["done"] < 2e-3


def test_temporal_waiter_death_is_cancelled():
    from repro.baselines.temporal import TemporalBackend

    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = TemporalBackend(sim, device)
    holder = ClientContext(backend, "holder", HostThread(sim))
    waiter = ClientContext(backend, "waiter", HostThread(sim))

    def holder_job():
        yield from holder.begin_request()
        yield Timeout(5e-3)
        holder.end_request()

    def waiter_job():
        yield Timeout(1e-4)
        yield from waiter.begin_request()

    spawn(sim, holder_job())
    spawn(sim, waiter_job())
    # The waiter dies while queued for the lock.
    sim.call_at(1e-3, lambda: waiter.close())
    sim.run(until=0.1)
    assert not backend._gpu_lock.locked  # released cleanly, no dead grant


def test_ticktock_barrier_released_when_partner_dies():
    from repro.baselines.ticktock import TickTockBackend

    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = TickTockBackend(sim, device)
    a = ClientContext(backend, "a", HostThread(sim), kind="training")
    b = ClientContext(backend, "b", HostThread(sim), kind="training")
    record = {}

    def job_a():
        yield from a.phase("forward")  # blocks: b never arrives
        record["a_released"] = sim.now

    def job_b():
        yield Timeout(1.0)

    spawn(sim, job_a())
    spawn(sim, job_b())
    sim.call_at(1e-3, lambda: b.close())
    sim.run(until=0.1)
    assert "a_released" in record
    assert record["a_released"] < 2e-3


# ---------------------------------------------------------------------------
# Pre-existing survivability tests
# ---------------------------------------------------------------------------

def test_interrupted_client_does_not_wedge_the_device():
    """Killing a client mid-request leaves its committed kernels to
    finish but the device keeps serving other clients."""
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    victim = ClientContext(backend, "victim", HostThread(sim))
    survivor = ClientContext(backend, "survivor", HostThread(sim))
    record = {}

    def victim_job():
        for i in range(100):
            yield from victim.launch_kernel(
                make_kernel(memory_spec(f"v{i}", duration=1e-4))
            )
            yield Timeout(5e-5)

    def survivor_job():
        yield Timeout(2e-3)  # after the victim dies
        yield from survivor.launch_kernel(
            make_kernel(compute_spec("s", duration=1e-3))
        )
        yield from survivor.synchronize()
        record["done"] = sim.now

    victim_proc = spawn(sim, victim_job())
    spawn(sim, survivor_job())
    sim.call_at(1e-3, lambda: victim_proc.interrupt("client crashed"))
    sim.run()
    assert not victim_proc.alive
    assert "done" in record


def test_interrupted_be_client_does_not_wedge_orion():
    """Orion keeps scheduling the HP job after a BE client dies with
    ops still in its software queue."""
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, ProfileStore(),
                           OrionConfig(hp_request_latency=10e-3))
    hp = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be = ClientContext(backend, "be", HostThread(sim))
    backend.start()
    record = {}

    def be_job():
        for i in range(50):
            yield from be.launch_kernel(
                make_kernel(memory_spec(f"be{i}", duration=2e-4))
            )

    def hp_job():
        yield Timeout(2e-3)
        yield from hp.launch_kernel(
            make_kernel(compute_spec("hp-k", duration=1e-3))
        )
        yield from hp.synchronize()
        record["hp_done"] = sim.now

    be_proc = spawn(sim, be_job())
    spawn(sim, hp_job())
    sim.call_at(1e-3, lambda: be_proc.interrupt())
    sim.run()
    assert "hp_done" in record
    # Orphaned BE kernels already in the queue drained harmlessly.
    assert backend.be_kernels_launched > 0


def test_device_survives_burst_of_many_streams():
    """128 streams each firing a kernel exercises the concurrency cap."""
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    streams = [device.create_stream() for _ in range(128)]
    done = []

    def run():
        signals = []
        for i, stream in enumerate(streams):
            signals.append(stream.submit(
                make_kernel(memory_spec(f"m{i}", duration=1e-4, blocks=8))
            ))
        for signal in signals:
            yield signal
        done.append(sim.now)

    spawn(sim, run())
    sim.run()
    assert done
    assert device.kernels_completed == 128


# ---------------------------------------------------------------------------
# Property test: random client deaths
# ---------------------------------------------------------------------------

class _RecordingOrion(OrionBackend):
    """Orion backend that logs every successful BE launch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.launch_log = []

    def _try_launch_be(self, client_id):
        launched = super()._try_launch_be(client_id)
        if launched:
            self.launch_log.append((self.sim.now, client_id))
        return launched


@settings(max_examples=15, deadline=None)
@given(kills=st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.floats(min_value=5e-4, max_value=8e-3)),
    min_size=1, max_size=3, unique_by=lambda kv: kv[0]))
def test_random_client_deaths_never_launch_dead_be_work(kills):
    """Whatever subset of BE clients dies, whenever: the scheduler never
    launches a dead client's kernel afterwards, and the launch/defer
    counters stay consistent with the observed launches."""
    sim = Simulator()
    be_names = [f"be{i}" for i in range(3)]
    kernels = {
        name: [make_kernel(memory_spec(f"{name}-k{j}", duration=3e-4),
                           client_id=name)
               for j in range(25)]
        for name in be_names
    }
    all_ops = [op for ops in kernels.values() for op in ops]
    device = GpuDevice(sim, V100_16GB)
    backend = _RecordingOrion(sim, device, store_for(*all_ops),
                              OrionConfig(hp_request_latency=10e-3))
    hp_ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be_ctxs = {name: ClientContext(backend, name, HostThread(sim))
               for name in be_names}
    backend.start()

    def be_job(name):
        for op in kernels[name]:
            yield from be_ctxs[name].launch_kernel(op)
            yield Timeout(1e-4)

    def hp_job():
        for i in range(5):
            yield from hp_ctx.launch_kernel(
                make_kernel(compute_spec(f"hp{i}", duration=2e-4),
                            client_id="hp"))
            yield Timeout(1.5e-3)

    for name in be_names:
        spawn(sim, be_job(name))
    spawn(sim, hp_job())
    kill_times = {}
    for index, at in kills:
        name = be_names[index]
        kill_times[name] = at
        sim.call_at(at, lambda n=name: be_ctxs[n].close())
    sim.run()

    for name, at in kill_times.items():
        late = [t for t, client in backend.launch_log
                if client == name and t > at]
        assert not late, f"dead client {name} launched at {late}"
    assert backend.be_kernels_launched == len(backend.launch_log)
    assert backend.be_kernels_deferred >= 0
    assert backend.clients_deregistered == len(kill_times)
    total_issued = sum(ctx.ops_issued for ctx in be_ctxs.values())
    assert backend.be_kernels_launched <= total_issued
