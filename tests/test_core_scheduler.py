"""Behavioural tests for the Orion scheduler backend on synthetic kernels."""

import pytest

from repro.core.scheduler import OrionBackend, OrionConfig
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import MemoryOpKind
from repro.profiler.profiles import KernelProfile, ProfileStore
from repro.runtime.client import ClientContext
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel, memory_spec


def store_for(*ops):
    store = ProfileStore()
    from repro.profiler.profiles import ModelProfile

    profile = ModelProfile("synthetic", "inference", "V100-16GB", 10e-3)
    for op in ops:
        profile.kernels[op.spec.name] = KernelProfile(
            op.spec.name, op.duration, op.compute_util, op.memory_util,
            op.sm_needed, op.profile,
        )
    store.add(profile)
    return store


def setup_backend(sim, config=None, ops=()):
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store_for(*ops),
                           config or OrionConfig(hp_request_latency=10e-3))
    hp_ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be_ctx = ClientContext(backend, "be", HostThread(sim))
    backend.start()
    return backend, device, hp_ctx, be_ctx


def test_single_hp_client_enforced():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, ProfileStore())
    ClientContext(backend, "hp1", HostThread(sim), high_priority=True)
    with pytest.raises(ValueError):
        ClientContext(backend, "hp2", HostThread(sim), high_priority=True)


def test_hp_kernels_forwarded_immediately():
    sim = Simulator()
    op = make_kernel(compute_spec("hp-k", duration=1e-3))
    backend, device, hp_ctx, _ = setup_backend(sim, ops=[op])
    record = {}

    def run():
        yield from hp_ctx.launch_kernel(op)
        yield from hp_ctx.synchronize()
        record["t"] = sim.now

    spawn(sim, run())
    sim.run()
    assert record["t"] == pytest.approx(1e-3, rel=0.05)


def test_be_kernel_runs_when_hp_idle():
    sim = Simulator()
    op = make_kernel(memory_spec("be-k", duration=1e-3))
    backend, device, _, be_ctx = setup_backend(sim, ops=[op])
    record = {}

    def run():
        yield from be_ctx.launch_kernel(op)
        yield from be_ctx.synchronize()
        record["t"] = sim.now

    spawn(sim, run())
    sim.run()
    assert record["t"] == pytest.approx(1e-3, rel=0.05)
    assert backend.be_kernels_launched == 1


def test_same_profile_be_deferred_until_hp_done():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))
    be_op = make_kernel(compute_spec("be-k", duration=1e-4, sms=160))
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op, be_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()
        record["hp_end"] = sim.now

    def be():
        yield Timeout(1e-4)  # arrive while HP is running
        yield from be_ctx.launch_kernel(be_op)
        yield from be_ctx.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    # BE (compute) could not collocate with HP (compute): it waited.
    assert record["be_end"] >= record["hp_end"]
    assert backend.be_kernels_deferred > 0


def test_opposite_profile_be_collocates():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))
    be_op = make_kernel(memory_spec("be-k", duration=1e-4, blocks=64))
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op, be_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()
        record["hp_end"] = sim.now

    def be():
        yield Timeout(1e-4)
        yield from be_ctx.launch_kernel(be_op)
        yield from be_ctx.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    # Memory-bound BE ran inside the HP window instead of after it.
    assert record["be_end"] < record["hp_end"]


def test_sm_threshold_blocks_large_be():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=2e-3, sms=160))
    be_op = make_kernel(memory_spec("be-k", duration=1e-4, blocks=4096))
    assert be_op.sm_needed >= 80
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op, be_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()
        record["hp_end"] = sim.now

    def be():
        yield Timeout(1e-4)
        yield from be_ctx.launch_kernel(be_op)
        yield from be_ctx.synchronize()
        record["be_end"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    assert record["be_end"] >= record["hp_end"]


def test_duration_throttle_limits_outstanding_be():
    sim = Simulator()
    # Budget = 2.5% x 10 ms = 250 us; kernels of 200 us each.
    ops = [make_kernel(memory_spec(f"be-{i}", duration=2e-4, blocks=64))
           for i in range(10)]
    backend, device, _, be_ctx = setup_backend(sim, ops=ops)
    max_resident = {"n": 0}

    def be():
        for op in ops:
            yield from be_ctx.launch_kernel(op)
        yield from be_ctx.synchronize()

    def monitor():
        for _ in range(500):
            max_resident["n"] = max(max_resident["n"], len(device.running))
            yield Timeout(1e-5)

    spawn(sim, be())
    spawn(sim, monitor())
    sim.run()
    # The throttle drains the pipeline every ~2 kernels; the whole batch
    # must never be committed at once (stream serializes anyway, but the
    # *outstanding* count stays near the budget).
    assert backend.be_kernels_launched == 10
    assert backend.be_kernels_deferred > 0


def test_memory_ops_bypass_policy():
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=5e-3, sms=160))
    backend, device, hp_ctx, be_ctx = setup_backend(sim, ops=[hp_op])
    record = {}

    def hp():
        yield from hp_ctx.launch_kernel(hp_op)
        yield from hp_ctx.synchronize()

    def be():
        yield Timeout(1e-4)
        yield from be_ctx.memcpy(1000, MemoryOpKind.MEMCPY_H2D, blocking=True)
        record["copy_done"] = sim.now

    spawn(sim, hp())
    spawn(sim, be())
    sim.run()
    # The copy completed long before the HP kernel finished.
    assert record["copy_done"] < 5e-3


def test_round_robin_across_be_clients():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    ops = {name: make_kernel(memory_spec(f"{name}-k", duration=1e-4, blocks=64),
                             client_id=name)
           for name in ("be1", "be2", "be3")}
    backend = OrionBackend(sim, device, store_for(*ops.values()),
                           OrionConfig(hp_request_latency=1.0))
    ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    ctxs = {name: ClientContext(backend, name, HostThread(sim))
            for name in ops}
    backend.start()
    finish = {}

    def client(name):
        yield from ctxs[name].launch_kernel(ops[name])
        yield from ctxs[name].synchronize()
        finish[name] = sim.now

    for name in ops:
        spawn(sim, client(name))
    sim.run()
    assert set(finish) == {"be1", "be2", "be3"}


def test_hp_latency_ewma_fallback():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, ProfileStore(), OrionConfig())
    ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    backend.start()
    op = make_kernel(compute_spec("k", duration=2e-3))

    def run():
        yield from ctx.begin_request()
        yield from ctx.launch_kernel(op)
        yield from ctx.synchronize()
        ctx.end_request()

    spawn(sim, run())
    sim.run()
    assert backend.hp_requests_completed == 1
    assert backend.hp_request_latency == pytest.approx(2e-3, rel=0.1)


def test_unprofiled_kernel_counts_miss_and_treated_unknown():
    sim = Simulator()
    backend, device, _, be_ctx = setup_backend(sim, ops=[])
    op = make_kernel(memory_spec("never-profiled", duration=1e-4, blocks=64))

    def run():
        yield from be_ctx.launch_kernel(op)
        yield from be_ctx.synchronize()

    spawn(sim, run())
    sim.run()
    assert backend.profile_misses >= 1
    assert backend.be_kernels_launched == 1


def test_interception_overhead_positive():
    sim = Simulator()
    backend, *_ = setup_backend(sim)
    assert 0 < backend.interception_overhead() < 2e-6


def _blocked_head_backend():
    """An HP compute kernel on the GPU in a declared prefill phase, and
    one queued BE memory kernel "be-k" (profiled 100 us, within the
    250 us budget) held by prefill protection after the first pass has
    looked its profile up."""
    sim = Simulator()
    hp_op = make_kernel(compute_spec("hp-k", duration=1e-3))
    be_op = make_kernel(memory_spec("be-k", duration=1e-4, blocks=64))
    # Without a profile the scheduler falls back to the op's own figures:
    # a 1 ms duration, over the budget while the HP kernel runs.
    be_op.duration = 1e-3
    store = store_for(hp_op, make_kernel(memory_spec("be-k", duration=1e-4,
                                                     blocks=64)))
    backend = OrionBackend(sim, GpuDevice(sim, V100_16GB), store,
                           OrionConfig(hp_request_latency=10e-3))
    backend.register_client("hp", True, "inference")
    backend.register_client("be", False, "training")
    backend.start()
    backend.phase_marker("hp", "prefill")
    backend.submit("hp", hp_op)
    backend.submit("be", be_op)
    sim.step()  # first pass: HP forwarded, BE head checked and held
    assert backend.prefill_deferrals > 0
    assert backend.profile_misses == 0
    assert backend.be_kernels_launched == 0
    return backend, store


def test_profile_drop_on_queued_head_is_seen_by_next_check():
    backend, store = _blocked_head_backend()
    deferred = backend.be_kernels_deferred
    assert store.drop("be-k")
    backend.phase_marker("hp", "decode")  # wakes: one check
    # The fallback profile (1 ms) is over budget: with the stale cached
    # 100 us profile the kernel would have been admitted.
    assert backend.be_kernels_launched == 0
    assert backend.profile_misses == 1
    for checks in (2, 3):
        backend._wake_scheduler()
        assert backend.profile_misses == checks  # one miss per check
    assert backend.be_kernels_deferred == deferred + 3


def test_profile_corrupt_on_queued_head_is_seen_by_next_check():
    backend, store = _blocked_head_backend()
    deferred = backend.be_kernels_deferred
    assert store.corrupt("be-k", factor=10.0)  # 100 us -> 1 ms
    backend.phase_marker("hp", "decode")
    assert backend.be_kernels_launched == 0
    assert backend.be_kernels_deferred == deferred + 1
    assert backend.profile_misses == 0
    # Restoring a good profile re-admits on the next check.
    assert store.corrupt("be-k", factor=0.1)
    backend._wake_scheduler()
    assert backend.be_kernels_launched == 1
    assert backend.profile_misses == 0


def test_wakes_before_first_pass_fold_into_it():
    sim = Simulator()
    op = make_kernel(memory_spec("be-k", duration=1e-4))
    backend = OrionBackend(sim, GpuDevice(sim, V100_16GB), store_for(op),
                           OrionConfig(hp_request_latency=10e-3))
    backend.register_client("be", False, "training")
    backend.start()
    backend.submit("be", op)  # wakes, but the first pass has not run
    assert backend.be_kernels_launched == 0
    assert sim.step()  # the first pass is one zero-delay event
    assert backend.be_kernels_launched == 1


def test_wake_during_a_pass_is_dropped():
    sim = Simulator()
    backend, *_ = setup_backend(sim)
    sim.run()  # the first pass
    passes = []
    run_pass = backend._scheduler_pass

    def pass_that_wakes():
        passes.append(sim.now)
        backend._wake_scheduler()  # e.g. a completion fired mid-pass
        run_pass()

    backend._scheduler_pass = pass_that_wakes
    backend._wake_scheduler()
    backend._wake_scheduler()
    assert len(passes) == 2  # one pass per outside wake, none nested
