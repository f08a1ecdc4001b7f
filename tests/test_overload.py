"""Overload protection: bounded queues, deadlines, shedding, SLO guard."""

import json

import numpy as np
import pytest

from repro.core.scheduler import OrionBackend, OrionConfig
from repro.core.sloguard import SloGuard, SloGuardConfig
from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaError, CudaErrorCode
from repro.gpu.specs import V100_16GB
from repro.metrics.availability import ErrorLedger
from repro.profiler.profiles import KernelProfile, ModelProfile, ProfileStore
from repro.runtime.backend import SoftwareQueue
from repro.runtime.client import ClientContext
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn
from repro.workloads.arrivals import (
    BurstArrivals,
    RampArrivals,
    make_arrivals,
)

from helpers import compute_spec, make_kernel


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


def setup_backend(sim, config=None, ops=()):
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store_for(*ops),
                           config or OrionConfig(hp_request_latency=10e-3))
    hp_ctx = ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    be_ctx = ClientContext(backend, "be", HostThread(sim))
    backend.start()
    return backend, device, hp_ctx, be_ctx


# ----------------------------------------------------------------------
# SoftwareQueue bounds and hysteresis
# ----------------------------------------------------------------------
def test_queue_depth_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        SoftwareQueue(sim, "c", max_depth=0)
    with pytest.raises(ValueError):
        SoftwareQueue(sim, "c", max_depth=4, high_water=0)
    with pytest.raises(ValueError):
        SoftwareQueue(sim, "c", max_depth=4, high_water=5)


def test_queue_high_water_defaults_to_half():
    sim = Simulator()
    queue = SoftwareQueue(sim, "c", max_depth=8)
    assert queue.high_water == 4
    assert SoftwareQueue(sim, "c", max_depth=1).high_water == 1


def test_unbounded_queue_never_full():
    sim = Simulator()
    queue = SoftwareQueue(sim, "c")
    for _ in range(100):
        queue.push(make_kernel(compute_spec()))
    assert not queue.full
    assert queue.max_depth is None
    assert queue.wait_for_room().triggered


def test_queue_full_and_snapshot_counters():
    sim = Simulator()
    queue = SoftwareQueue(sim, "c", max_depth=2)
    queue.push(make_kernel(compute_spec()))
    assert not queue.full
    queue.push(make_kernel(compute_spec()))
    assert queue.full
    assert queue.reject().error.code is CudaErrorCode.QUEUE_FULL
    snap = queue.snapshot()
    assert snap == {"depth": 2, "enqueued_total": 2, "max_depth_seen": 2,
                    "rejected_total": 1, "max_depth": 2}
    queue.pop()
    assert queue.snapshot()["depth"] == 1
    assert queue.snapshot()["max_depth_seen"] == 2


def test_wait_for_room_hysteresis():
    """A blocked waiter is released at the high-water mark, not on the
    first pop — the anti-thrash hysteresis."""
    sim = Simulator()
    queue = SoftwareQueue(sim, "c", max_depth=4, high_water=2)
    for _ in range(4):
        queue.push(make_kernel(compute_spec()))
    waiter = queue.wait_for_room()
    assert not waiter.triggered
    queue.pop()          # depth 3 > high_water
    assert not waiter.triggered
    queue.pop()          # depth 2 == high_water
    assert waiter.triggered


def test_drain_releases_waiters_unconditionally():
    sim = Simulator()
    queue = SoftwareQueue(sim, "c", max_depth=2)
    queue.push(make_kernel(compute_spec()))
    queue.push(make_kernel(compute_spec()))
    waiter = queue.wait_for_room()
    assert not waiter.triggered
    drained = queue.drain()
    assert len(drained) == 2
    assert waiter.triggered


# ----------------------------------------------------------------------
# Orion reject policy (load shedding at the queue)
# ----------------------------------------------------------------------
def test_queue_full_error_is_not_sticky():
    err = CudaError(CudaErrorCode.QUEUE_FULL, "full", client_id="be")
    assert not err.sticky


def test_reject_policy_sheds_with_queue_full():
    sim = Simulator()
    op = make_kernel(compute_spec("be-k", duration=1e-3))
    config = OrionConfig(hp_request_latency=10e-3, be_queue_depth=2,
                         overload_policy="reject")
    backend, _device, _hp, be_ctx = setup_backend(sim, config, ops=[op])
    backend.suspend_be_admission()  # keep the queue from draining
    record = {}

    def run():
        signals = []
        for i in range(5):
            done = yield from be_ctx.launch_kernel(
                make_kernel(compute_spec("be-k", duration=1e-3)))
            signals.append(done)
        record["rejected"] = [s for s in signals
                              if s.error is not None
                              and s.error.code is CudaErrorCode.QUEUE_FULL]

    spawn(sim, run())
    sim.run(until=0.1)
    assert len(record["rejected"]) == 3  # depth 2 admitted, rest shed
    snap = backend.queue_telemetry()["be"]
    assert snap["rejected_total"] == 3
    assert snap["depth"] == 2
    # Non-sticky: the context stays healthy and the errors are logged.
    assert not be_ctx.poisoned
    assert len(be_ctx.errors) == 3


def test_block_policy_bounds_depth_and_wakes_on_drain():
    sim = Simulator()
    op = make_kernel(compute_spec("be-k", duration=1e-4))
    config = OrionConfig(hp_request_latency=10e-3, be_queue_depth=2,
                         overload_policy="block")
    backend, _device, _hp, be_ctx = setup_backend(sim, config, ops=[op])
    backend.suspend_be_admission()
    progress = []

    def run():
        for i in range(6):
            yield from be_ctx.launch_kernel(
                make_kernel(compute_spec("be-k", duration=1e-4)))
            progress.append((i, sim.now))

    spawn(sim, run())
    sim.run(until=5e-3)
    # The client stalls at the gate once the queue holds 2 ops.
    assert len(progress) == 2
    assert backend.queue_telemetry()["be"]["max_depth_seen"] == 2
    assert backend.queue_telemetry()["be"]["rejected_total"] == 0
    backend.resume_be_admission()
    sim.run(until=0.1)
    assert len(progress) == 6
    assert backend.queue_telemetry()["be"]["enqueued_total"] == 6


def test_blocked_client_rejected_if_closed_while_waiting():
    sim = Simulator()
    op = make_kernel(compute_spec("be-k", duration=1e-4))
    config = OrionConfig(hp_request_latency=10e-3, be_queue_depth=1,
                         overload_policy="block")
    backend, _device, _hp, be_ctx = setup_backend(sim, config, ops=[op])
    backend.suspend_be_admission()
    record = {}

    def run():
        yield from be_ctx.launch_kernel(
            make_kernel(compute_spec("be-k", duration=1e-4)))
        done = yield from be_ctx.launch_kernel(
            make_kernel(compute_spec("be-k", duration=1e-4)))
        record["second"] = done

    def killer():
        yield Timeout(1e-3)
        be_ctx.close()

    spawn(sim, run())
    spawn(sim, killer())
    sim.run(until=0.1)
    # close() drained the queue, waking the blocked client, which must
    # observe the dead context instead of submitting.
    assert record["second"].error is not None
    assert record["second"].error.code is CudaErrorCode.CONTEXT_POISONED


def test_overload_config_validation():
    with pytest.raises(ValueError):
        OrionConfig(be_queue_depth=0)
    with pytest.raises(ValueError):
        OrionConfig(overload_policy="drop-newest")
    with pytest.raises(ValueError):
        OrionConfig(hp_window=0)
    with pytest.raises(ValueError):
        OrionConfig(fallback_hp_latency=0.0)


def test_fallback_hp_latency_routed_through_config():
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, ProfileStore(),
                           OrionConfig(fallback_hp_latency=42e-3))
    assert backend.hp_request_latency == pytest.approx(42e-3)


# ----------------------------------------------------------------------
# Deadlines: backend accounting and client-side shedding
# ----------------------------------------------------------------------
def test_hp_deadline_miss_counted():
    sim = Simulator()
    op = make_kernel(compute_spec("hp-k", duration=2e-3))
    backend, _device, hp_ctx, _be = setup_backend(sim, ops=[op])
    record = {}

    def run():
        yield from hp_ctx.begin_request(deadline=sim.now + 1e-4)
        yield from hp_ctx.launch_kernel(op)
        yield from hp_ctx.synchronize()
        hp_ctx.end_request()
        record["done"] = sim.now

    spawn(sim, run())
    sim.run()
    assert record["done"] > 1e-4
    assert backend.hp_deadline_misses == 1
    assert len(backend.hp_latency_window) == 1


def test_hp_latency_window_bounded_and_cleared_on_deregister():
    sim = Simulator()
    config = OrionConfig(hp_request_latency=10e-3, hp_window=4)
    backend, _device, hp_ctx, _be = setup_backend(sim, config)
    for _ in range(10):
        backend.begin_request("hp")
        backend.end_request("hp")
    assert len(backend.hp_latency_window) == 4
    hp_ctx.close()
    assert len(backend.hp_latency_window) == 0


# ----------------------------------------------------------------------
# Adaptive SLO guard
# ----------------------------------------------------------------------
def guard_config(**overrides):
    base = dict(slo=5e-3, check_interval=1e-3, min_samples=2,
                recover_checks=2, reset_window_on_action=False)
    base.update(overrides)
    return SloGuardConfig(**base)


def feed(backend, latency, n=4):
    for _ in range(n):
        backend.hp_latency_window.append(latency)


def test_guard_config_validation():
    with pytest.raises(ValueError):
        SloGuardConfig(slo=0)
    with pytest.raises(ValueError):
        SloGuardConfig(slo=1e-3, tighten_factor=1.0)
    with pytest.raises(ValueError):
        SloGuardConfig(slo=1e-3, relax_factor=1.0)
    with pytest.raises(ValueError):
        SloGuardConfig(slo=1e-3, recover_margin=0.0)


def test_guard_tightens_then_suspends_on_sustained_breach():
    sim = Simulator()
    config = OrionConfig(hp_request_latency=10e-3, dur_threshold_frac=0.1)
    backend, _device, _hp, _be = setup_backend(sim, config)
    guard = SloGuard(sim, backend, guard_config(min_dur_frac=0.03)).start()
    feed(backend, 20e-3)
    sim.run(until=5.5e-3)
    # 0.1 -> 0.05 -> 0.03 (floor) -> suspend; further checks no-op.
    assert backend.config.dur_threshold_frac == pytest.approx(0.03)
    assert backend.be_admission_suspended
    assert backend.be_suspensions == 1
    actions = [a["action"] for a in guard.actions]
    assert actions == ["tighten", "tighten", "suspend"]
    assert guard.breaches >= 3


def test_guard_recovery_hysteresis_and_relax_cap():
    sim = Simulator()
    config = OrionConfig(hp_request_latency=10e-3, dur_threshold_frac=0.1)
    backend, _device, _hp, _be = setup_backend(sim, config)
    backend.config.dur_threshold_frac = 0.025  # as if tightened earlier
    backend.suspend_be_admission()
    guard = SloGuard(sim, backend, guard_config()).start()
    guard.baseline_dur_frac = 0.1
    feed(backend, 1e-3)  # comfortably under recover_margin * slo
    sim.run(until=20.5e-3)
    # Sequence: resume first, then relax steps of x2 capped at baseline,
    # each costing a full recover_checks streak (hysteresis).
    actions = [a["action"] for a in guard.actions]
    assert actions == ["resume", "relax", "relax"]
    assert not backend.be_admission_suspended
    assert backend.config.dur_threshold_frac == pytest.approx(0.1)


def test_guard_dead_band_holds_state():
    sim = Simulator()
    config = OrionConfig(hp_request_latency=10e-3, dur_threshold_frac=0.05)
    backend, _device, _hp, _be = setup_backend(sim, config)
    guard = SloGuard(sim, backend, guard_config()).start()
    # Between recover_margin*slo (4.25ms) and slo (5ms): the dead band.
    feed(backend, 4.6e-3)
    sim.run(until=10.5e-3)
    assert guard.actions == []
    assert backend.config.dur_threshold_frac == pytest.approx(0.05)


def test_guard_needs_min_samples():
    sim = Simulator()
    backend, _device, _hp, _be = setup_backend(sim)
    guard = SloGuard(sim, backend, guard_config(min_samples=8)).start()
    feed(backend, 50e-3, n=3)
    sim.run(until=5.5e-3)
    assert guard.actions == []
    assert guard.windowed_quantile() is None


def test_guard_resets_window_on_action():
    sim = Simulator()
    config = OrionConfig(hp_request_latency=10e-3, dur_threshold_frac=0.1)
    backend, _device, _hp, _be = setup_backend(sim, config)
    SloGuard(sim, backend, guard_config(reset_window_on_action=True)).start()
    feed(backend, 20e-3)
    sim.run(until=1.5e-3)
    # One tighten, then the stale breach samples are gone: the next
    # decision waits for fresh measurements at the new operating point.
    assert backend.config.dur_threshold_frac == pytest.approx(0.05)
    assert len(backend.hp_latency_window) == 0
    sim.run(until=5.5e-3)
    assert backend.config.dur_threshold_frac == pytest.approx(0.05)


def test_guard_actions_canonical():
    sim = Simulator()
    config = OrionConfig(hp_request_latency=10e-3, dur_threshold_frac=0.1)
    backend, _device, _hp, _be = setup_backend(sim, config)
    guard = SloGuard(sim, backend, guard_config()).start()
    feed(backend, 20e-3)
    sim.run(until=1.5e-3)
    entry = guard.actions[0]
    assert set(entry) == {"time", "action", "observed", "slo",
                          "dur_threshold_frac", "suspended"}
    json.dumps(guard.actions)  # must be serializable as-is
    assert guard.summary()["actions"] == {"tighten": 1}


# ----------------------------------------------------------------------
# Ledger: shed accounting round-trips canonically
# ----------------------------------------------------------------------
def test_ledger_records_shed_and_serializes():
    ledger = ErrorLedger()
    ledger.record_served("be-0")
    ledger.record_shed("be-0")
    ledger.record_shed("be-0")
    entry = ledger.client("be-0")
    assert entry.shed == 2
    payload = json.loads(ledger.to_json())
    assert payload["clients"]["be-0"]["shed"] == 2
    assert payload["clients"]["be-0"]["served"] == 1
    # Canonical: same recordings, byte-identical serialization.
    other = ErrorLedger()
    other.record_served("be-0")
    other.record_shed("be-0")
    other.record_shed("be-0")
    assert other.to_json() == ledger.to_json()
    assert "shed" in ledger.format_table()


# ----------------------------------------------------------------------
# Overload arrival processes
# ----------------------------------------------------------------------
def test_burst_arrivals_rates_and_determinism():
    rng = np.random.default_rng(3)
    burst = BurstArrivals(100.0, 1000.0, burst_every=0.1,
                          burst_duration=0.02, rng=rng)
    times = list(burst.arrival_times(1.0))
    assert times == sorted(times)
    assert all(0 <= t < 1.0 for t in times)
    in_burst = sum(1 for t in times if (t % 0.1) < 0.02)
    # 20% of the time at 10x the rate -> bursts dominate the count.
    assert in_burst > len(times) / 2
    again = BurstArrivals(100.0, 1000.0, burst_every=0.1,
                          burst_duration=0.02,
                          rng=np.random.default_rng(3))
    assert list(again.arrival_times(1.0)) == times
    assert burst.rate_at(0.01) == 1000.0
    assert burst.rate_at(0.05) == 100.0


def test_burst_arrivals_validation():
    with pytest.raises(ValueError):
        BurstArrivals(0.0, 10.0, 0.1, 0.02)
    with pytest.raises(ValueError):
        BurstArrivals(10.0, 10.0, 0.1, 0.2)  # burst longer than period


def test_ramp_arrivals_rate_climbs():
    rng = np.random.default_rng(5)
    ramp = RampArrivals(50.0, 500.0, rng=rng)
    times = list(ramp.arrival_times(2.0))
    assert times == sorted(times)
    first_half = sum(1 for t in times if t < 1.0)
    second_half = len(times) - first_half
    assert second_half > 1.5 * first_half
    assert ramp.rate_at(0.0, horizon=2.0) == pytest.approx(50.0)
    assert ramp.rate_at(1.0, horizon=2.0) == pytest.approx(275.0)
    assert ramp.rate_at(5.0, horizon=2.0) == pytest.approx(500.0)
    # Explicit ramp_duration holds the end rate afterwards.
    capped = RampArrivals(50.0, 500.0, ramp_duration=0.5)
    assert capped.rate_at(0.75) == 500.0


def test_make_arrivals_overload_kinds():
    burst = make_arrivals("burst", rps=100.0, burst_rps=500.0)
    assert isinstance(burst, BurstArrivals)
    ramp = make_arrivals("ramp", rps=50.0, end_rps=200.0)
    assert isinstance(ramp, RampArrivals)
    with pytest.raises(ValueError):
        make_arrivals("burst", rps=100.0)  # burst_rps required
    with pytest.raises(ValueError):
        make_arrivals("ramp", rps=100.0)  # end_rps required


# ----------------------------------------------------------------------
# Telemetry uniformity across backends
# ----------------------------------------------------------------------
TELEMETRY_KEYS = {"depth", "enqueued_total", "max_depth_seen",
                  "rejected_total", "max_depth"}


def test_queue_telemetry_uniform_across_backends():
    from repro.baselines.reef import ReefBackend
    from repro.baselines.temporal import TemporalBackend
    from repro.baselines.ticktock import TickTockBackend

    sim = Simulator()
    backends = {
        "orion": OrionBackend(sim, GpuDevice(sim, V100_16GB), ProfileStore(),
                              OrionConfig(hp_request_latency=10e-3)),
        "reef": ReefBackend(sim, GpuDevice(sim, V100_16GB)),
        "temporal": TemporalBackend(sim, GpuDevice(sim, V100_16GB)),
        "ticktock": TickTockBackend(sim, GpuDevice(sim, V100_16GB)),
    }
    for name, backend in backends.items():
        kind = "training" if name == "ticktock" else "inference"
        backend.register_client("hp", True, kind)
        backend.register_client("be", False, "training")
        if name == "temporal":
            backend.begin_request("hp")
            backend.begin_request("be")
        if name == "ticktock":
            backend.phase_marker("hp", "forward")
        snapshot = backend.queue_telemetry()
        assert snapshot, name
        for client_id, snap in snapshot.items():
            assert set(snap) == TELEMETRY_KEYS, (name, client_id)
    # Temporal: the waiting BE client reports depth 1, the holder 0.
    temporal = backends["temporal"].queue_telemetry()
    assert temporal["hp"]["depth"] == 0
    assert temporal["be"]["depth"] == 1
    # Tick-Tock: the client held at the barrier reports depth 1.
    assert backends["ticktock"].queue_telemetry()["hp"]["depth"] == 1


def _bounded_backend(name, sim):
    from repro.baselines.reef import ReefBackend

    device = GpuDevice(sim, V100_16GB)
    if name == "reef":
        return ReefBackend(sim, device, be_queue_depth=2)
    return OrionBackend(sim, device, ProfileStore(),
                        OrionConfig(be_queue_depth=2,
                                    overload_policy="reject"))


@pytest.mark.parametrize("name", ["reef", "orion"])
def test_bounded_be_queue_rejects(name):
    """Orion's reject policy and REEF's bounded queue shed through the
    same SoftwareQueue.reject: same codes, message and counter."""
    sim = Simulator()
    backend = _bounded_backend(name, sim)
    backend.register_client("be", False, "training")
    # Don't start the scheduler: pushes accumulate.
    rejected = []
    for _ in range(4):
        done = backend.submit("be", make_kernel(compute_spec()))
        if done.error is not None:
            rejected.append(done.error)
    assert [e.code for e in rejected] == [CudaErrorCode.QUEUE_FULL] * 2
    assert [(e.client_id, e.message) for e in rejected] == \
        [("be", "software queue full (depth 2/2)")] * 2
    assert backend.queue_telemetry()["be"]["rejected_total"] == 2


def test_reef_rejects_nonpositive_queue_depth():
    from repro.baselines.reef import ReefBackend

    sim = Simulator()
    with pytest.raises(ValueError):
        ReefBackend(sim, GpuDevice(sim, V100_16GB), be_queue_depth=0)
