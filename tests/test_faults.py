"""Tests for the deterministic fault-injection layer (repro.faults)."""

import pytest

from repro.experiments.scenario import Scenario, run
from repro.faults import (
    FaultInjector,
    FaultPlan,
    KernelFault,
    KillClient,
    ProfileFault,
    TransferFault,
)
from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaErrorCode
from repro.gpu.specs import V100_16GB
from repro.metrics.availability import ErrorLedger
from repro.profiler.profiles import KernelProfile, ModelProfile, ProfileStore
from repro.runtime.client import ClientContext
from repro.runtime.direct import DirectStreamBackend
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from helpers import compute_spec, make_kernel


# ---------------------------------------------------------------------------
# Plan construction and sampling
# ---------------------------------------------------------------------------

def test_kill_event_requires_exactly_one_trigger():
    with pytest.raises(ValueError):
        KillClient("c")
    with pytest.raises(ValueError):
        KillClient("c", at_time=1.0, after_ops=5)
    assert KillClient("c", at_time=1.0).describe()
    assert KillClient("c", after_ops=5).describe()


def test_profile_fault_validates_mode():
    with pytest.raises(ValueError):
        ProfileFault("k", mode="scramble")
    assert ProfileFault("k", mode="drop").describe()


def test_timed_events_sorted_with_stable_ties():
    plan = FaultPlan((
        TransferFault(at_time=0.5),
        KernelFault("k", at_time=0.2),
        KillClient("c", after_ops=3),
        KillClient("d", at_time=0.2),
    ))
    timed = plan.timed_events()
    assert [type(e).__name__ for e in timed] == [
        "KernelFault", "KillClient", "TransferFault"]
    assert len(plan.op_triggered_kills()) == 1


def test_sample_is_deterministic():
    a = FaultPlan.sample(7, ["x", "y", "z"], kernels=["k1", "k2"],
                         horizon=2.0, max_kills=2, kernel_faults=1,
                         transfer_faults=1)
    b = FaultPlan.sample(7, ["x", "y", "z"], kernels=["k1", "k2"],
                         horizon=2.0, max_kills=2, kernel_faults=1,
                         transfer_faults=1)
    assert a == b
    assert len(a) == 4
    c = FaultPlan.sample(8, ["x", "y", "z"], horizon=2.0, max_kills=2)
    assert c != a


# ---------------------------------------------------------------------------
# Injector execution
# ---------------------------------------------------------------------------

def _simple_client(sim):
    device = GpuDevice(sim, V100_16GB)
    backend = DirectStreamBackend(sim, device)
    ctx = ClientContext(backend, "c", HostThread(sim))
    return device, backend, ctx


def test_injector_kills_at_time():
    sim = Simulator()
    _device, _backend, ctx = _simple_client(sim)
    plan = FaultPlan((KillClient("c", at_time=1e-3),))
    injector = FaultInjector(sim, plan, clients={"c": ctx}).start()
    sim.run(until=5e-3)
    assert ctx.closed
    assert injector.log and injector.log[0]["type"] == "KillClient"
    assert injector.log[0]["time"] == pytest.approx(1e-3)


def test_injector_kills_after_n_ops():
    sim = Simulator()
    _device, _backend, ctx = _simple_client(sim)
    plan = FaultPlan((KillClient("c", after_ops=3),))
    FaultInjector(sim, plan, clients={"c": ctx}).start()
    issued = []

    def job():
        for i in range(10):
            done = yield from ctx.launch_kernel(
                make_kernel(compute_spec(f"k{i}", duration=1e-4)))
            issued.append(done.error)
            yield Timeout(1e-3)

    spawn(sim, job())
    sim.run()
    assert ctx.closed
    # Exactly 3 ops issued before the kill; the rest were rejected.
    assert ctx.ops_issued == 3
    rejected = [e for e in issued if e is not None]
    assert all(e.code is CudaErrorCode.CONTEXT_POISONED for e in rejected)


def test_injector_arms_device_faults():
    sim = Simulator()
    device, _backend, ctx = _simple_client(sim)
    plan = FaultPlan((KernelFault("victim-k", at_time=1e-3),))
    FaultInjector(sim, plan, device=device, clients={"c": ctx}).start()
    record = {}

    def job():
        yield Timeout(2e-3)  # after the fault is armed
        done = yield from ctx.launch_kernel(
            make_kernel(compute_spec("victim-k", duration=1e-3)))
        yield done
        record["error"] = done.error

    spawn(sim, job())
    sim.run()
    assert record["error"].code is CudaErrorCode.LAUNCH_FAILURE
    assert device.kernels_faulted == 1


def test_injector_applies_profile_faults():
    store = ProfileStore()
    profile = ModelProfile("m", "inference", "V100-16GB", 1e-3)
    from repro.kernels.kernel import ResourceProfile

    profile.kernels["k1"] = KernelProfile("k1", 1e-3, 0.5, 0.5, 10,
                                          ResourceProfile.COMPUTE)
    profile.kernels["k2"] = KernelProfile("k2", 2e-3, 0.5, 0.5, 10,
                                          ResourceProfile.COMPUTE)
    store.add(profile)
    sim = Simulator()
    plan = FaultPlan((
        ProfileFault("k1", mode="drop"),
        ProfileFault("k2", mode="corrupt", factor=4.0),
    ))
    FaultInjector(sim, plan, profiles=store).start()
    assert store.lookup("k1") is None
    assert store.lookup("k2").duration == pytest.approx(8e-3)
    # The per-model view stays consistent with the flat lookup table.
    assert store.model("m", "inference").lookup("k1") is None
    assert store.model("m", "inference").lookup("k2").duration == \
        pytest.approx(8e-3)


# ---------------------------------------------------------------------------
# Error ledger
# ---------------------------------------------------------------------------

def test_ledger_records_and_serializes_canonically():
    ledger = ErrorLedger()
    ledger.record_served("a")
    ledger.record_served("a")
    ledger.record_failed("a")
    ledger.record_error("a", "launch_failure", 0.5)
    ledger.record_down("a", 1.0)
    ledger.record_recovered("a", 1.25)
    entry = ledger.client("a")
    assert entry.served == 2 and entry.failed == 1 and entry.restarts == 1
    assert entry.recovery_times == [pytest.approx(0.25)]
    assert ledger.total_errors() == 1
    assert ledger.availability("a", horizon=10.0) == pytest.approx(0.975)

    other = ErrorLedger()
    other.record_served("a")
    other.record_served("a")
    other.record_failed("a")
    other.record_error("a", "launch_failure", 0.5)
    other.record_down("a", 1.0)
    other.record_recovered("a", 1.25)
    assert ledger.to_json() == other.to_json()


def test_ledger_availability_with_open_downtime():
    ledger = ErrorLedger()
    ledger.record_down("a", 6.0)
    # Still down at the end of a 10s horizon: 4s of downtime.
    assert ledger.availability("a", horizon=10.0) == pytest.approx(0.6)


def test_ledger_serializes_uptime_and_recovery_fields():
    ledger = ErrorLedger()
    ledger.record_down("a", 1.0)
    ledger.record_recovered("a", 1.5)
    ledger.record_down("a", 4.0)
    ledger.record_recovered("a", 5.0)
    # Before finalize there is no horizon: uptime is unknown, but the
    # recovery-time average is already available.
    entry = ledger.client("a").to_dict()
    assert entry["uptime_fraction"] is None
    assert entry["time_to_recover"] == pytest.approx(0.75)

    ledger.finalize(10.0)
    entry = ledger.client("a").to_dict()
    assert entry["uptime_fraction"] == pytest.approx(1 - 1.5 / 10.0)
    assert entry["time_to_recover"] == pytest.approx(0.75)
    # Canonical JSON carries both fields.
    payload = ledger.to_dict()["clients"]["a"]
    assert payload["uptime_fraction"] == entry["uptime_fraction"]
    assert payload["time_to_recover"] == entry["time_to_recover"]


def test_ledger_uptime_counts_open_downtime_to_horizon():
    ledger = ErrorLedger()
    ledger.record_down("a", 6.0)
    ledger.finalize(10.0)
    entry = ledger.client("a")
    assert entry.uptime_fraction() == pytest.approx(0.6)
    assert entry.time_to_recover() is None
    # A client that never went down has full uptime.
    ledger.record_served("b")
    ledger.finalize(10.0)
    assert ledger.client("b").uptime_fraction() == pytest.approx(1.0)


def test_ledger_table_lists_clients_sorted():
    ledger = ErrorLedger()
    ledger.record_error("zeta", "client_killed", 0.1)
    ledger.record_served("alpha")
    table = ledger.format_table()
    assert table.index("alpha") < table.index("zeta")
    assert "client_killedx1" in table


# ---------------------------------------------------------------------------
# Recovery accounting in the faults scenario
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("event", [
    KernelFault("mobilenet_v2-inf-b4/relu_1", at_time=0.01, client="hp"),
    KillClient("hp", at_time=0.01),
], ids=["kernel-fault", "kill"])
def test_restart_after_crash_records_downtime(event):
    res = run(Scenario("faults", params={"duration": 0.05,
                                         "plan": FaultPlan((event,))}))
    hp = res.result.ledger.client("hp").to_dict()
    assert hp["restarts"] == 1
    # The restart is charged the down interval whatever ended the body:
    # a sticky kernel fault counts like a kill.
    assert hp["recovery_times"] and hp["downtime"] > 0
    assert hp["uptime_fraction"] < 1
    assert hp["time_to_recover"] is not None
