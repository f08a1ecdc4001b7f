"""Tests for the SM_THRESHOLD binary search (§5.1.1) on the controller."""

import pytest

from repro.core.control import Controller, SmThresholdSearch
from repro.core.scheduler import OrionBackend, OrionConfig
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import ResourceProfile
from repro.profiler.profiles import KernelProfile, ModelProfile, ProfileStore
from repro.runtime.client import ClientContext
from repro.runtime.host import HostThread
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn


def model_profile(name, *sm_needed):
    """A hand-built training profile with one kernel per SM need."""
    profile = ModelProfile(name, "training", "V100-16GB", 10e-3)
    for i, sms in enumerate(sm_needed):
        kernel_id = f"{name}/k{i}"
        profile.kernels[kernel_id] = KernelProfile(
            kernel_id, 1e-3, 0.5, 0.5, sms, ResourceProfile.COMPUTE)
    return profile


def make_backend(sim, store=None):
    device = GpuDevice(sim, V100_16GB)
    backend = OrionBackend(sim, device, store or ProfileStore(),
                           OrionConfig(hp_request_latency=10e-3))
    ClientContext(backend, "hp", HostThread(sim), high_priority=True)
    backend.start()
    return backend


def run_search(sim, backend, dedicated, be_max_sm, tolerance, interval):
    search = SmThresholdSearch(dedicated, [model_profile("be", be_max_sm)],
                               tolerance=tolerance)
    return Controller(sim, backend, interval, [search]).start()


def probes(control):
    return [a for a in control.actions if a["action"] != "settle"]


def settled(control):
    [settle] = [a for a in control.actions if a["action"] == "settle"]
    return settle["sm_threshold"]


def hp_traffic(sim, backend, until):
    # Complete HP "requests" fast enough to always meet the target.
    while sim.now < until:
        backend.begin_request("hp")
        yield Timeout(0.05)
        backend.end_request("hp")


def test_tuner_config_validation():
    be = [model_profile("be", 40)]
    with pytest.raises(ValueError):
        SmThresholdSearch(10.0, be, tolerance=0.0)
    with pytest.raises(ValueError):
        SmThresholdSearch(10.0, be, tolerance=1.0)
    sim = Simulator()
    with pytest.raises(ValueError):
        Controller(sim, make_backend(sim), 0.0, [SmThresholdSearch(10.0, be)])


def test_tuner_rejects_bad_dedicated_throughput():
    with pytest.raises(ValueError):
        SmThresholdSearch(0.0, [model_profile("be", 40)])


def test_tuner_search_range_includes_largest_kernel():
    search = SmThresholdSearch(10.0, [model_profile("be", 12, 80, 40)])
    # Strict-inequality policy: search must reach max + 1.
    assert search.top == 81


def test_search_range_comes_from_best_effort_profiles_only():
    """Every zoo model on V100 has an 80-SM kernel, so the HP model's
    kernel bounding the range would go unnoticed with real profiles."""
    store = ProfileStore()
    hp_profile, be_profile = model_profile("hp", 80), model_profile("be", 8, 40)
    store.add(hp_profile)
    store.add(be_profile)
    sim = Simulator()
    backend = make_backend(sim, store)
    ClientContext(backend, "be", HostThread(sim), high_priority=False)
    search = SmThresholdSearch(10.0, [be_profile], tolerance=0.2)
    assert search.top == 41
    control = Controller(sim, backend, 0.1, [search]).start()
    spawn(sim, hp_traffic(sim, backend, 2.0))
    sim.run(until=2.0)
    assert max(p["sm_threshold"] for p in probes(control)) == 41
    assert settled(control) == 41


def test_tuner_converges_up_when_hp_unaffected():
    """If HP throughput always meets the target, the search maxes out."""
    sim = Simulator()
    backend = make_backend(sim)
    control = run_search(sim, backend, dedicated=10.0, be_max_sm=40,
                         tolerance=0.2, interval=0.1)
    spawn(sim, hp_traffic(sim, backend, 2.0))
    sim.run(until=2.0)
    assert settled(control) == 41
    assert backend.config.sm_threshold == 41
    assert all(p["action"] == "accept" for p in probes(control))


def test_tuner_converges_down_when_hp_always_degraded():
    """If HP throughput never meets the target, the search bottoms out."""
    sim = Simulator()
    backend = make_backend(sim)
    control = run_search(sim, backend, dedicated=1000.0, be_max_sm=40,
                         tolerance=0.1, interval=0.1)
    sim.run(until=2.0)
    assert settled(control) == 0
    assert backend.config.sm_threshold == 1  # clamped floor
    assert not any(p["action"] == "accept" for p in probes(control))


def test_tuner_history_records_every_probe():
    sim = Simulator()
    backend = make_backend(sim)
    control = run_search(sim, backend, dedicated=1000.0, be_max_sm=16,
                         tolerance=0.1, interval=0.05)
    sim.run(until=1.0)
    # Binary search over [0, 17] takes ~5 probes.
    assert 3 <= len(probes(control)) <= 6
    probed = [p["sm_threshold"] for p in probes(control)]
    assert len(set(probed)) == len(probed)  # no repeated probes


def test_search_started_twice_runs_one_search():
    sim = Simulator()
    backend = make_backend(sim)
    control = run_search(sim, backend, dedicated=1000.0, be_max_sm=16,
                         tolerance=0.1, interval=0.05)
    assert control.start() is control
    sim.run(until=1.0)
    # [0, 17] always rejected probes 9, 4, 2, 1 once each, then settles.
    assert [p["sm_threshold"] for p in probes(control)] == [9, 4, 2, 1]
    assert settled(control) == 0
