"""Tests for live migration & rebalancing (repro.cluster.migration)."""

import pytest

from repro.cluster.fleet import FleetJob
from repro.cluster.migration import (
    InterferenceTracker,
    MigrationController,
    MigrationCostModel,
)
from repro.experiments.params import FleetParams
from repro.experiments.runner import get_profile
from repro.experiments.scenario import Scenario, run
from repro.experiments.testbed import Testbed
from repro.faults import FaultPlan, GpuCrash, GpuDegrade

NO_FAULTS = FaultPlan(())

# Two GPUs, hp + one BE tenant packed adversarially onto gpu0, light
# load so the first re-plan tick proposes the obvious spread move.
SMALL = dict(seed=0, duration=0.1, num_gpus=2, be_tenants=1,
             plan=NO_FAULTS, placement="adversarial", rebalance=True,
             rebalance_interval=0.02, migration_min_gain=0.01,
             migration_cost_weight=0.1, hp_load=0.15, be_load=0.15)


def run_fleet(**params):
    """Run a fleet scenario through the Scenario API."""
    return run(Scenario(kind="fleet", params=params)).result


def _testbed() -> Testbed:
    """A V100 testbed with mobilenet_v2's inference profile, for
    building a Fleet by hand."""
    testbed = Testbed.build("V100-16GB", seed=0)
    testbed.store.add(get_profile("mobilenet_v2", "inference",
                                  testbed.device_spec))
    return testbed


def accounted(result):
    return sum(len(s.records) + s.shed + s.failed + s.dropped
               for s in result.jobs.values())


# ---------------------------------------------------------------------------
# Policy / cost model / tracker units


def test_migration_policy_validation():
    with pytest.raises(ValueError):
        FleetParams(rebalance_interval=0.0)
    with pytest.raises(ValueError):
        FleetParams(migration_cooldown=-1.0)
    with pytest.raises(ValueError):
        FleetParams(max_inflight_migrations=0)
    with pytest.raises(ValueError):
        FleetParams(migration_min_gain=-0.1)
    with pytest.raises(ValueError):
        FleetParams(measure_window=0)


def test_cost_model_components():
    model = MigrationCostModel(rewarm_bandwidth=1e9)
    assert model.drain_seconds(4, 0.002) == pytest.approx(0.008)
    assert model.rewarm_seconds(2_000_000_000) == pytest.approx(2.0)
    assert model.cost_seconds(4, 0.002, 1_000_000_000) == pytest.approx(1.008)


def test_interference_tracker_symmetry_and_min_samples():
    tracker = InterferenceTracker(window=8, min_samples=3)
    tracker.observe("a", "b", 0.5)
    tracker.observe("b", "a", 0.7)  # same unordered pair
    assert tracker.sample_count("a", "b") == 2
    assert tracker.measured("a", "b") is None  # below min_samples
    tracker.observe("a", "b", 0.3)
    assert tracker.measured("a", "b") == pytest.approx(0.5)
    assert tracker.measured("b", "a") == pytest.approx(0.5)  # symmetric


def test_interference_tracker_window_and_clamping():
    tracker = InterferenceTracker(window=2, min_samples=1)
    tracker.observe("a", "b", -1.0)  # negative excess clamps to zero
    assert tracker.measured("a", "b") == 0.0
    tracker.observe("a", "b", 1.0)
    tracker.observe("a", "b", 3.0)  # rolls the first sample out
    assert tracker.measured("a", "b") == pytest.approx(2.0)


def test_controller_requires_single_home_fleet():
    result = run_fleet(seed=0, duration=0.02, num_gpus=2,
                                plan=NO_FAULTS)
    assert result.migration == {}
    with pytest.raises(ValueError):
        run_fleet(seed=0, duration=0.02, num_gpus=2,
                           plan=NO_FAULTS, rebalance=True)  # placement="all"


def test_unknown_placement_rejected():
    with pytest.raises(ValueError):
        run_fleet(seed=0, duration=0.02, num_gpus=2,
                           plan=NO_FAULTS, placement="bogus")


# ---------------------------------------------------------------------------
# Happy path: an adversarial packing is unwound online


def test_adversarial_packing_is_unwound():
    result = run_fleet(**SMALL)
    mig = result.migration
    assert mig["started"] >= 1
    assert mig["completed"] >= 1
    assert mig["net_predicted_gain"] > 0
    record = mig["records"][0]
    assert record["outcome"] == "completed"
    assert record["src"] != record["dst"]
    # Full state-machine trajectory, in order.
    states = [s for _, s in record["transitions"]]
    assert states == ["planned", "cordoned", "draining", "moving",
                      "rewarming", "completed"]
    # At-most-once accounting through the move.
    assert accounted(result) == result.routing["submitted"]


def test_migration_decisions_fold_into_routing_digest():
    with_migration = run_fleet(**SMALL)
    without = run_fleet(**{**SMALL, "rebalance": False})
    assert with_migration.routing["migrations"] > 0
    assert without.routing["migrations"] == 0
    assert with_migration.routing["digest"] != without.routing["digest"]


def test_same_seed_rebalance_replay_byte_identical():
    params = dict(SMALL)
    a = run(Scenario(kind="fleet", params=params)).to_json()
    b = run(Scenario(kind="fleet", params=params)).to_json()
    assert a == b


def test_fleet_rebalance_named_scenario():
    from repro.experiments.registry import make_scenario

    scenario = make_scenario("fleet_rebalance", seed=3, duration=0.05)
    assert scenario.params["rebalance"] is True
    assert scenario.params["placement"] == "adversarial"


# ---------------------------------------------------------------------------
# Rollback / re-route under faults mid-migration


def test_destination_degrade_mid_rewarm_rolls_back():
    # The no-fault run migrates be-0 from gpu0 to gpu1 at t=0.02 and
    # re-warms for ~14 us; degrading the destination inside that window
    # must unwind the move back to the (still healthy) source.
    plan = FaultPlan((GpuDegrade(gpu=1, at_time=0.02001, slowdown=3.0),))
    result = run_fleet(**{**SMALL, "plan": plan})
    mig = result.migration
    assert mig["rolled_back"] >= 1
    record = next(r for r in mig["records"] if r["outcome"] == "rolled-back")
    assert record["final_gpu"] == record["src"]
    assert accounted(result) == result.routing["submitted"]


def test_destination_crash_mid_rewarm_recovers_safely():
    plan = FaultPlan((GpuCrash(gpu=1, at_time=0.02001),))
    result = run_fleet(**{**SMALL, "plan": plan})
    mig = result.migration
    # The destination died mid-move: the move must not complete onto
    # it, and no job may be lost or duplicated in the confusion.
    assert mig["rolled_back"] + mig["rerouted"] >= 1
    for record in mig["records"]:
        assert record["final_gpu"] != 1 or record["outcome"] == "failed"
    assert accounted(result) == result.routing["submitted"]


def test_source_crash_rehomes_tenants():
    # No rebalancing: crash the only home of the packed tenants and
    # check the fleet re-homes them instead of starving their backlog.
    plan = FaultPlan((GpuCrash(gpu=0, at_time=0.03),))
    result = run_fleet(**{**SMALL, "plan": plan,
                                   "rebalance": False})
    assert result.report["failover"]["re_homed"] >= 1
    # Tenants keep getting served after the crash (on the new home).
    served_after = sum(1 for s in result.jobs.values()
                       for r in s.records if r.end > 0.03)
    assert served_after > 0
    assert accounted(result) == result.routing["submitted"]


# ---------------------------------------------------------------------------
# Hysteresis


def test_cooldown_and_max_inflight_bound_migrations():
    # An aggressive tick interval with a long cooldown must not thrash:
    # each tenant moves at most once per cooldown window.
    params = {**SMALL, "duration": 0.2, "rebalance_interval": 0.005,
              "migration_cooldown": 1.0, "max_inflight_migrations": 1}
    result = run_fleet(**params)
    mig = result.migration
    per_tenant = {}
    for record in mig["records"]:
        per_tenant[record["tenant"]] = \
            per_tenant.get(record["tenant"], 0) + 1
    # Cooldown longer than the horizon: one move per tenant, ever.
    assert all(count <= 1 for count in per_tenant.values())
    assert mig["ticks"] > mig["started"]


def test_min_gain_threshold_suppresses_marginal_moves():
    result = run_fleet(**{**SMALL, "migration_min_gain": 1e9})
    assert result.migration["started"] == 0


# ---------------------------------------------------------------------------
# Router drain APIs (satellite: no private _backlog poking)


def test_router_drain_backlog_public_api():
    from repro.cluster.fleet import Fleet, TenantSpec

    testbed = _testbed()
    fleet = Fleet(testbed, 1, [TenantSpec("t", rps=10.0)])
    router = fleet.router
    # No workers booted: submissions pile up in the backlog.
    for seq in range(3):
        router.submit(FleetJob("t", seq, 0.0))
    assert router.backlog_size() == 3
    jobs = router.drain_backlog()
    assert [j.seq for j in jobs] == [0, 1, 2]
    assert router.backlog_size() == 0
    assert router.drain_backlog() == []
    assert router.drain_backoff() == []


def test_cordon_uncordon_roundtrip():
    from repro.cluster.fleet import Fleet, TenantSpec

    testbed = _testbed()
    fleet = Fleet(testbed, 2, [TenantSpec("t", rps=10.0)])
    router = fleet.router
    assert not router.is_cordoned("t", 0)
    router.cordon("t", 0)
    assert router.is_cordoned("t", 0)
    assert not router.is_cordoned("t", 1)
    router.uncordon("t", 0)
    assert not router.is_cordoned("t", 0)


def test_assignment_validation():
    from repro.cluster.fleet import Fleet, TenantSpec

    testbed = _testbed()
    tenants = [TenantSpec("t", rps=10.0)]
    with pytest.raises(ValueError):
        Fleet(testbed, 2, tenants, assignment={})  # missing t
    with pytest.raises(ValueError):
        Fleet(testbed, 2, tenants, assignment={"t": 5})  # out of range
    with pytest.raises(ValueError):
        Fleet(testbed, 2, tenants, assignment={"t": 0, "ghost": 1})  # unknown tenant
    with pytest.raises(ValueError):
        Fleet(testbed, 2, tenants, assignment={"t": 0},
              max_tenants_per_gpu=0)


def test_single_home_boot_spawns_only_assigned_workers():
    result = run_fleet(seed=0, duration=0.02, num_gpus=2,
                                be_tenants=1, plan=NO_FAULTS,
                                placement="adversarial")
    # Adversarial packing puts both tenants on gpu0; gpu1 serves nothing.
    assert result.report["gpus"]["gpu1"]["jobs_completed"] == 0
    assert result.report["gpus"]["gpu0"]["jobs_completed"] > 0


def test_controller_rejects_all_resident_fleet():
    from repro.cluster.fleet import Fleet, TenantSpec

    testbed = _testbed()
    fleet = Fleet(testbed, 2, [TenantSpec("t", rps=10.0)])
    with pytest.raises(ValueError):
        MigrationController(fleet)
