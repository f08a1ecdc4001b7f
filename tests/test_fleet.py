"""Tests for the multi-GPU resilience fleet (repro.cluster.fleet)."""

import pytest

from repro.cluster.fleet import GpuHealth, TenantPolicy, TenantSpec
from repro.experiments.registry import make_scenario
from repro.experiments.scenario import SCENARIO_KINDS, Scenario, run
from repro.faults import (
    FaultInjector,
    FaultPlan,
    GpuCrash,
    GpuDegrade,
    GpuRecover,
    KillClient,
)
from repro.sim.engine import Simulator


def run_fleet(**params):
    return run(Scenario(kind="fleet", params=params)).result


# ---------------------------------------------------------------------------
# Plumbing: specs, policies, health


def test_tenant_policy_validation():
    with pytest.raises(ValueError):
        TenantPolicy(max_concurrency=0)
    with pytest.raises(ValueError):
        TenantPolicy(max_queued=-1)
    with pytest.raises(ValueError):
        TenantPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        TenantPolicy(backoff_base=0.0)
    with pytest.raises(ValueError):
        TenantSpec("t", rps=0.0)
    with pytest.raises(ValueError):
        TenantSpec("")


def test_gpu_health_score():
    health = GpuHealth(window=4, latency_tolerance=2.0)
    assert health.score() == 1.0  # no observations yet
    health.observe(True, 1.0)
    assert health.score() == 1.0
    health.observe(False)
    assert health.score() == pytest.approx(0.5)
    # Latency past tolerance scales the score down.
    fast = GpuHealth(window=4, latency_tolerance=2.0)
    for _ in range(4):
        fast.observe(True, 4.0)
    assert fast.score() == pytest.approx(0.5)
    # The window forgets old failures.
    for _ in range(4):
        health.observe(True, 1.0)
    assert health.score() == 1.0


def test_gpu_health_window_of_one():
    health = GpuHealth(window=1, latency_tolerance=2.0)
    health.observe(False)
    assert health.score() == 0.0
    # A single new observation fully replaces the window.
    health.observe(True, 1.0)
    assert health.score() == 1.0
    with pytest.raises(ValueError):
        GpuHealth(window=0)
    with pytest.raises(ValueError):
        GpuHealth(latency_tolerance=0.0)


def test_gpu_health_mean_exactly_at_tolerance():
    # The latency penalty is strict: a mean exactly at the tolerance
    # does not scale the score down.
    health = GpuHealth(window=4, latency_tolerance=2.0)
    for _ in range(4):
        health.observe(True, 2.0)
    assert health.score() == 1.0
    health.observe(True, 2.0 + 4e-9)  # nudge the mean past tolerance
    assert health.score() < 1.0


def test_gpu_health_reset_clears_window():
    health = GpuHealth(window=8, latency_tolerance=2.0)
    for _ in range(8):
        health.observe(False, 10.0)
    assert health.score() == 0.0
    health.reset()
    assert health.score() == 1.0  # clean slate, no observations


def test_degraded_recover_resets_health_window():
    # Degrade a GPU hard, then recover it: the stale inflated-latency
    # samples must not keep the recovered GPU demoted in routing.
    result = run_fleet(
        seed=0, duration=0.15, num_gpus=2,
        plan=FaultPlan((GpuDegrade(0, at_time=0.03, slowdown=8.0),
                        GpuRecover(0, at_time=0.1))))
    gpu0 = result.report["gpus"]["gpu0"]
    assert gpu0["state"] == "up"
    assert gpu0["recoveries"] == 1
    # Post-recovery the health score reflects only fresh samples; with
    # the slowdown gone it must sit near perfect, not at the degraded
    # floor the old window would pin it to.
    assert gpu0["health"] > 0.9


def test_fleet_fault_events_validate():
    with pytest.raises(ValueError):
        GpuCrash(-1, at_time=0.1)
    with pytest.raises(ValueError):
        GpuDegrade(0, at_time=0.1, slowdown=1.0)
    with pytest.raises(ValueError):
        GpuRecover(0, at_time=-1.0)


def test_sample_fleet_plan_deterministic_and_bounded():
    plan = FaultPlan.sample_fleet(3, 8, horizon=1.0, crashes=2, degrades=1,
                                  recover_after=0.2)
    again = FaultPlan.sample_fleet(3, 8, horizon=1.0, crashes=2, degrades=1,
                                   recover_after=0.2)
    assert plan == again
    crashes = [e for e in plan if isinstance(e, GpuCrash)]
    degrades = [e for e in plan if isinstance(e, GpuDegrade)]
    recovers = [e for e in plan if isinstance(e, GpuRecover)]
    assert (len(crashes), len(degrades), len(recovers)) == (2, 1, 3)
    assert plan.max_gpu_index() < 8
    for event in crashes + degrades:
        assert 0.3 <= event.at_time <= 0.7
    for event in recovers:
        assert event.at_time <= 1.0
    # Victims are distinct.
    victims = [e.gpu for e in crashes + degrades]
    assert len(set(victims)) == len(victims)


def test_injector_requires_fleet_target_for_gpu_events():
    sim = Simulator()
    plan = FaultPlan((GpuCrash(0, at_time=0.1),))
    with pytest.raises(ValueError, match="no fleet target"):
        FaultInjector(sim, plan).start()


# ---------------------------------------------------------------------------
# Scenario-level behaviour


def test_fleet_rejects_bad_plans():
    with pytest.raises(ValueError, match="only GPU-level"):
        run_fleet(seed=0, duration=0.02, num_gpus=2,
                  plan=FaultPlan((KillClient("hp", at_time=0.01),)))
    with pytest.raises(ValueError, match="has only 2 GPUs"):
        run_fleet(seed=0, duration=0.02, num_gpus=2,
                  plan=FaultPlan((GpuCrash(5, at_time=0.01),)))
    with pytest.raises(ValueError, match="high-priority"):
        run_fleet(seed=0, duration=0.02, num_gpus=2, plan=FaultPlan(()),
                  tenants=[
                      TenantSpec("a", rps=50.0, high_priority=True),
                      TenantSpec("b", rps=50.0, high_priority=True),
                  ])


def test_fleet_fault_free_run_serves_everyone():
    result = run_fleet(seed=0, duration=0.05, num_gpus=2, plan=FaultPlan(()))
    report = result.report
    assert report["faults"] == {"crashes": 0, "degrades": 0, "recoveries": 0}
    assert report["failover"]["orphaned"] == 0
    assert report["fleet_uptime_fraction"] == 1.0
    assert result.hp_latency.count > 0
    for name in ("hp", "be-0", "be-1"):
        assert result.jobs[name].failed == 0
    # Every decision targets a valid GPU index.
    assert result.routing["decisions"] == len(result.decisions)
    assert all(0 <= gpu < 2 for _, _, gpu in result.decisions)


def test_fleet_crash_fails_over_and_recovers():
    duration = 0.08
    plan = FaultPlan((GpuCrash(0, at_time=0.03),
                      GpuRecover(0, at_time=0.06)))
    result = run_fleet(seed=1, duration=duration, num_gpus=2, plan=plan)
    report = result.report
    assert report["faults"] == {"crashes": 1, "degrades": 0, "recoveries": 1}
    gpu0 = report["gpus"]["gpu0"]
    assert gpu0["state"] == "up"  # recovered
    assert gpu0["crashes"] == 1 and gpu0["recoveries"] == 1
    assert gpu0["uptime_fraction"] == pytest.approx(1 - 0.03 / duration,
                                                    abs=1e-6)
    assert report["mean_time_to_recover"] == pytest.approx(0.03, abs=1e-6)
    # No routing decision targets gpu0 while it was down.
    for t, _seq, gpu in result.decisions:
        assert not (gpu == 0 and 0.03 < t < 0.06)
    # The fleet kept serving on gpu1 and resumed on gpu0 after recovery.
    assert any(gpu == 0 and t >= 0.06 for t, _seq, gpu in result.decisions)
    assert report["failover"]["orphaned"] >= 0
    # The gpu ledger entry carries the uptime/recovery fields.
    entry = result.ledger.client("gpu0").to_dict()
    assert entry["uptime_fraction"] == pytest.approx(1 - 0.03 / duration,
                                                     abs=1e-6)
    assert entry["time_to_recover"] == pytest.approx(0.03, abs=1e-6)


def test_fleet_degrade_demotes_gpu_in_routing():
    plan = FaultPlan((GpuDegrade(0, at_time=0.01, slowdown=6.0),))
    result = run_fleet(seed=2, duration=0.08, num_gpus=2, plan=plan)
    report = result.report
    gpu0, gpu1 = report["gpus"]["gpu0"], report["gpus"]["gpu1"]
    assert gpu0["state"] == "degraded"
    assert gpu0["health"] < 1.0, "health tracker never observed the slowdown"
    assert gpu1["health"] == 1.0
    # The degraded GPU stays *routable* but receives less work.
    assert gpu0["jobs_completed"] > 0
    assert gpu0["jobs_completed"] < gpu1["jobs_completed"]
    # Degradation is not downtime.
    assert gpu0["uptime_fraction"] == 1.0


def test_fleet_crash_orphans_readmitted_elsewhere():
    # High load so the crashed GPU holds queued jobs at crash time.
    result = run_fleet(seed=3, duration=0.06, num_gpus=3,
                       plan=FaultPlan((GpuCrash(1, at_time=0.03),)),
                       hp_load=0.4, be_load=0.8)
    fo = result.report["failover"]
    assert fo["orphaned"] > 0
    assert fo["failovers"] + fo["retry_exhausted"] == fo["orphaned"]
    assert fo["readmitted"] > 0
    # Re-admitted work lands on surviving GPUs only.
    for t, _seq, gpu in result.decisions:
        assert not (gpu == 1 and t > 0.03)


def test_fleet_tenant_policy_max_queued_sheds():
    tenants = [
        TenantSpec("hp", rps=200.0, high_priority=True),
        TenantSpec("be", rps=2000.0,
                   policy=TenantPolicy(max_concurrency=1, max_queued=2)),
    ]
    result = run_fleet(seed=4, duration=0.05, num_gpus=2,
                       plan=FaultPlan(()), tenants=tenants)
    be = result.report["tenants"]["be"]
    assert be["shed"] > 0, "max_queued never shed despite 2000 rps"
    assert result.jobs["be"].shed == be["shed"]
    # max_concurrency=1: never more than one be job dispatched at once,
    # so at most one decision per completion — served stays well below
    # what an uncapped tenant would reach at this rate.
    assert be["served"] > 0


def test_fleet_priority_boost_orders_backlog():
    # Both tenants compete for a single GPU slot; the boosted one wins.
    tenants = [
        TenantSpec("a", rps=400.0,
                   policy=TenantPolicy(priority_boost=1.0)),
        TenantSpec("b", rps=400.0),
    ]
    result = run_fleet(seed=5, duration=0.04, num_gpus=1,
                       plan=FaultPlan(()), tenants=tenants)
    served = result.report["tenants"]
    assert served["a"]["served"] > served["b"]["served"]


def test_fleet_deterministic_byte_identical():
    params = dict(seed=6, duration=0.05, num_gpus=3, crashes=1, degrades=1,
                  recover_after=0.02)
    first = run(Scenario(kind="fleet", params=dict(params)))
    replay = run(Scenario(kind="fleet", params=dict(params)))
    assert first.to_json() == replay.to_json()
    # The digest covers timing, job identity, and target of every
    # routing decision.
    assert first.result.routing["digest"] == replay.result.routing["digest"]


def test_fleet_scenario_api_integration():
    assert "fleet" in SCENARIO_KINDS
    scenario = make_scenario("fleet", seed=1, duration=0.02, num_gpus=2)
    assert scenario.kind == "fleet" and scenario.seed == 1
    ref = make_scenario("fleet_ref")
    assert ref.params["num_gpus"] == 8
    wrapped = run(scenario)
    assert wrapped.result.num_gpus == 2
    canonical = wrapped.canonical()
    assert canonical["kind"] == "fleet"
    assert set(canonical["result"]) == {
        "num_gpus", "backend", "plan", "hp_latency", "jobs", "report",
        "routing", "migration", "ledger"}


def test_run_fleet_scenario_wrapper():
    result = run(Scenario(kind="fleet", params=dict(
        seed=0, duration=0.02, num_gpus=2, plan=FaultPlan(())))).result
    assert result.num_gpus == 2
    assert result.report["num_gpus"] == 2
