"""The unified Scenario API: dataclass validation, run(), canonical
results, the named-scenario catalog, and construction-time
BackendOptions."""

import json

import pytest

from repro.core.scheduler import OrionBackend, OrionConfig
from repro.experiments.params import PARAM_TYPES
from repro.experiments.registry import (
    SCENARIOS,
    inf_train_config,
    make_scenario,
    scenario_names,
)
from repro.experiments.scenario import (
    SCENARIO_KINDS,
    Scenario,
    ScenarioResult,
    run,
)
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.profiler.profiles import ProfileStore
from repro.runtime.backend import BackendOptions
from repro.sim.engine import Simulator
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer


class TestScenarioDataclass:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario(kind="bogus")

    def test_experiment_kind_requires_config(self):
        with pytest.raises(ValueError, match="at least one job"):
            Scenario(kind="experiment")

    def test_params_kinds_reject_experiment_payload(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion")
        with pytest.raises(ValueError, match="OverloadParams params"):
            Scenario(kind="overload", params=config)

    def test_params_instance_is_stored_as_overrides(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion",
                                  duration=0.8, seed=7)
        exp = Scenario(kind="experiment", params=config)
        assert exp.params == config.to_params()
        assert "backend" not in exp.params  # the default
        assert PARAM_TYPES["experiment"](**exp.params) == config

    def test_seed_and_duration_surface_uniformly(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion",
                                  duration=0.8, seed=7)
        exp = Scenario(kind="experiment", params=config)
        assert exp.seed == 7 and exp.duration == 0.8
        ovl = Scenario(kind="overload", params={"seed": 3, "duration": 0.1})
        assert ovl.seed == 3 and ovl.duration == 0.1
        # Absent params mean "implementation default".
        assert Scenario(kind="faults").duration is None
        assert Scenario(kind="faults").seed == 0

    def test_name_defaults_to_kind(self):
        assert Scenario(kind="overload").name == "overload"

    def test_describe_mentions_seed(self):
        assert "seed=5" in Scenario(kind="overload",
                                    params={"seed": 5}).describe()


class TestRun:
    def test_overload_scenario_runs_and_accounts(self):
        res = run(Scenario(kind="overload",
                           params={"seed": 0, "duration": 0.05}))
        assert isinstance(res, ScenarioResult)
        assert res.events_processed > 0
        assert res.sim_time == pytest.approx(0.05)
        assert res.wall_time > 0
        assert res.result.hp_latency.count > 0

    def test_faults_scenario_runs(self):
        res = run(Scenario(kind="faults",
                           params={"seed": 2, "duration": 0.1}))
        assert res.result.ledger is not None
        assert res.events_processed > 0

    def test_experiment_scenario_runs(self):
        config = inf_train_config("resnet50", "mobilenet_v2", "orion",
                                  duration=0.55)
        res = run(Scenario(kind="experiment", params=config))
        assert res.result.hp_job.stats.records
        assert res.events_processed > 0
        assert res.sim_time == pytest.approx(0.55)
        assert not res.tracer.enabled

    def test_canonical_excludes_wall_clock(self):
        res = run(Scenario(kind="overload",
                           params={"seed": 0, "duration": 0.05}))
        payload = res.to_json()
        assert "wall" not in payload
        # Same seed, same bytes — the sweep merge contract.
        again = run(Scenario(kind="overload",
                             params={"seed": 0, "duration": 0.05}))
        assert again.to_json() == payload

    def test_canonical_round_trips_as_json(self):
        res = run(Scenario(kind="faults",
                           params={"seed": 1, "duration": 0.1}))
        decoded = json.loads(res.to_json())
        assert decoded["kind"] == "faults"
        assert decoded["seed"] == 1
        assert decoded["events_processed"] == res.events_processed


class TestScenarioCatalog:
    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("nope")

    def test_names_cover_cli_and_bench(self):
        names = scenario_names()
        for required in ("inf-train", "train-train", "inf-inf", "overload",
                         "faults", "overload_ref", "inf_train_ref",
                         "train_train_ref"):
            assert required in names

    def test_seed_and_duration_propagate(self):
        exp = make_scenario("inf-train", seed=9, duration=1.5)
        assert exp.params["seed"] == 9
        assert exp.params["duration"] == 1.5
        ovl = make_scenario("overload_ref", seed=3)
        assert ovl.params["seed"] == 3
        assert ovl.params["duration"] == 0.4  # pinned reference horizon

    def test_overrides_reach_the_family_surface(self):
        scenario = make_scenario("overload", seed=0, duration=0.05,
                                 policy="reject", be_clients=1)
        assert scenario.params["policy"] == "reject"
        res = run(scenario)
        assert set(res.result.jobs) == {"hp", "be-0"}

    def test_every_catalog_entry_builds(self):
        for name in SCENARIOS:
            scenario = make_scenario(name, seed=1)
            assert scenario.kind in SCENARIO_KINDS

    @pytest.mark.parametrize("name", scenario_names())
    def test_unknown_override_lists_valid_keys(self, name):
        with pytest.raises(ValueError,
                           match=r"unknown .* nonsense; valid: .*warmup"):
            make_scenario(name, nonsense=1)

    @pytest.mark.parametrize("name", scenario_names())
    def test_warmup_is_an_override(self, name):
        scenario = make_scenario(name, warmup=0.01)
        params = PARAM_TYPES[scenario.kind](**scenario.params)
        assert params.warmup == 0.01


class TestFaultPlanValidation:
    def test_unknown_kill_target_rejected(self):
        from repro.faults.plan import FaultPlan, KillClient

        plan = FaultPlan((KillClient("be-7", at_time=0.02),))
        with pytest.raises(ValueError, match="unknown client 'be-7'"):
            run(Scenario(kind="faults",
                         params={"duration": 0.05, "be_clients": 1,
                                 "plan": plan}))


class TestBackendOptions:
    """Telemetry wiring at construction time."""

    def _backend(self, options=None):
        sim = Simulator()
        device = GpuDevice(sim, V100_16GB)
        backend = OrionBackend(sim, device, ProfileStore(),
                               OrionConfig(hp_request_latency=1e-3),
                               options=options)
        return sim, backend

    def test_defaults_match_setter_era(self):
        _sim, backend = self._backend()
        assert isinstance(backend.metrics, MetricsRegistry)
        assert not backend.tracer.enabled

    def test_construction_time_wiring(self):
        sim = Simulator()
        tracer = Tracer(sim, capacity=64)
        metrics = MetricsRegistry()
        options = BackendOptions(tracer=tracer, metrics=metrics)
        _sim, backend = self._backend(options)
        assert backend.tracer is tracer
        assert backend.metrics is metrics
