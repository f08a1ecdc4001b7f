"""The shared testbed: backend registry, per-GPU builder, per-kind
backend support checked at scenario construction."""

import pytest

from repro.cli import main as cli_main
from repro.core import OrionBackend, OrionConfig
from repro.experiments.overload import OVERLOAD_STATS
from repro.experiments.params import (
    EXPERIMENT_BACKENDS,
    FAULTS_BACKENDS,
    FLEET_BACKENDS,
    LLM_BACKENDS,
)
from repro.experiments.registry import inf_train_config, make_scenario
from repro.experiments.runner import EXPERIMENT_STATS
from repro.experiments.scenario import Scenario
from repro.experiments.testbed import BACKENDS, Testbed, report_stats
from repro.faults.scenario import FAULTS_STATS
from repro.telemetry.tracer import TelemetryConfig
from repro.workloads.llmserve import LLM_STATS


def traced_testbed() -> Testbed:
    return Testbed.build("V100-16GB", seed=0,
                         telemetry=TelemetryConfig(tracing=True))


# ---------------------------------------------------------------------------
# Registry


def test_every_kind_backend_is_registered():
    assert set(EXPERIMENT_BACKENDS) == set(BACKENDS)
    for supported in (FAULTS_BACKENDS, FLEET_BACKENDS, LLM_BACKENDS):
        assert set(supported) <= set(BACKENDS)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_registry_builds_every_backend(name):
    testbed = traced_testbed()
    gpu = testbed.gpu(name, OrionConfig(hp_request_latency=1e-3))
    assert gpu.backend.name == name
    # Ideal builds a device per client, so none exists before one
    # registers; every other backend shares the one built here.
    assert (gpu.device is None) == (name == "ideal")
    # Clients share one GIL unless each runs in its own process.
    assert (gpu.gil is None) == gpu.backend.process_per_client
    assert gpu.backend.tracer is testbed.tracer


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_devices_get_the_tracer_at_construction(name):
    testbed = traced_testbed()
    gpu = testbed.gpu(name)
    kind = "training" if name == "ticktock" else "inference"
    ctx = gpu.ctx("job", high_priority=False, kind=kind)
    assert ctx.tracer is testbed.tracer
    devices = gpu.backend.devices()
    assert devices
    assert all(device.tracer is testbed.tracer for device in devices)


def test_unknown_backend_rejected_by_builder():
    with pytest.raises(ValueError, match="unknown backend 'bogus'"):
        Testbed.build("V100-16GB", seed=0).gpu("bogus")


def test_gpus_of_one_testbed_share_simulator_and_store():
    testbed = Testbed.build("V100-16GB", seed=0)
    first, second = testbed.gpu("orion"), testbed.gpu("orion")
    assert first.device is not second.device
    assert first.backend.sim is second.backend.sim is testbed.sim
    assert first.backend.profiles is second.backend.profiles is testbed.store
    assert first.gil is not second.gil


# ---------------------------------------------------------------------------
# Backend.stats()


def test_stats_empty_for_backends_without_counters():
    testbed = Testbed.build("V100-16GB", seed=0)
    for name in sorted(set(BACKENDS) - {"orion"}):
        backend = testbed.gpu(name).backend
        assert backend.stats() == {}
        assert report_stats(backend, EXPERIMENT_STATS) == {}


def test_orion_stats_cover_every_kind_report():
    backend = Testbed.build("V100-16GB", seed=0).gpu("orion").backend
    assert isinstance(backend, OrionBackend)
    stats = backend.stats()
    for keys in (EXPERIMENT_STATS, OVERLOAD_STATS, FAULTS_STATS, LLM_STATS):
        assert set(keys) <= set(stats)
        assert list(report_stats(backend, keys)) == list(keys)


# ---------------------------------------------------------------------------
# Unsupported backends fail at construction, for every kind


def test_experiment_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        Scenario(kind="experiment",
                 params=inf_train_config("resnet50", "mobilenet_v2",
                                         "bogus"))
    with pytest.raises(ValueError, match="backend"):
        make_scenario("inf-train", backend="bogus")


@pytest.mark.parametrize("kind,supported", [
    ("faults", FAULTS_BACKENDS),
    ("fleet", FLEET_BACKENDS),
    ("llm", LLM_BACKENDS),
])
def test_params_kinds_reject_unsupported_backends(kind, supported):
    for name in sorted(set(BACKENDS) - set(supported)) + ["bogus"]:
        with pytest.raises(ValueError, match="backend"):
            Scenario(kind=kind, params={"backend": name})
        with pytest.raises(ValueError, match="backend"):
            make_scenario(kind, backend=name)
    for name in supported:
        assert Scenario(kind=kind, params={"backend": name}).params == \
            {"backend": name}


def test_overload_has_no_backend_knob():
    # Overload scenarios always run Orion.
    with pytest.raises(ValueError, match="unknown overload scenario"):
        Scenario(kind="overload", params={"backend": "orion"})


@pytest.mark.parametrize("argv", [
    ["inf-train", "--hp", "resnet50", "--be", "mobilenet_v2",
     "--backend", "bogus"],
    ["faults", "--backend", "mps"],
    ["fleet", "--backend", "ideal"],
    ["llm", "--backend", "reef"],
    ["trace", "inf-train", "--out", "unused.json", "--set", "backend=bogus"],
])
def test_cli_rejects_unsupported_backend(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    # A flag's choices reject it in argparse; a --set override in the
    # params dataclass.
    message = capsys.readouterr().err + str(excinfo.value.code)
    assert "invalid choice" in message or "backend must be one of" in message
