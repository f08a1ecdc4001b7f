"""Tests for experiment params, the runner, and table formatting."""

import dataclasses

import pytest

from repro.experiments.params import ExperimentParams, JobSpec
from repro.experiments.registry import (
    inf_inf_config,
    inf_train_config,
    multi_client_config,
    solo_inference_config,
    train_train_config,
)
from repro.experiments.runner import get_profile, solo_throughput
from repro.experiments.scenario import Scenario, run as run_scenario
from repro.experiments.tables import format_series, format_table, ratio
from repro.gpu.specs import V100_16GB


def run_experiment(cfg, **changes):
    """Run a collocation config (with ``changes``) through the Scenario
    API."""
    cfg = dataclasses.replace(cfg, **changes)
    return run_scenario(Scenario(kind="experiment", params=cfg)).result


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_jobspec_autonames():
    job = JobSpec(model="resnet50", kind="inference", high_priority=True,
                  arrivals="poisson", rps=10)
    assert job.name == "hp-resnet50-inference"


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(model="resnet50", kind="serving")
    with pytest.raises(ValueError):
        JobSpec(model="resnet50", kind="inference", arrivals="poisson", rps=0)
    with pytest.raises(ValueError):
        JobSpec(model="resnet50", kind="training", arrivals="poisson", rps=5)


def test_experiment_config_validation():
    hp = JobSpec(model="resnet50", kind="inference", high_priority=True,
                 arrivals="poisson", rps=10)
    with pytest.raises(ValueError, match="at least one job"):
        ExperimentParams(jobs=[], backend="orion")
    with pytest.raises(ValueError, match="exceed warmup"):
        ExperimentParams(jobs=[hp], backend="orion", duration=0.1, warmup=0.5)
    # Orion requires exactly one HP job.
    be = JobSpec(model="resnet50", kind="training")
    with pytest.raises(ValueError, match="exactly one high-priority"):
        ExperimentParams(jobs=[be], backend="orion")
    with pytest.raises(ValueError, match="duplicate job names"):
        ExperimentParams(jobs=[hp, hp], backend="orion")
    with pytest.raises(ValueError, match="JobSpec"):
        ExperimentParams(jobs=[{"model": "resnet50"}], backend="orion")
    # The catalog horizon and warm-up are the defaults.
    params = ExperimentParams(jobs=[hp])
    assert (params.duration, params.warmup) == (4.0, 0.5)
    assert params.jobs == (hp,)


def test_registry_builders_produce_valid_configs():
    for cfg in (
        inf_train_config("resnet50", "mobilenet_v2", "orion"),
        train_train_config("resnet50", "mobilenet_v2", "ticktock"),
        inf_inf_config("resnet50", "mobilenet_v2", "reef", arrivals="apollo"),
        inf_inf_config("resnet50", "mobilenet_v2", "mps", arrivals="poisson"),
        multi_client_config("resnet50", ["mobilenet_v2", "resnet101"], "orion"),
        solo_inference_config("resnet50", rps=50),
    ):
        assert cfg.jobs


def test_inf_inf_rejects_unknown_arrivals():
    with pytest.raises(ValueError):
        inf_inf_config("resnet50", "mobilenet_v2", "orion", arrivals="burst")


def test_multi_client_uses_a100_by_default():
    cfg = multi_client_config("resnet50", ["mobilenet_v2"], "orion")
    assert cfg.device == "A100-40GB"
    assert len(cfg.jobs) == 2


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_profile_cache_reuses_instances():
    a = get_profile("mobilenet_v2", "inference", V100_16GB)
    b = get_profile("mobilenet_v2", "inference", V100_16GB)
    assert a is b


def test_solo_throughput_positive():
    assert solo_throughput("mobilenet_v2", "inference") > 100


def test_run_experiment_end_to_end():
    cfg = inf_train_config("mobilenet_v2", "mobilenet_v2", "orion",
                           duration=1.0)
    result = run_experiment(cfg, warmup=0.2)
    assert result.hp_job.latency.count > 10
    assert result.hp_job.throughput > 0
    assert len(result.be_jobs()) == 1
    assert result.backend_stats["be_kernels_launched"] > 0


def test_run_experiment_unknown_backend():
    cfg = inf_train_config("mobilenet_v2", "mobilenet_v2", "orion",
                           duration=1.0)
    with pytest.raises(ValueError, match="backend must be one of"):
        run_experiment(cfg, backend="magic")


def test_run_experiment_records_utilization():
    cfg = solo_inference_config("mobilenet_v2", rps=50, duration=1.0,
                                record_utilization=True)
    result = run_experiment(cfg, warmup=0.2)
    assert result.utilization is not None
    assert 0 < result.utilization.compute < 1
    assert result.utilization_segments


def test_run_experiment_deterministic():
    def run():
        cfg = inf_inf_config("mobilenet_v2", "mobilenet_v2", "orion",
                             arrivals="poisson", duration=1.0, seed=11)
        return run_experiment(cfg, warmup=0.2)

    a, b = run(), run()
    assert a.hp_job.latency.p99 == pytest.approx(b.hp_job.latency.p99)
    assert a.hp_job.throughput == b.hp_job.throughput


def test_seed_changes_poisson_outcomes():
    def run(seed):
        cfg = inf_inf_config("mobilenet_v2", "mobilenet_v2", "orion",
                             arrivals="poisson", duration=1.0, seed=seed)
        return run_experiment(cfg, warmup=0.2).hp_job.latency.mean

    assert run(1) != run(2)


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "22.50" in text


def test_format_table_row_width_checked():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_format_series():
    text = format_series("fig", [1, 2], [0.5, 0.25], "x", "y")
    assert "fig" in text
    assert "0.5000" in text


def test_format_series_length_mismatch():
    with pytest.raises(ValueError):
        format_series("fig", [1], [1, 2])


def test_ratio():
    assert ratio(4.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        ratio(1.0, 0.0)
