"""Unit tests for the model zoo, arrival processes, and trace generators."""

import numpy as np
import pytest

from repro.workloads.apollo import apollo_trace
from repro.workloads.arrivals import (
    ClosedLoop,
    PoissonArrivals,
    TraceArrivals,
    UniformArrivals,
    make_arrivals,
)
from repro.workloads.models import (
    DEFAULT_BATCH_SIZES,
    MODEL_NAMES,
    batch_size_for,
)
from repro.workloads.rates import TABLE3_RPS, rps_for
from repro.workloads.registry import build_plan


# ----------------------------------------------------------------------
# Model zoo
# ----------------------------------------------------------------------
def test_all_models_have_inference_and_training_plans():
    for model in MODEL_NAMES:
        for kind in ("inference", "training"):
            plan = build_plan(model, kind)
            assert plan.kernel_count > 50
            assert plan.kind == kind


def test_plans_are_cached():
    assert build_plan("resnet50", "inference") is build_plan("resnet50", "inference")


def test_table1_batch_sizes():
    assert batch_size_for("resnet50", "inference") == 4
    assert batch_size_for("bert", "inference") == 2
    assert batch_size_for("mobilenet_v2", "training") == 64
    assert batch_size_for("bert", "training") == 8
    assert len(DEFAULT_BATCH_SIZES) == 10


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        build_plan("alexnet", "inference")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_plan("resnet50", "finetuning")


def test_resnet101_deeper_than_resnet50():
    p50 = build_plan("resnet50", "inference")
    p101 = build_plan("resnet101", "inference")
    assert p101.kernel_count > p50.kernel_count


def test_custom_batch_size_scales_work():
    small = build_plan("resnet50", "inference", batch_size=1)
    large = build_plan("resnet50", "inference", batch_size=8)
    small_flops = sum(s.flops for s in small.kernel_specs())
    large_flops = sum(s.flops for s in large.kernel_specs())
    assert large_flops == pytest.approx(8 * small_flops, rel=0.05)


def test_kernel_names_unique_within_plan():
    for model in MODEL_NAMES:
        names = [s.name for s in build_plan(model, "training").kernel_specs()]
        assert len(names) == len(set(names)), f"duplicate kernel ids in {model}"


def test_training_plan_params_positive():
    for model in MODEL_NAMES:
        assert build_plan(model, "training").params > 1e6


# ----------------------------------------------------------------------
# Table 3 rates
# ----------------------------------------------------------------------
def test_table3_verbatim_values():
    assert rps_for("resnet50", "inf_inf_uniform") == 80
    assert rps_for("mobilenet_v2", "inf_inf_poisson") == 65
    assert rps_for("resnet101", "inf_train_poisson") == 9
    assert rps_for("bert", "inf_inf_uniform") == 8
    assert rps_for("transformer", "inf_train_poisson") == 8


def test_table3_covers_all_models():
    assert set(TABLE3_RPS) == set(MODEL_NAMES)


def test_table3_unknown_lookup_raises():
    with pytest.raises(KeyError):
        rps_for("resnet50", "nonexistent")


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def test_uniform_arrivals_are_periodic():
    times = list(UniformArrivals(10.0).arrival_times(1.0))
    assert len(times) == 10  # t=0.0 through t=0.9
    assert times[0] == 0.0
    gaps = np.diff(times)
    assert np.allclose(gaps, 0.1)


def test_uniform_offset():
    times = list(UniformArrivals(10.0, offset=0.05).arrival_times(0.3))
    assert times[0] == pytest.approx(0.05)


def test_poisson_mean_rate():
    rng = np.random.default_rng(0)
    times = list(PoissonArrivals(100.0, rng).arrival_times(50.0))
    assert len(times) == pytest.approx(5000, rel=0.05)


def test_poisson_is_reproducible():
    a = list(PoissonArrivals(50.0, np.random.default_rng(1)).arrival_times(5.0))
    b = list(PoissonArrivals(50.0, np.random.default_rng(1)).arrival_times(5.0))
    assert a == b


def test_poisson_interarrival_cv_near_one():
    rng = np.random.default_rng(2)
    times = np.array(list(PoissonArrivals(200.0, rng).arrival_times(50.0)))
    gaps = np.diff(times)
    cv = gaps.std() / gaps.mean()
    assert 0.9 < cv < 1.1


def test_trace_arrivals_replay_sorted():
    trace = TraceArrivals([0.3, 0.1, 0.2])
    assert list(trace.arrival_times(1.0)) == [0.1, 0.2, 0.3]


def test_trace_arrivals_respect_horizon():
    trace = TraceArrivals([0.1, 0.5, 0.9])
    assert list(trace.arrival_times(0.6)) == [0.1, 0.5]


def test_trace_rejects_negative_timestamps():
    with pytest.raises(ValueError):
        TraceArrivals([-0.1, 0.2])


def test_closed_loop_emits_nothing():
    assert list(ClosedLoop().arrival_times(10.0)) == []
    assert ClosedLoop().closed_loop


def test_make_arrivals_factory():
    assert isinstance(make_arrivals("uniform", rps=10), UniformArrivals)
    assert isinstance(make_arrivals("poisson", rps=10), PoissonArrivals)
    assert isinstance(make_arrivals("trace", timestamps=[0.1]), TraceArrivals)
    assert isinstance(make_arrivals("closed"), ClosedLoop)
    with pytest.raises(ValueError):
        make_arrivals("burst")
    with pytest.raises(ValueError):
        make_arrivals("trace")


def test_rate_validation():
    with pytest.raises(ValueError):
        UniformArrivals(0)
    with pytest.raises(ValueError):
        PoissonArrivals(-1)


# ----------------------------------------------------------------------
# Apollo trace
# ----------------------------------------------------------------------
def test_apollo_trace_reproducible():
    assert apollo_trace(10.0, seed=3) == apollo_trace(10.0, seed=3)


def test_apollo_trace_seed_sensitivity():
    assert apollo_trace(10.0, seed=3) != apollo_trace(10.0, seed=4)


def test_apollo_trace_within_horizon():
    trace = apollo_trace(5.0, seed=0)
    assert all(0 <= t < 5.0 for t in trace)


def test_apollo_trace_monotone():
    trace = apollo_trace(10.0, seed=1)
    assert trace == sorted(trace)


def test_apollo_mean_rate_near_base():
    trace = apollo_trace(120.0, seed=5)
    rate = len(trace) / 120.0
    assert 12 < rate < 50  # base 25 modulated by phases


def test_apollo_trace_is_bursty():
    # Phase modulation should produce clearly non-uniform local rates.
    trace = np.array(apollo_trace(120.0, seed=6))
    counts, _ = np.histogram(trace, bins=120)
    assert counts.max() > 2 * max(counts.min(), 1)


def test_apollo_validation():
    with pytest.raises(ValueError):
        apollo_trace(0.0)
    with pytest.raises(ValueError):
        apollo_trace(1.0, base_rps=0)
