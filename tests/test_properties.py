"""Property-based tests (hypothesis) for core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.contention import ContentionModel, profile_similarity
from repro.gpu.memory import DeviceMemory, GpuOutOfMemoryError
from repro.gpu.specs import V100_16GB
from repro.kernels.classify import classify_kernel
from repro.kernels.costmodel import instantiate_kernel, solo_duration
from repro.kernels.kernel import KernelSpec, ResourceProfile
from repro.kernels.launch import LaunchConfig, blocks_per_sm, sm_needed
from repro.metrics.latency import percentile
from repro.metrics.utilization import average_utilization
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
launch_configs = st.builds(
    LaunchConfig,
    num_blocks=st.integers(1, 100_000),
    threads_per_block=st.integers(1, 1024),
    registers_per_thread=st.integers(1, 255),
    shared_mem_per_block=st.integers(0, 96 * 1024),
)

kernel_specs = st.builds(
    KernelSpec,
    name=st.just("prop-k"),
    flops=st.floats(0, 1e13, allow_nan=False, allow_infinity=False),
    bytes_moved=st.floats(0, 1e11, allow_nan=False, allow_infinity=False),
    launch=launch_configs,
    compute_efficiency=st.floats(0.05, 1.0),
    memory_efficiency=st.floats(0.05, 1.0),
)


@st.composite
def kernel_ops(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    ops = []
    for i in range(n):
        spec = KernelSpec(
            name=f"prop-{i}",
            flops=draw(st.floats(1e6, 1e12)),
            bytes_moved=draw(st.floats(1e4, 1e10)),
            launch=LaunchConfig(
                num_blocks=draw(st.integers(1, 5000)),
                threads_per_block=draw(st.sampled_from([64, 128, 256, 512])),
            ),
            compute_efficiency=draw(st.floats(0.1, 1.0)),
            memory_efficiency=draw(st.floats(0.1, 1.0)),
        )
        ops.append(instantiate_kernel(spec, V100_16GB))
    return ops


# ----------------------------------------------------------------------
# Launch / occupancy invariants
# ----------------------------------------------------------------------
@given(launch_configs)
def test_blocks_per_sm_positive(launch):
    assert blocks_per_sm(launch) >= 1


@given(launch_configs)
def test_sm_needed_bounds(launch):
    needed = sm_needed(launch)
    assert 1 <= needed <= launch.num_blocks


@given(launch_configs)
def test_sm_needed_monotone_in_blocks(launch):
    bigger = LaunchConfig(
        num_blocks=launch.num_blocks * 2,
        threads_per_block=launch.threads_per_block,
        registers_per_thread=launch.registers_per_thread,
        shared_mem_per_block=launch.shared_mem_per_block,
    )
    assert sm_needed(bigger) >= sm_needed(launch)


# ----------------------------------------------------------------------
# Cost model invariants
# ----------------------------------------------------------------------
@given(kernel_specs)
def test_duration_at_least_floor(spec):
    assert solo_duration(spec, V100_16GB) >= V100_16GB.kernel_min_duration


@given(kernel_specs)
def test_instantiated_kernel_invariants(spec):
    op = instantiate_kernel(spec, V100_16GB)
    assert 0 <= op.compute_util <= 1
    assert 0 <= op.memory_util <= 1
    assert 1 <= op.sm_needed <= V100_16GB.num_sms
    assert op.profile in ResourceProfile


@given(st.floats(0, 1), st.floats(0, 1), st.booleans())
def test_classification_total(cu, mu, roofline):
    assert classify_kernel(cu, mu, roofline) in ResourceProfile


# ----------------------------------------------------------------------
# Contention invariants
# ----------------------------------------------------------------------
@settings(max_examples=50)
@given(kernel_ops())
def test_rates_are_valid_probabilities(ops):
    model = ContentionModel(V100_16GB.num_sms)
    rates = model.rates_by_seq(ops, {})
    assert set(rates) == {op.seq for op in ops}
    for rate in rates.values():
        assert 0 < rate <= 1.0


@settings(max_examples=50)
@given(kernel_ops(max_n=1))
def test_solo_rate_is_one(ops):
    model = ContentionModel(V100_16GB.num_sms)
    assert model.rates_by_seq(ops, {})[ops[0].seq] == 1.0


@settings(max_examples=50)
@given(kernel_ops(max_n=4))
def test_adding_corunner_never_speeds_up(ops):
    model = ContentionModel(V100_16GB.num_sms)
    first = ops[0]
    rate_with_fewer = model.rates_by_seq(ops[:-1], {})[first.seq] if len(ops) > 1 \
        else 1.0
    rate_with_more = model.rates_by_seq(ops, {})[first.seq]
    assert rate_with_more <= rate_with_fewer + 1e-9


@settings(max_examples=50)
@given(kernel_ops(max_n=3))
def test_similarity_symmetric_and_bounded(ops):
    for a in ops:
        for b in ops:
            s = profile_similarity(a, b)
            assert 0.0 <= s <= 1.0
            assert s == profile_similarity(b, a)


@settings(max_examples=50)
@given(kernel_ops(max_n=4))
def test_device_utilization_bounded(ops):
    model = ContentionModel(V100_16GB.num_sms)
    rates = model.rates_by_seq(ops, {})
    c, m, s = model.device_utilization(ops, [rates[op.seq] for op in ops])
    assert 0 <= c <= 1 and 0 <= m <= 1 and 0 <= s <= 1


# ----------------------------------------------------------------------
# Memory allocator invariants
# ----------------------------------------------------------------------
@settings(max_examples=50)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=30))
def test_allocator_conservation(sizes):
    mem = DeviceMemory(1000)
    live = []
    for size in sizes:
        try:
            live.append(mem.malloc(size))
        except GpuOutOfMemoryError:
            if live:
                mem.free_allocation(live.pop())
    assert mem.used == sum(a.nbytes for a in live)
    assert 0 <= mem.used <= mem.capacity
    for alloc in live:
        mem.free_allocation(alloc)
    assert mem.used == 0


# ----------------------------------------------------------------------
# Metrics invariants
# ----------------------------------------------------------------------
@settings(max_examples=50)
@given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=200))
def test_percentiles_ordered(values):
    p50 = percentile(values, 50)
    p95 = percentile(values, 95)
    p99 = percentile(values, 99)
    assert p50 <= p95 <= p99 <= max(values) + 1e-12
    assert min(values) - 1e-12 <= p50


@settings(max_examples=50)
@given(st.lists(
    st.tuples(st.floats(0, 9), st.floats(0.001, 1.0),
              st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
    min_size=0, max_size=20,
))
def test_average_utilization_bounded(raw):
    segments = [(t, t + d, c, m, s) for t, d, c, m, s in raw]
    avg = average_utilization(segments, 0.0, 10.0)
    # Segments may overlap in pathological inputs; each individual
    # average is still finite and non-negative.
    assert avg.compute >= 0 and math.isfinite(avg.compute)
    assert avg.memory_bw >= 0 and avg.sm_busy >= 0


# ----------------------------------------------------------------------
# Engine determinism
# ----------------------------------------------------------------------
@settings(max_examples=25)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50),
       st.integers(0, 2**31))
def test_engine_order_deterministic(times, seed):
    def trace(run_times):
        sim = Simulator()
        order = []
        for i, t in enumerate(run_times):
            sim.call_at(t, lambda i=i: order.append(i))
        sim.run()
        return order

    assert trace(times) == trace(times)
