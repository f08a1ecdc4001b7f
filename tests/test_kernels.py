"""Unit tests for kernel descriptors, launch occupancy, and the cost model."""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.gpu.specs import A100_40GB, V100_16GB
from repro.kernels.classify import UTILIZATION_THRESHOLD, classify_kernel
from repro.kernels.costmodel import (
    MIN_OCCUPANCY,
    KernelCost,
    instantiate_kernel,
    occupancy_factor,
    solo_duration,
)
from repro.kernels.kernel import (
    KernelOp,
    KernelSpec,
    MemoryOp,
    MemoryOpKind,
    ResourceProfile,
)
from repro.kernels.launch import LaunchConfig, SmLimits, blocks_per_sm, sm_needed

from helpers import compute_spec, memory_spec, tiny_spec


# ----------------------------------------------------------------------
# Launch geometry / occupancy
# ----------------------------------------------------------------------
def test_blocks_per_sm_limited_by_threads():
    launch = LaunchConfig(num_blocks=100, threads_per_block=1024,
                          registers_per_thread=1)
    assert blocks_per_sm(launch) == 2  # 2048 / 1024


def test_blocks_per_sm_limited_by_registers():
    launch = LaunchConfig(num_blocks=100, threads_per_block=256,
                          registers_per_thread=128)
    # 65536 / (128*256) = 2
    assert blocks_per_sm(launch) == 2


def test_blocks_per_sm_limited_by_shared_memory():
    launch = LaunchConfig(num_blocks=100, threads_per_block=64,
                          registers_per_thread=16,
                          shared_mem_per_block=49152)
    assert blocks_per_sm(launch) == 2  # 98304 / 49152


def test_blocks_per_sm_limited_by_block_slots():
    launch = LaunchConfig(num_blocks=100, threads_per_block=32,
                          registers_per_thread=8)
    assert blocks_per_sm(launch) == 32  # hardware block-slot cap


def test_blocks_per_sm_at_least_one():
    launch = LaunchConfig(num_blocks=1, threads_per_block=1024,
                          registers_per_thread=255,
                          shared_mem_per_block=98304)
    assert blocks_per_sm(launch) >= 1


def test_sm_needed_ceil_formula():
    launch = LaunchConfig(num_blocks=100, threads_per_block=1024,
                          registers_per_thread=1)
    # blocks_per_sm = 2 -> ceil(100/2) = 50
    assert sm_needed(launch) == 50


def test_sm_needed_single_block():
    assert sm_needed(LaunchConfig(num_blocks=1, threads_per_block=256)) == 1


def test_launch_validation():
    with pytest.raises(ValueError):
        LaunchConfig(num_blocks=0, threads_per_block=256)
    with pytest.raises(ValueError):
        LaunchConfig(num_blocks=1, threads_per_block=2048)
    with pytest.raises(ValueError):
        LaunchConfig(num_blocks=1, threads_per_block=256,
                     registers_per_thread=0)
    with pytest.raises(ValueError):
        LaunchConfig(num_blocks=1, threads_per_block=256,
                     shared_mem_per_block=-1)


def test_sm_limits_validation():
    with pytest.raises(ValueError):
        SmLimits(max_threads=0)


def test_occupancy_saturates_at_one_block_per_sm():
    full = compute_spec(sms=V100_16GB.num_sms)
    assert occupancy_factor(full, V100_16GB) == 1.0


def test_occupancy_scales_with_blocks():
    half = compute_spec(sms=V100_16GB.num_sms // 2)
    assert occupancy_factor(half, V100_16GB) == pytest.approx(0.5)


def test_occupancy_floor():
    spec = KernelSpec("one-block", flops=1e9, bytes_moved=1e3,
                      launch=LaunchConfig(num_blocks=1, threads_per_block=32))
    assert occupancy_factor(spec, V100_16GB) == MIN_OCCUPANCY


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def test_classify_compute_by_threshold():
    assert classify_kernel(0.7, 0.2) is ResourceProfile.COMPUTE


def test_classify_memory_by_threshold():
    assert classify_kernel(0.2, 0.7) is ResourceProfile.MEMORY


def test_classify_roofline_fallback_when_below_threshold():
    assert classify_kernel(0.5, 0.3) is ResourceProfile.COMPUTE
    assert classify_kernel(0.3, 0.5) is ResourceProfile.MEMORY


def test_classify_unknown_without_roofline():
    assert classify_kernel(0.3, 0.3, roofline_available=False) \
        is ResourceProfile.UNKNOWN


def test_classify_threshold_wins_even_without_roofline():
    assert classify_kernel(0.9, 0.1, roofline_available=False) \
        is ResourceProfile.COMPUTE


def test_classify_rejects_bad_utilization():
    with pytest.raises(ValueError):
        classify_kernel(1.5, 0.0)


def test_threshold_is_paper_sixty_percent():
    assert UTILIZATION_THRESHOLD == 0.60


def test_profile_opposite():
    assert ResourceProfile.COMPUTE.opposite() is ResourceProfile.MEMORY
    assert ResourceProfile.MEMORY.opposite() is ResourceProfile.COMPUTE
    assert ResourceProfile.UNKNOWN.opposite() is ResourceProfile.UNKNOWN


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_solo_duration_has_launch_floor():
    spec = tiny_spec()
    assert solo_duration(spec, V100_16GB) >= V100_16GB.kernel_min_duration


def test_compute_bound_duration_tracks_flops():
    small = compute_spec("a", duration=1e-3)
    large = compute_spec("b", duration=2e-3)
    assert solo_duration(large, V100_16GB) == pytest.approx(
        2 * solo_duration(small, V100_16GB), rel=0.01
    )


def test_instantiate_classifies_compute_kernel():
    op = instantiate_kernel(compute_spec(), V100_16GB)
    assert op.profile is ResourceProfile.COMPUTE
    assert op.compute_util > op.memory_util


def test_instantiate_classifies_memory_kernel():
    op = instantiate_kernel(memory_spec(), V100_16GB)
    assert op.profile is ResourceProfile.MEMORY
    assert op.memory_util > op.compute_util


def test_tiny_kernel_is_unknown():
    op = instantiate_kernel(tiny_spec(), V100_16GB)
    assert op.duration < V100_16GB.roofline_min_duration
    assert op.profile is ResourceProfile.UNKNOWN


def test_utilizations_bounded():
    for spec in (compute_spec(), memory_spec(), tiny_spec()):
        op = instantiate_kernel(spec, V100_16GB)
        assert 0 <= op.compute_util <= 1
        assert 0 <= op.memory_util <= 1


def test_sm_needed_clamped_to_device():
    spec = compute_spec(sms=100000)
    op = instantiate_kernel(spec, V100_16GB)
    assert op.sm_needed <= V100_16GB.num_sms


def test_a100_runs_compute_kernels_faster():
    spec = compute_spec(sms=700)
    assert solo_duration(spec, A100_40GB) < solo_duration(spec, V100_16GB)


def test_kernel_ops_have_unique_seq():
    spec = compute_spec()
    a = instantiate_kernel(spec, V100_16GB)
    b = instantiate_kernel(spec, V100_16GB)
    assert a.seq != b.seq


def test_launch_matches_a_directly_built_op():
    cost = KernelCost(compute_spec(), V100_16GB)
    op = cost.launch("c0", "fwd")
    direct = KernelOp(spec=cost.spec, duration=cost.duration,
                      compute_util=cost.compute_util,
                      memory_util=cost.memory_util, sm_needed=cost.sm_needed,
                      profile=cost.profile, client_id="c0", seq=op.seq,
                      tag="fwd")
    assert op == direct
    assert vars(op) == vars(direct)
    assert list(vars(op)) == list(vars(direct))


def _bytes_per_op(make, n=10_000) -> float:
    [make() for _ in range(100)]  # warm caches before measuring
    gc.collect()
    tracemalloc.start()
    try:
        ops = [make() for _ in range(n)]
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ops) == n
    return current / n


def test_launch_allocates_no_more_than_a_direct_op():
    """Launched ops keep CPython's key-sharing instance dict: filling
    ``__dict__`` any other way roughly doubles the bytes per op."""
    cost = KernelCost(compute_spec(), V100_16GB)

    def direct():
        return KernelOp(spec=cost.spec, duration=cost.duration,
                        compute_util=cost.compute_util,
                        memory_util=cost.memory_util,
                        sm_needed=cost.sm_needed, profile=cost.profile,
                        client_id="c0", tag="fwd")

    direct_bytes = _bytes_per_op(direct)
    launched_bytes = _bytes_per_op(lambda: cost.launch("c0", "fwd"))
    assert launched_bytes <= direct_bytes * 1.02


@pytest.mark.parametrize("min_duration", [0.0, -1e-6])
def test_kernel_cost_validates_at_bind_time(min_duration):
    """A derived field ``KernelOp`` would reject fails when the spec is
    bound, not at its first launch."""
    device = dataclasses.replace(V100_16GB, kernel_min_duration=min_duration)
    idle = KernelSpec("idle", flops=0.0, bytes_moved=0.0,
                      launch=LaunchConfig(num_blocks=1, threads_per_block=32))
    with pytest.raises(ValueError, match="non-positive duration"):
        KernelCost(idle, device)


@pytest.mark.parametrize("field,value", [
    ("duration", 0.0), ("compute_util", 1.5), ("memory_util", -0.1),
    ("sm_needed", 0)])
def test_directly_built_kernel_op_is_validated(field, value):
    cost = KernelCost(compute_spec(), V100_16GB)
    fields = dict(spec=cost.spec, duration=cost.duration,
                  compute_util=cost.compute_util,
                  memory_util=cost.memory_util, sm_needed=cost.sm_needed,
                  profile=cost.profile)
    fields[field] = value
    with pytest.raises(ValueError):
        KernelOp(**fields)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("bad", flops=-1, bytes_moved=0,
                   launch=LaunchConfig(num_blocks=1, threads_per_block=32))
    with pytest.raises(ValueError):
        KernelSpec("bad", flops=0, bytes_moved=0,
                   launch=LaunchConfig(num_blocks=1, threads_per_block=32),
                   compute_efficiency=0.0)


def test_arithmetic_intensity():
    spec = KernelSpec("ai", flops=100.0, bytes_moved=50.0,
                      launch=LaunchConfig(num_blocks=1, threads_per_block=32))
    assert spec.arithmetic_intensity == 2.0
    spec0 = KernelSpec("ai0", flops=100.0, bytes_moved=0.0,
                       launch=LaunchConfig(num_blocks=1, threads_per_block=32))
    assert spec0.arithmetic_intensity == float("inf")


# ----------------------------------------------------------------------
# Memory ops
# ----------------------------------------------------------------------
def test_memory_op_kinds():
    assert MemoryOpKind.MEMCPY_H2D.is_transfer
    assert MemoryOpKind.MEMCPY_D2H.is_transfer
    assert not MemoryOpKind.MALLOC.is_transfer
    assert MemoryOpKind.MALLOC.synchronizes_device
    assert MemoryOpKind.FREE.synchronizes_device
    assert not MemoryOpKind.MEMSET.synchronizes_device


def test_memory_op_validation():
    with pytest.raises(ValueError):
        MemoryOp(kind=MemoryOpKind.MALLOC, nbytes=-1)


def test_kernel_op_validation():
    spec = compute_spec()
    with pytest.raises(ValueError):
        KernelOp(spec=spec, duration=0.0, compute_util=0.5, memory_util=0.5,
                 sm_needed=1, profile=ResourceProfile.COMPUTE)
    with pytest.raises(ValueError):
        KernelOp(spec=spec, duration=1e-3, compute_util=1.5, memory_util=0.5,
                 sm_needed=1, profile=ResourceProfile.COMPUTE)
    with pytest.raises(ValueError):
        KernelOp(spec=spec, duration=1e-3, compute_util=0.5, memory_util=0.5,
                 sm_needed=0, profile=ResourceProfile.COMPUTE)


def test_is_kernel_flags():
    op = instantiate_kernel(compute_spec(), V100_16GB)
    mem = MemoryOp(kind=MemoryOpKind.MEMCPY_H2D, nbytes=100)
    assert op.is_kernel and not mem.is_kernel


def test_device_spec_overrides():
    from repro.gpu.specs import V100_16GB

    tweaked = V100_16GB.with_overrides(num_sms=40)
    assert tweaked.num_sms == 40
    assert tweaked.peak_flops == V100_16GB.peak_flops
    assert V100_16GB.num_sms == 80  # original untouched


def test_device_spec_validation():
    import pytest as _pytest

    from repro.gpu.specs import V100_16GB, get_device

    with _pytest.raises(ValueError):
        V100_16GB.with_overrides(num_sms=0)
    with _pytest.raises(ValueError):
        V100_16GB.with_overrides(sm_oversubscription=0.5)
    with _pytest.raises(KeyError):
        get_device("H100-80GB")
