"""Bound kernel costs and resident-set rate keys are exact memoizations.

* ``kernel_cost(spec, device).launch(...)`` equals the roofline formulas
  field by field, on every catalog device, including the occupancy
  floor, the roofline-availability boundary and the SM clamp.
* Every ``RunningKernel.rate`` the device assigns is bit-identical to
  the dict-by-``seq`` wrapper's rate times ``1/slowdown``, and the
  recorded utilization segments match the dict computation.
* Bindings live exactly as long as their owner: after an LLM run, the
  engine's prefill/decode specs are garbage.
"""

import gc
import math
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run
from repro.gpu.contention import ContentionModel
from repro.gpu.device import GpuDevice
from repro.gpu.specs import DEVICES, V100_16GB
from repro.kernels.classify import classify_kernel
from repro.kernels.costmodel import MIN_OCCUPANCY, SATURATION_BLOCKS_PER_SM, kernel_cost
from repro.kernels.kernel import KernelOp, KernelSpec, ResourceProfile
from repro.kernels.launch import LaunchConfig, sm_needed
from repro.sim.engine import Simulator
from repro.workloads import llmserve

from helpers import tiny_spec

# ----------------------------------------------------------------------
# Bound costs
# ----------------------------------------------------------------------
_devices = st.sampled_from(sorted(DEVICES.values(), key=lambda d: d.name))

_specs = st.builds(
    KernelSpec,
    name=st.just("bound-k"),
    flops=st.one_of(st.just(0.0), st.floats(1.0, 1e13)),
    bytes_moved=st.one_of(st.just(0.0), st.floats(1.0, 1e11)),
    launch=st.builds(
        LaunchConfig,
        num_blocks=st.integers(1, 200_000),
        threads_per_block=st.integers(1, 1024),
        registers_per_thread=st.integers(1, 255),
        shared_mem_per_block=st.integers(0, 160 * 1024),
    ),
    compute_efficiency=st.floats(0.01, 1.0),
    memory_efficiency=st.floats(0.01, 1.0),
)


def _roofline(spec, device):
    """The cost model's formulas, written out independently."""
    saturation = device.num_sms * SATURATION_BLOCKS_PER_SM
    occupancy = min(1.0, max(MIN_OCCUPANCY, spec.launch.num_blocks / saturation))
    t_compute = spec.flops / (device.peak_flops * spec.compute_efficiency * occupancy)
    t_memory = spec.bytes_moved / (device.memory_bandwidth * spec.memory_efficiency)
    duration = max(t_compute, t_memory, 0.0) + device.kernel_min_duration
    compute_util = min(1.0, spec.flops / duration / device.peak_flops)
    memory_util = min(1.0, spec.bytes_moved / duration / device.memory_bandwidth)
    return {
        "duration": duration,
        "compute_util": compute_util,
        "memory_util": memory_util,
        "sm_needed": min(device.num_sms, sm_needed(spec.launch, device.sm_limits)),
        "profile": classify_kernel(
            compute_util, memory_util,
            roofline_available=duration >= device.roofline_min_duration),
    }


def _fields(op):
    return {name: getattr(op, name) for name in
            ("duration", "compute_util", "memory_util", "sm_needed", "profile")}


@settings(max_examples=200, deadline=None)
@given(spec=_specs, device=_devices)
def test_bound_launch_equals_roofline(spec, device):
    cost = kernel_cost(spec, device)
    first = cost.launch("c0", "forward")
    second = cost.launch("c1", "backward")
    expected = _roofline(spec, device)
    assert _fields(first) == expected
    assert _fields(second) == expected
    assert first.spec is spec and second.spec is spec
    assert (first.client_id, first.tag) == ("c0", "forward")
    assert (second.client_id, second.tag) == ("c1", "backward")
    # Every launch is a fresh op with its own identity.
    assert first is not second and first.seq != second.seq


def test_occupancy_floor():
    # One block on a machine of 80/108 SMs: 1/num_sms is below the floor.
    for device in DEVICES.values():
        assert 1 / device.num_sms < MIN_OCCUPANCY
        spec = KernelSpec("one-block", flops=1e9, bytes_moved=0.0,
                          launch=LaunchConfig(num_blocks=1, threads_per_block=256),
                          compute_efficiency=0.5)
        op = kernel_cost(spec, device).launch()
        floored = spec.flops / (device.peak_flops * 0.5 * MIN_OCCUPANCY)
        assert op.duration == floored + device.kernel_min_duration
        assert op.duration == _roofline(spec, device)["duration"]


def test_roofline_min_duration_boundary():
    # Low utilizations, so only roofline availability decides the class.
    spec = tiny_spec("boundary")
    for device in DEVICES.values():
        duration = kernel_cost(spec, device).duration
        at = device.with_overrides(roofline_min_duration=duration)
        above = device.with_overrides(
            roofline_min_duration=math.nextafter(duration, math.inf))
        at_op = kernel_cost(spec, at).launch()
        above_op = kernel_cost(spec, above).launch()
        assert at_op.duration == above_op.duration == duration
        assert at_op.profile is not ResourceProfile.UNKNOWN
        assert above_op.profile is ResourceProfile.UNKNOWN
        assert _fields(at_op) == _roofline(spec, at)
        assert _fields(above_op) == _roofline(spec, above)


def test_sm_needed_clamped_to_num_sms():
    spec = KernelSpec("huge-grid", flops=1e12, bytes_moved=1e9,
                      launch=LaunchConfig(num_blocks=1_000_000,
                                          threads_per_block=1024))
    for device in DEVICES.values():
        assert sm_needed(spec.launch, device.sm_limits) > device.num_sms
        assert kernel_cost(spec, device).launch().sm_needed == device.num_sms


# ----------------------------------------------------------------------
# Resident-set rate keys
# ----------------------------------------------------------------------
_resident = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.89, 1.0]),  # compute_util
        st.sampled_from([0.0, 0.1, 0.3, 0.8, 1.0]),          # memory_util
        st.sampled_from([1, 16, 40, 80]),                     # sm_needed
        st.sampled_from([0, 1]),                              # stream priority
    ),
    min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(members=_resident, slowdown=st.sampled_from([1.0, 3.0]))
def test_device_rates_match_dict_wrapper(members, slowdown):
    sim = Simulator()
    device = GpuDevice(sim, V100_16GB, record_utilization=True)
    for i, (c, m, sms, priority) in enumerate(members):
        op = KernelOp(spec=tiny_spec(f"r{i}"), duration=1e-3 * (i + 1),
                      compute_util=c, memory_util=m, sm_needed=sms,
                      profile=ResourceProfile.UNKNOWN)
        device.create_stream(priority=priority).submit(op)
    sim.run(until=1e-5)
    device.set_slowdown(slowdown)
    running = list(device.running.values())
    assert running
    ops = [r.op for r in running]
    priorities = {r.op.seq: r.stream_op.stream.priority for r in running}
    by_seq = ContentionModel(V100_16GB.num_sms).rates_by_seq(ops, priorities)
    inv = 1.0 / slowdown
    expected = [by_seq[op.seq] * inv for op in ops]
    assert [r.rate.hex() for r in running] == [rate.hex() for rate in expected]

    # The next segment closes under these rates: compare it with the
    # utilization computed from the dict.
    sim.run(until=2e-5)
    device.set_slowdown(slowdown * 2)
    start, end, compute, memory, sm = device.utilization_segments[-1]
    assert end == 2e-5 and start < end
    assert compute == min(1.0, sum(op.compute_util * rate
                                   for op, rate in zip(ops, expected)))
    assert memory == min(1.0, sum(op.memory_util * rate
                                  for op, rate in zip(ops, expected)))
    assert sm == min(1.0, sum(op.sm_needed for op in ops) / V100_16GB.num_sms)


# ----------------------------------------------------------------------
# Binding lifetimes
# ----------------------------------------------------------------------
def test_llm_engine_bindings_freed_with_the_run():
    refs = []

    def tracking(build):
        def wrapper(*args, **kwargs):
            specs = build(*args, **kwargs)
            refs.extend(weakref.ref(spec) for spec in specs)
            return specs
        return wrapper

    with mock.patch.object(llmserve, "_prefill_specs",
                           tracking(llmserve._prefill_specs)), \
            mock.patch.object(llmserve, "_decode_step_specs",
                              tracking(llmserve._decode_step_specs)):
        result = run(make_scenario("llm_ref", seed=0, duration=0.06))
    assert result.to_json()
    del result
    gc.collect()
    assert refs
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} LLM kernel specs outlive the run"
