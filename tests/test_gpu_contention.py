"""Unit tests for the interference model."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import contention
from repro.gpu.contention import (
    ContentionModel,
    ContentionParams,
    demand_key,
    profile_similarity,
)
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import KernelOp, ResourceProfile

from helpers import BN_LIKE, CONV_LIKE, compute_spec, memory_spec, make_kernel, tiny_spec


def model(**kwargs):
    return ContentionModel(V100_16GB.num_sms, ContentionParams(**kwargs))


def rates_of(kernels, priorities=None):
    priorities = priorities or {}
    return model().rates_by_seq(kernels, priorities)


def test_empty_set_has_no_rates():
    assert rates_of([]) == {}


def test_solo_kernel_runs_at_full_rate():
    k = make_kernel(compute_spec())
    assert rates_of([k])[k.seq] == pytest.approx(1.0)


def test_rates_in_unit_interval():
    kernels = [make_kernel(compute_spec(f"c{i}")) for i in range(4)]
    for rate in rates_of(kernels).values():
        assert 0 < rate <= 1.0


def test_same_profile_compute_kernels_slow_each_other():
    a = make_kernel(compute_spec("a"))
    b = make_kernel(compute_spec("b"))
    rates = rates_of([a, b])
    assert rates[a.seq] < 0.75
    assert rates[b.seq] < 0.75


def test_opposite_profiles_interfere_less_than_same():
    c1 = make_kernel(compute_spec("c1"))
    c2 = make_kernel(compute_spec("c2"))
    m1 = make_kernel(memory_spec("m1"))
    same = rates_of([c1, c2])[c1.seq]
    opposite = rates_of([c1, m1])[c1.seq]
    assert opposite > same


def test_more_co_runners_never_speed_you_up():
    base = make_kernel(compute_spec("base"))
    others = [make_kernel(memory_spec(f"m{i}", blocks=32)) for i in range(3)]
    previous = 1.0
    for n in range(len(others) + 1):
        rate = rates_of([base] + others[:n])[base.seq]
        assert rate <= previous + 1e-12
        previous = rate


def test_priority_discounts_interference_for_high_priority():
    # Small SM footprints so warp-issue arbitration (priority-aware)
    # dominates over block-slot timesharing (priority-blind).
    hp = make_kernel(compute_spec("hp", sms=160))
    be = make_kernel(compute_spec("be", sms=160))
    equal = rates_of([hp, be])[hp.seq]
    prioritized = rates_of([hp, be], {hp.seq: 1, be.seq: 0})[hp.seq]
    assert prioritized > equal


def test_priority_amplifies_interference_for_low_priority():
    hp = make_kernel(compute_spec("hp", sms=160))
    be = make_kernel(compute_spec("be", sms=160))
    equal = rates_of([hp, be])[be.seq]
    deprioritized = rates_of([hp, be], {hp.seq: 1, be.seq: 0})[be.seq]
    assert deprioritized < equal


def test_priority_does_not_discount_sm_slot_competition():
    # Two machine-filling compute kernels timeshare regardless of
    # stream priority (block slots are not preemptible).
    hp = make_kernel(compute_spec("hp", sms=640))
    be = make_kernel(compute_spec("be", sms=640))
    rates = rates_of([hp, be], {hp.seq: 1, be.seq: 0})
    assert rates[hp.seq] <= 0.55


def test_profile_similarity_identical_is_one():
    k = make_kernel(compute_spec())
    assert profile_similarity(k, k) == pytest.approx(1.0)


def test_profile_similarity_opposite_is_low():
    c = make_kernel(CONV_LIKE)
    m = make_kernel(BN_LIKE)
    assert profile_similarity(c, m) < 0.5


def test_profile_similarity_symmetric():
    a = make_kernel(compute_spec("a"))
    b = make_kernel(memory_spec("b"))
    assert profile_similarity(a, b) == pytest.approx(profile_similarity(b, a))


def test_device_utilization_caps_at_one():
    kernels = [make_kernel(compute_spec(f"k{i}")) for i in range(5)]
    c, m, s = model().device_utilization(kernels, [1.0] * len(kernels))
    assert c <= 1.0 and m <= 1.0 and s <= 1.0


def test_device_utilization_scales_with_rate():
    k = make_kernel(compute_spec())
    full, _, _ = model().device_utilization([k], [1.0])
    half, _, _ = model().device_utilization([k], [0.5])
    assert half == pytest.approx(full / 2)


def test_params_validation():
    with pytest.raises(ValueError):
        ContentionParams(alpha_compute=0.5)
    with pytest.raises(ValueError):
        ContentionParams(gamma_sm=-1)
    with pytest.raises(ValueError):
        ContentionParams(beta_coresidency=-0.1)
    with pytest.raises(ValueError):
        ContentionParams(priority_weight_base=0.5)
    with pytest.raises(ValueError):
        ContentionModel(0)


def test_beta_zero_disables_residency_penalty():
    params_off = ContentionParams(beta_coresidency=0.0)
    params_on = ContentionParams(beta_coresidency=0.3)
    a = make_kernel(memory_spec("a", util=0.3, blocks=32))
    b = make_kernel(memory_spec("b", util=0.3, blocks=32))
    off = ContentionModel(80, params_off).rates_by_seq([a, b], {})[a.seq]
    on = ContentionModel(80, params_on).rates_by_seq([a, b], {})[a.seq]
    assert on < off


# ----------------------------------------------------------------------
# rates() memo: bit-identical to the unmemoized model
# ----------------------------------------------------------------------
_demand = st.tuples(
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.89, 1.0]),  # compute_util
    st.sampled_from([0.0, 0.1, 0.3, 0.8, 1.0]),          # memory_util
    st.sampled_from([1, 16, 80, 160, 640]),               # sm_needed
)


@settings(max_examples=60, deadline=None)
@given(palette=st.lists(_demand, min_size=1, max_size=3),
       resident_sets=st.lists(
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=4),
           min_size=1, max_size=40),
       memo_size=st.integers(1, 8))
def test_memoized_rates_match_unmemoized_bit_for_bit(palette, resident_sets,
                                                     memo_size):
    # Resident sets of (demand index, stream priority) over a small
    # palette of demands, so sets repeat (memo hits), also with only the
    # priorities changed; a small memo bound forces clears mid-sequence.
    memoized = model()
    with mock.patch.object(contention, "RATES_MEMO_SIZE", memo_size):
        for members in resident_sets:
            demands = [palette[i % len(palette)] for i, _ in members]
            kernels = [KernelOp(spec=tiny_spec(f"k{i}"), duration=1e-3,
                                compute_util=c, memory_util=m, sm_needed=sm,
                                profile=ResourceProfile.UNKNOWN)
                       for i, (c, m, sm) in enumerate(demands)]
            priorities = {k.seq: p for k, (_, p) in zip(kernels, members)}
            expected = model()._compute_rates(
                [demand_key(k, priorities[k.seq]) for k in kernels])
            got = memoized.rates_by_seq(kernels, priorities)
            assert [got[k.seq].hex() for k in kernels] == \
                [rate.hex() for rate in expected]
            assert len(memoized._memo) <= memo_size
