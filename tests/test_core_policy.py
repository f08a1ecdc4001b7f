"""Orion's admission policy (Listing 1), driven through OrionBackend.

The rules live in one place, ``OrionBackend._try_launch_be``.  Each
test here queues one best-effort kernel with a chosen profiled class,
SM footprint and duration, sets up the high-priority side, runs the
scheduler's first pass on a real simulator, and reads the decision off
the backend: was the kernel admitted to its stream or left queued?
"""

import pytest

from repro.core.policy import DEFAULT_DUR_THRESHOLD_FRAC, have_different_profiles
from repro.core.scheduler import OrionBackend, OrionConfig
from repro.gpu.device import GpuDevice
from repro.gpu.specs import V100_16GB
from repro.kernels.kernel import KernelOp, MemoryOp, MemoryOpKind, ResourceProfile
from repro.profiler.profiles import KernelProfile, ModelProfile, ProfileStore
from repro.sim.engine import Simulator

from helpers import tiny_spec

C = ResourceProfile.COMPUTE
M = ResourceProfile.MEMORY
U = ResourceProfile.UNKNOWN
#: The HP job is mid-transfer: it is running, but no HP kernel (and so
#: no HP profile) is on its stream.
HP_COPY = "copy"
SM_THRESHOLD = V100_16GB.num_sms  # the paper default: every SM


def _kernel(name: str, profile: ResourceProfile = U) -> KernelOp:
    # The op's own figures are irrelevant: decisions use profiled ones.
    return KernelOp(spec=tiny_spec(name), duration=1e-4, compute_util=0.5,
                    memory_util=0.5, sm_needed=1, profile=profile)


def admits(be_profile=M, sm=10, duration=1e-4, hp=None, outstanding=0.0,
           hp_latency=10e-3, **config) -> bool:
    """Whether Orion's first scheduler pass admits one queued BE kernel.

    ``be_profile``/``sm``/``duration`` are the kernel's profiled class,
    SM need and duration.  ``hp`` is None (HP job idle), a
    ResourceProfile (an HP kernel of that class on the HP stream), or
    HP_COPY.  ``outstanding`` > 0 first admits a BE kernel of that
    profiled duration, so the candidate meets a pipeline already holding
    that much unfinished work.  ``config`` sets OrionConfig knobs.
    """
    sim = Simulator()
    model = ModelProfile("policy", "training", V100_16GB.name, hp_latency)
    model.kernels["be-k"] = KernelProfile("be-k", duration, 0.5, 0.5, sm,
                                          be_profile)
    model.kernels["be-filler"] = KernelProfile("be-filler", outstanding,
                                               0.5, 0.5, 1, M)
    store = ProfileStore()
    store.add(model)
    backend = OrionBackend(sim, GpuDevice(sim, V100_16GB), store,
                           OrionConfig(hp_request_latency=hp_latency,
                                       **config))
    backend.register_client("hp", True, "inference")
    backend.register_client("be", False, "training")
    backend.start()
    if hp == HP_COPY:
        backend.submit("hp", MemoryOp(MemoryOpKind.MEMCPY_H2D, 1 << 20))
    elif hp is not None:
        backend.submit("hp", _kernel("hp-k", hp))
    if outstanding:
        backend.submit("be", _kernel("be-filler"))
    backend.submit("be", _kernel("be-k"))
    sim.step()  # the first scheduler pass
    if outstanding:
        assert backend.be_kernels_launched >= 1, "filler was not admitted"
    return backend.queue_telemetry()["be"]["depth"] == 0


# ----------------------------------------------------------------------
# have_different_profiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hp,be,expected", [
    (C, C, False),
    (M, M, False),
    (C, M, True),
    (M, C, True),
    (U, C, True),
    (U, M, True),
    (C, U, True),
    (M, U, True),
    (U, U, True),
])
def test_profile_compatibility_table(hp, be, expected):
    assert have_different_profiles(hp, be) is expected


# ----------------------------------------------------------------------
# Listing 1's schedule_be: SM and profile rules while the HP task runs
# ----------------------------------------------------------------------
def test_be_allowed_when_hp_idle_regardless_of_profile():
    assert admits(C, sm=1000)


def test_be_blocked_same_profile_while_hp_running():
    assert not admits(C, sm=10, hp=C)


def test_be_allowed_opposite_profile_small_kernel():
    assert admits(M, sm=10, hp=C)


def test_be_blocked_by_sm_threshold():
    assert not admits(M, sm=SM_THRESHOLD, hp=C)


def test_sm_threshold_is_strict_inequality():
    assert admits(M, sm=SM_THRESHOLD - 1, hp=C)
    assert not admits(M, sm=SM_THRESHOLD, hp=C)


def test_unknown_be_profile_is_optimistically_allowed():
    assert admits(U, sm=10, hp=C)
    assert admits(U, sm=10, hp=M)


def test_unknown_hp_profile_allows_any_be():
    assert admits(C, sm=10, hp=HP_COPY)


def test_ablation_disable_profiles():
    assert admits(C, sm=10, hp=C, use_profiles=False)


def test_ablation_disable_sm_limit():
    assert admits(M, sm=500, hp=C, use_sm_limit=False)


def test_ablation_disable_both_admits_everything():
    assert admits(C, sm=500, hp=C, use_profiles=False, use_sm_limit=False)


# ----------------------------------------------------------------------
# Duration throttle (Listing 1 lines 12-16)
# ----------------------------------------------------------------------
def test_default_threshold_is_paper_value():
    assert DEFAULT_DUR_THRESHOLD_FRAC == 0.025


def test_throttled_above_budget():
    hp_latency = 10e-3  # budget = 250 us
    assert not admits(outstanding=300e-6, hp_latency=hp_latency)
    assert admits(outstanding=200e-6, hp_latency=hp_latency)


def test_budget_scales_with_hp_latency():
    assert admits(outstanding=1e-3, hp_latency=100e-3)
    assert not admits(outstanding=1e-3, hp_latency=10e-3)


def test_custom_threshold_fraction():
    assert admits(outstanding=1.9e-3, dur_threshold_frac=0.2)
    assert not admits(outstanding=2.1e-3, dur_threshold_frac=0.2)


def test_ablation_disable_throttle():
    assert admits(outstanding=1e6, hp_latency=1e-3, use_dur_throttle=False)


def test_long_be_kernel_deferred_only_while_hp_running():
    # The extension over the listing: a kernel longer than the whole
    # budget may not start under the HP job, but may when it is idle.
    assert not admits(C, duration=300e-6, hp=M)
    assert admits(C, duration=200e-6, hp=M)
    assert admits(C, duration=300e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        OrionConfig(sm_threshold=-1)
    with pytest.raises(ValueError):
        OrionConfig(dur_threshold_frac=0.0)
    with pytest.raises(ValueError):
        OrionConfig(dur_threshold_frac=1.5)
