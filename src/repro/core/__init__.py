"""Orion: the interference-aware, fine-grained GPU scheduler (paper §5)."""

from .autotune import SmThresholdTuner, TunerConfig
from .policy import (
    DEFAULT_DUR_THRESHOLD_FRAC,
    PolicyConfig,
    have_different_profiles,
)
from .scheduler import (
    ORION_INTERCEPTION_OVERHEAD,
    OVERLOAD_POLICIES,
    OrionBackend,
    OrionConfig,
)
from .sloguard import SloGuard, SloGuardConfig

__all__ = [
    "OrionBackend",
    "OrionConfig",
    "OVERLOAD_POLICIES",
    "SloGuard",
    "SloGuardConfig",
    "ORION_INTERCEPTION_OVERHEAD",
    "PolicyConfig",
    "have_different_profiles",
    "DEFAULT_DUR_THRESHOLD_FRAC",
    "SmThresholdTuner",
    "TunerConfig",
]
