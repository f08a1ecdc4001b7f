"""Orion: the interference-aware, fine-grained GPU scheduler (paper §5)."""

from .control import Controller, DurThresholdGuard, SmThresholdSearch
from .policy import DEFAULT_DUR_THRESHOLD_FRAC, have_different_profiles
from .scheduler import (
    ORION_INTERCEPTION_OVERHEAD,
    OVERLOAD_POLICIES,
    OrionBackend,
    OrionConfig,
)

__all__ = [
    "OrionBackend",
    "OrionConfig",
    "OVERLOAD_POLICIES",
    "Controller",
    "DurThresholdGuard",
    "ORION_INTERCEPTION_OVERHEAD",
    "have_different_profiles",
    "DEFAULT_DUR_THRESHOLD_FRAC",
    "SmThresholdSearch",
]
