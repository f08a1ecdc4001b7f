"""Orion's kernel scheduling policy (Listing 1): tunables and rules.

The rules are applied by ``OrionBackend._try_launch_be``, the one
implementation of Listing 1's ``schedule_be`` and duration throttle;
:class:`~repro.core.scheduler.OrionConfig` holds their thresholds and
the Figure-14 ablation switches that turn each rule off:

* profile rule  — a best-effort kernel may co-run only if its
  compute/memory profile differs from the current high-priority
  kernel's (unknown profiles are optimistically allowed, §5.2);
* SM rule       — the best-effort kernel must need fewer SMs than
  SM_THRESHOLD so it cannot starve high-priority thread blocks;
* duration rule — outstanding (submitted but unfinished) best-effort
  work is capped at DUR_THRESHOLD x the high-priority request latency,
  because submitted kernels cannot be preempted.
"""

from __future__ import annotations

from repro.kernels.kernel import ResourceProfile

__all__ = ["DEFAULT_DUR_THRESHOLD_FRAC", "have_different_profiles"]

# Paper default: 2.5% of the high-priority request latency (§6.4).
DEFAULT_DUR_THRESHOLD_FRAC = 0.025


def have_different_profiles(hp: ResourceProfile, be: ResourceProfile) -> bool:
    """True when collocation is low-interference by the roofline classes.

    Unknown kernels are tiny and freely collocatable (paper §5.2).
    """
    if ResourceProfile.UNKNOWN in (hp, be):
        return True
    return hp is not be
