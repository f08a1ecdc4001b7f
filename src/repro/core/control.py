"""Runtime control of Orion's scheduling knobs.

The paper tunes SM_THRESHOLD at runtime (§5.1.1) and shows the tail
latency is sensitive to DUR_THRESHOLD (§6.4).  A :class:`Controller`
is one simulated process that wakes every ``interval`` seconds and
hands the :class:`~repro.core.scheduler.OrionBackend` to each of its
policies in turn.  Two policies exist:

* :class:`SmThresholdSearch` — the §5.1.1 binary search on
  ``sm_threshold`` for a throughput-oriented high-priority job.  The
  range is [0, largest SM need of any best-effort kernel]; a probe is
  accepted when HP throughput over one interval stays within
  ``tolerance`` of its dedicated-GPU throughput, and the search stops
  once the range is a single value.
* :class:`DurThresholdGuard` — the adaptive SLO guard on
  ``dur_threshold_frac``.  On a **breach** (windowed HP latency
  quantile above ``slo``) it multiplicatively tightens the threshold,
  and once at ``min_dur_frac`` suspends best-effort admission (the
  emergency brake).  On **recovery** (quantile at most
  ``recover_margin`` x ``slo`` for ``recover_checks`` consecutive
  checks — hysteresis, so it never flaps on the boundary) it first
  resumes admission, then relaxes the threshold back toward its
  starting value, one step per hysteresis period.  Between the two
  bands it holds state.

Every action lands in the controller's one record, with rounded time,
action name and observed value plus the policy's own fields, so two
identically seeded runs give byte-identical records, the same
determinism contract the availability ledger honours.  When tracing,
each action is also an instant on the policy's track carrying the
observed value and the new value of the knob the policy writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence

import numpy as np

from repro.profiler.profiles import ModelProfile
from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn

from .scheduler import OrionBackend

__all__ = ["Controller", "DurThresholdGuard", "SmThresholdSearch"]

# Action timestamps are rounded like the availability ledger's.
_TIME_DECIMALS = 9


class Controller:
    """One periodic control loop running ``policies`` over ``backend``.

    Each policy has ``begin(controller)``, called once by
    :meth:`start`, and ``check(controller)``, called every
    ``interval``; a check returning False retires its policy, and the
    loop ends when none is left.
    """

    def __init__(self, sim: Simulator, backend: OrionBackend,
                 interval: float, policies: Sequence):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.backend = backend
        self.interval = interval
        self.policies = list(policies)
        self.actions: List[dict] = []
        self._process = None

    def start(self) -> "Controller":
        if self._process is None:
            for policy in self.policies:
                policy.begin(self)
            self._process = spawn(self.sim, self._run(), "controller")
        return self

    def _run(self):
        active = self.policies
        while active:
            yield Timeout(self.interval)
            active = [policy for policy in active if policy.check(self)]

    def record(self, policy, action: str, observed: float, **fields) -> None:
        observed = round(float(observed), _TIME_DECIMALS)
        tracer = self.backend.tracer
        if tracer.enabled:
            tracer.instant(policy.track, action, observed=observed,
                           **{policy.knob: fields[policy.knob]})
        self.actions.append({
            "time": round(float(self.sim.now), _TIME_DECIMALS),
            "action": action,
            "observed": observed,
            **fields,
        })


@dataclass
class SmThresholdSearch:
    """§5.1.1 binary search on SM_THRESHOLD.

    ``be_profiles`` are the best-effort clients' model profiles; their
    largest kernel sets the top of the search range.  Records one
    ``accept``/``reject`` per probe (observed: HP requests/s over the
    interval) and a final ``settle`` carrying the chosen threshold.
    """

    dedicated_hp_throughput: float
    be_profiles: Sequence[ModelProfile]
    # HP throughput must stay above (1 - tolerance) x dedicated.
    tolerance: float = 0.16

    track: ClassVar[str] = "sm_search"
    knob: ClassVar[str] = "sm_threshold"

    def __post_init__(self):
        if self.dedicated_hp_throughput <= 0:
            raise ValueError("dedicated_hp_throughput must be positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must be in (0, 1)")
        be_max_sm = max((kernel.sm_needed for profile in self.be_profiles
                         for kernel in profile.kernels.values()), default=0)
        if be_max_sm < 1:
            raise ValueError("be_profiles hold no kernel")
        self.target = (1.0 - self.tolerance) * self.dedicated_hp_throughput
        # The SM rule is a strict inequality (sm_needed < SM_THRESHOLD),
        # so searching up to max+1 makes the largest best-effort kernel
        # admissible at the top of the range.
        self.top = be_max_sm + 1

    def begin(self, ctl: Controller) -> None:
        self._lo, self._hi = 0, self.top
        self._probe(ctl)

    def _probe(self, ctl: Controller) -> None:
        self._mid = (self._lo + self._hi + 1) // 2
        ctl.backend.config.sm_threshold = self._mid
        self._completed_before = ctl.backend.hp_requests_completed

    def check(self, ctl: Controller) -> bool:
        throughput = (ctl.backend.hp_requests_completed
                      - self._completed_before) / ctl.interval
        accepted = throughput >= self.target
        ctl.record(self, "accept" if accepted else "reject", throughput,
                   sm_threshold=self._mid)
        if accepted:
            self._lo = self._mid
        else:
            self._hi = self._mid - 1
        if self._lo < self._hi:
            self._probe(ctl)
            return True
        ctl.record(self, "settle", throughput, sm_threshold=self._lo)
        ctl.backend.config.sm_threshold = max(self._lo, 1)
        return False


@dataclass
class DurThresholdGuard:
    """Adaptive SLO guard on DUR_THRESHOLD.

    ``slo`` is the HP latency target in seconds for the windowed
    ``quantile``; the window itself lives on the backend
    (``OrionBackend.hp_latency_window``, ``HP_WINDOW`` long).  Records
    carry the SLO, the new ``dur_threshold_frac`` and whether admission
    is suspended.
    """

    slo: float
    quantile: float = 99.0
    min_samples: int = 8
    tighten_factor: float = 0.5
    relax_factor: float = 2.0
    min_dur_frac: float = 0.004
    recover_margin: float = 0.85
    recover_checks: int = 3
    #: Clear the latency window after every actuation, so the next
    #: decision measures the *new* operating point instead of acting
    #: again on samples taken under the old one (the min_samples gate
    #: then provides the settle time).  Without this a slow-refreshing
    #: window makes the guard over-tighten: several actions land before
    #: a single stale breach sample ages out.
    reset_window_on_action: bool = True

    track: ClassVar[str] = "sloguard"
    knob: ClassVar[str] = "dur_threshold_frac"
    ACTIONS: ClassVar[tuple] = ("tighten", "suspend", "resume", "relax")

    def __post_init__(self):
        if self.slo <= 0:
            raise ValueError("slo must be positive")
        if not 0 < self.quantile <= 100:
            raise ValueError("quantile must be in (0, 100]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0 < self.tighten_factor < 1:
            raise ValueError("tighten_factor must be in (0, 1)")
        if self.relax_factor <= 1:
            raise ValueError("relax_factor must be > 1")
        if self.min_dur_frac <= 0:
            raise ValueError("min_dur_frac must be positive")
        if not 0 < self.recover_margin <= 1:
            raise ValueError("recover_margin must be in (0, 1]")
        if self.recover_checks < 1:
            raise ValueError("recover_checks must be >= 1")
        self.breaches = 0
        self._healthy_streak = 0

    def begin(self, ctl: Controller) -> None:
        # The value the threshold relaxes back toward.
        self.baseline_dur_frac = ctl.backend.config.dur_threshold_frac

    def windowed_quantile(self, backend: OrionBackend) -> Optional[float]:
        """Current windowed latency quantile (None below min_samples)."""
        window = backend.hp_latency_window
        if len(window) < self.min_samples:
            return None
        return float(np.percentile(np.asarray(window, dtype=float),
                                   self.quantile))

    def check(self, ctl: Controller) -> bool:
        observed = self.windowed_quantile(ctl.backend)
        if observed is None:
            return True
        if observed > self.slo:
            self.breaches += 1
            self._healthy_streak = 0
            self._tighten(ctl, observed)
        elif observed <= self.recover_margin * self.slo:
            self._healthy_streak += 1
            if self._healthy_streak >= self.recover_checks:
                self._relax(ctl, observed)
        else:
            # Dead band: neither breached nor clearly recovered — hold,
            # and require recovery to restart its streak.
            self._healthy_streak = 0
        return True

    def _tighten(self, ctl: Controller, observed: float) -> None:
        backend = ctl.backend
        policy = backend.config
        if policy.dur_threshold_frac > self.min_dur_frac:
            policy.dur_threshold_frac = max(
                self.min_dur_frac,
                policy.dur_threshold_frac * self.tighten_factor)
            self._record(ctl, "tighten", observed)
        elif not backend.be_admission_suspended:
            backend.suspend_be_admission()
            self._record(ctl, "suspend", observed)
        # Already suspended at the floor: nothing further to withhold.

    def _relax(self, ctl: Controller, observed: float) -> None:
        backend = ctl.backend
        policy = backend.config
        if backend.be_admission_suspended:
            backend.resume_be_admission()
            self._record(ctl, "resume", observed)
        elif policy.dur_threshold_frac < self.baseline_dur_frac:
            policy.dur_threshold_frac = min(
                self.baseline_dur_frac,
                policy.dur_threshold_frac * self.relax_factor)
            self._record(ctl, "relax", observed)
        else:
            return  # fully relaxed; keep the streak, nothing to record
        # One relax step per hysteresis period: re-earn the streak
        # before the next step, so recovery is gradual by construction.
        self._healthy_streak = 0

    def _record(self, ctl: Controller, action: str, observed: float) -> None:
        backend = ctl.backend
        if self.reset_window_on_action:
            backend.hp_latency_window.clear()
        ctl.record(self, action, observed,
                   slo=round(float(self.slo), _TIME_DECIMALS),
                   dur_threshold_frac=round(
                       float(backend.config.dur_threshold_frac), 12),
                   suspended=backend.be_admission_suspended)

    def summary(self, ctl: Controller) -> dict:
        """Telemetry snapshot for results/benchmarks."""
        counts: Dict[str, int] = {}
        for entry in ctl.actions:
            if entry["action"] in self.ACTIONS:
                counts[entry["action"]] = counts.get(entry["action"], 0) + 1
        return {
            "breach_checks": self.breaches,
            "actions": counts,
            "final_dur_threshold_frac": ctl.backend.config.dur_threshold_frac,
            "suspended_at_end": ctl.backend.be_admission_suspended,
        }
