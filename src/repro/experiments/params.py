"""Typed per-kind scenario parameter surfaces.

Before this module, the non-experiment scenario kinds (overload,
faults, fleet, llm) each carried an untyped ``params`` kwargs dict that
was only checked when the implementation function finally ran — a typo
in a knob name surfaced minutes into a sweep instead of at build time.
Each kind now has a frozen dataclass mirroring its implementation
signature exactly; :func:`validate_params` is invoked from
``Scenario.__post_init__`` so **every** construction path (CLI flags,
``make_scenario`` overrides, serve-daemon submits, hand-built
scenarios) fails fast on unknown keys or out-of-range values.

The dataclasses are also constructors: ``OverloadParams(be_clients=4)
.to_params()`` renders the sparse override dict a ``Scenario`` carries
(only non-default fields), which keeps ``describe()`` and the scenario
catalog stable.  The CLI builds its params through these types.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "OverloadParams",
    "FaultsParams",
    "FleetParams",
    "LlmParams",
    "PARAM_TYPES",
    "EXPERIMENT_BACKENDS",
    "FAULTS_BACKENDS",
    "FLEET_BACKENDS",
    "LLM_BACKENDS",
    "validate_params",
]

# Kept as literals (not imports) so scenario construction stays light;
# the implementations assert the same sets at run time.
_OVERLOAD_POLICIES = ("block", "reject")
_CACHE_POLICIES = ("evict", "block")
_OVERLOAD_ARRIVALS = ("poisson", "burst", "ramp")

#: Backends each scenario kind runs on: names in
#: ``repro.experiments.testbed.BACKENDS``.  Overload scenarios are
#: Orion-only and have no backend knob.
EXPERIMENT_BACKENDS = ("orion", "reef", "mps", "streams", "priority-streams",
                       "temporal", "ticktock", "ideal")
FAULTS_BACKENDS = ("orion", "reef", "streams", "priority-streams")
FLEET_BACKENDS = ("orion", "reef", "streams", "priority-streams")
LLM_BACKENDS = ("orion", "temporal", "streams", "priority-streams")


class _ParamsBase:
    """Shared machinery: sparse rendering + common range checks."""

    def to_params(self) -> Dict[str, Any]:
        """Sparse params dict: only fields that differ from defaults."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default is not MISSING else MISSING
            if default is MISSING or value != default:
                out[f.name] = value
        return out

    def _require_positive(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    def _require_non_negative(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    def _require_choice(self, name: str, choices) -> None:
        value = getattr(self, name)
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class OverloadParams(_ParamsBase):
    """Knobs of ``Scenario(kind="overload")`` (see experiments.overload)."""

    seed: int = 0
    duration: float = 0.4
    model: str = "mobilenet_v2"
    device: str = "V100-16GB"
    be_clients: int = 2
    hp_load: float = 0.3
    be_load: float = 2.0
    arrivals: str = "poisson"
    deadline_mult: Optional[float] = 20.0
    slo_mult: float = 1.2
    guard: bool = True
    queue_depth: Optional[int] = 32
    policy: str = "block"
    initial_dur_frac: float = 0.35
    warmup: float = 0.0
    telemetry: Optional[object] = None

    def __post_init__(self):
        self._require_positive("duration", "hp_load", "slo_mult",
                               "deadline_mult", "queue_depth",
                               "initial_dur_frac")
        self._require_non_negative("be_clients", "be_load", "warmup")
        self._require_choice("policy", _OVERLOAD_POLICIES)
        self._require_choice("arrivals", _OVERLOAD_ARRIVALS)


@dataclass(frozen=True)
class FaultsParams(_ParamsBase):
    """Knobs of ``Scenario(kind="faults")`` (see faults.scenario)."""

    seed: int = 0
    duration: float = 0.2
    plan: Optional[object] = None   #: FaultPlan; None samples from seed
    backend: str = "orion"
    be_clients: int = 2
    model: str = "mobilenet_v2"
    device: str = "V100-16GB"
    hp_rps: float = 100.0
    watchdog_multiple: Optional[float] = None
    warmup: float = 0.0

    def __post_init__(self):
        self._require_positive("duration", "hp_rps", "watchdog_multiple")
        self._require_non_negative("be_clients", "warmup")
        self._require_choice("backend", FAULTS_BACKENDS)


@dataclass(frozen=True)
class FleetParams(_ParamsBase):
    """Knobs of ``Scenario(kind="fleet")`` (see cluster.fleet)."""

    seed: int = 0
    duration: float = 0.2
    num_gpus: int = 8
    backend: str = "orion"
    model: str = "mobilenet_v2"
    device: str = "V100-16GB"
    tenants: Optional[object] = None  #: Sequence[TenantSpec]
    plan: Optional[object] = None     #: FaultPlan
    crashes: int = 1
    degrades: int = 1
    slowdown: float = 3.0
    recover_after: Optional[float] = None
    hp_load: float = 0.25
    be_load: float = 0.35
    be_tenants: int = 2
    interference_weight: float = 1.0
    health_weight: float = 4.0
    warmup: float = 0.0
    telemetry: Optional[object] = None
    placement: object = "all"
    max_tenants_per_gpu: int = 2
    rebalance: bool = False
    rebalance_interval: float = 0.02
    migration_cooldown: float = 0.04
    max_inflight_migrations: int = 1
    migration_min_gain: float = 0.05
    migration_cost_weight: float = 1.0
    measure_window: int = 32
    measure_min_samples: int = 8

    def __post_init__(self):
        self._require_positive("duration", "num_gpus", "slowdown",
                               "recover_after", "rebalance_interval",
                               "max_tenants_per_gpu", "measure_window",
                               "measure_min_samples")
        self._require_non_negative("crashes", "degrades", "be_tenants",
                                   "warmup", "hp_load", "be_load",
                                   "migration_cooldown",
                                   "max_inflight_migrations",
                                   "migration_min_gain")
        self._require_choice("backend", FLEET_BACKENDS)


@dataclass(frozen=True)
class LlmParams(_ParamsBase):
    """Knobs of ``Scenario(kind="llm")`` (see workloads.llmserve)."""

    seed: int = 0
    duration: float = 0.2
    model: str = "llm-small"
    device: str = "V100-16GB"
    backend: str = "orion"
    request_rate: float = 80.0
    prompt_mean: float = 64.0
    prompt_cap: int = 256
    output_mean: float = 8.0
    output_cap: int = 64
    max_batch: int = 8
    kv_budget_mb: Optional[float] = None
    kv_block_tokens: int = 16
    cache_policy: str = "evict"
    be_model: str = "mobilenet_v2"
    be_clients: int = 1
    protect_prefill: bool = True
    ttft_slo_mult: float = 3.0
    warmup: float = 0.0
    telemetry: Optional[object] = None

    def __post_init__(self):
        self._require_positive("duration", "request_rate", "prompt_mean",
                               "prompt_cap", "output_mean", "output_cap",
                               "max_batch", "kv_budget_mb",
                               "kv_block_tokens", "ttft_slo_mult")
        self._require_non_negative("be_clients", "warmup")
        self._require_choice("cache_policy", _CACHE_POLICIES)
        self._require_choice("backend", LLM_BACKENDS)
        if self.prompt_mean > self.prompt_cap:
            raise ValueError("prompt_mean must be <= prompt_cap")
        if self.output_mean > self.output_cap:
            raise ValueError("output_mean must be <= output_cap")


#: kind -> typed params dataclass (experiment scenarios carry an
#: ExperimentConfig instead and are validated by it).
PARAM_TYPES = {
    "overload": OverloadParams,
    "faults": FaultsParams,
    "fleet": FleetParams,
    "llm": LlmParams,
}


def validate_params(kind: str, params: Mapping[str, Any]) -> None:
    """Fail fast on unknown or out-of-range knobs for ``kind``.

    Raises ``ValueError`` naming the offending key (with the valid
    surface) or the out-of-range value.  Does not mutate or expand
    ``params`` — scenarios keep carrying sparse override dicts.
    """
    cls = PARAM_TYPES.get(kind)
    if cls is None:
        return
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown {kind} scenario parameter(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known))}")
    cls(**params)  # range/choice checks in __post_init__
