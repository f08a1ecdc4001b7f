"""Typed per-kind scenario parameter surfaces: one declaration per knob.

Each scenario kind (experiment, overload, faults, fleet, llm) has a
frozen dataclass here.  A field, declared through :func:`knob`, is the
only place its knob's name, type, default, choices, range and CLI help
are written:

* ``run(scenario)`` builds ``PARAM_TYPES[kind](**scenario.params)`` and
  passes the validated instance to the kind's implementation, so the
  implementations neither restate defaults nor re-check ranges;
* ``repro.cli`` generates each kind's flags from the same fields.

:func:`validate_params` is invoked from ``Scenario.__post_init__`` so
**every** construction path (CLI flags, ``make_scenario`` overrides,
serve-daemon submits, hand-built scenarios) fails fast on unknown keys,
out-of-range values and contradictory combinations.  ``to_params()``
renders the sparse override dict a ``Scenario`` carries (only
non-default fields), which keeps ``describe()`` and the scenario
catalog stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "JobSpec",
    "ExperimentParams",
    "OverloadParams",
    "FaultsParams",
    "FleetParams",
    "LlmParams",
    "PARAM_TYPES",
    "EXPERIMENT_BACKENDS",
    "FAULTS_BACKENDS",
    "FLEET_BACKENDS",
    "LLM_BACKENDS",
    "check_keys",
    "validate_params",
]

# Kept as literals (not imports) so scenario construction stays light;
# the implementations assert the same sets at run time.
_OVERLOAD_POLICIES = ("block", "reject")
_CACHE_POLICIES = ("evict", "block")
_OVERLOAD_ARRIVALS = ("poisson", "burst", "ramp")
_FLEET_PLACEMENTS = ("all", "plan", "adversarial")

#: Backends each scenario kind runs on: names in
#: ``repro.experiments.testbed.BACKENDS``.  Overload scenarios are
#: Orion-only and have no backend knob.
EXPERIMENT_BACKENDS = ("orion", "reef", "mps", "streams", "priority-streams",
                       "temporal", "ticktock", "ideal")
FAULTS_BACKENDS = ("orion", "reef", "streams", "priority-streams")
FLEET_BACKENDS = ("orion", "reef", "streams", "priority-streams")
LLM_BACKENDS = ("orion", "temporal", "streams", "priority-streams")


def knob(default: Any, help: Optional[str] = None, *,
         check: Optional[str] = None, choices: Optional[tuple] = None,
         mapping: bool = False):
    """Declare one scenario knob as a dataclass field.

    ``check`` is ``"positive"`` or ``"non_negative"`` (a ``None``
    value passes it); ``choices`` is the tuple both validation and the CLI
    read; ``mapping`` also accepts an explicit mapping in place of a
    named choice.  ``help`` is the CLI help text.
    """
    return field(default=default, metadata={
        "help": help, "check": check, "choices": choices, "mapping": mapping})


class _ParamsBase:
    """Shared machinery: per-knob checks + sparse rendering."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            check, choices = f.metadata["check"], f.metadata["choices"]
            if choices is not None and value not in choices and not (
                    f.metadata["mapping"] and isinstance(value, Mapping)):
                raise ValueError(
                    f"{f.name} must be one of {choices}, got {value!r}")
            if value is None:
                continue
            if check == "positive" and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")
            if check == "non_negative" and value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")

    def to_params(self) -> Dict[str, Any]:
        """Sparse params dict: only fields that differ from defaults."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) != f.default}


_SEED_HELP = "root RNG seed"
_DURATION_HELP = "simulated seconds"
_WARMUP_HELP = "exclude requests arriving before this time"


@dataclass(frozen=True)
class JobSpec:
    """One client job in a collocation experiment."""

    model: str
    kind: str  # "inference" | "training"
    high_priority: bool = False
    arrivals: str = "closed"  # closed | uniform | poisson | apollo
    rps: float = 0.0
    batch_size: int = 0  # 0 -> the paper's Table 1 default
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("inference", "training"):
            raise ValueError(f"bad job kind {self.kind!r}")
        if self.arrivals not in ("closed", "uniform", "poisson", "apollo"):
            raise ValueError(f"bad arrival kind {self.arrivals!r}")
        if self.arrivals in ("uniform", "poisson") and self.rps <= 0:
            raise ValueError(f"{self.arrivals} arrivals need rps > 0")
        if self.kind == "training" and self.arrivals != "closed":
            raise ValueError("training jobs run closed-loop")
        if not self.name:
            role = "hp" if self.high_priority else "be"
            object.__setattr__(
                self, "name", f"{role}-{self.model}-{self.kind}")


@dataclass(frozen=True)
class ExperimentParams(_ParamsBase):
    """Knobs of ``Scenario(kind="experiment")``: a full collocation
    experiment (see experiments.runner)."""

    seed: int = knob(0, _SEED_HELP)
    duration: float = knob(4.0, _DURATION_HELP, check="positive")
    jobs: Tuple[JobSpec, ...] = knob(())
    backend: str = knob("orion", "sharing technique",
                        choices=EXPERIMENT_BACKENDS)
    device: str = knob("V100-16GB", "simulated GPU")
    warmup: float = knob(0.5, _WARMUP_HELP, check="non_negative")
    record_utilization: bool = knob(
        False, "record device utilization and report its averages")
    #: Extra OrionConfig kwargs (ablation switches, thresholds).
    orion: Optional[Mapping[str, Any]] = knob(None)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        super().__post_init__()
        if self.orion is not None:
            # Lazy: the scheduler is only imported when a scenario
            # actually overrides its config.
            from repro.core.scheduler import OrionConfig

            check_keys("orion", self.orion,
                       (f.name for f in fields(OrionConfig)))
            OrionConfig(**self.orion)
        if not self.jobs:
            raise ValueError("experiment needs at least one job")
        if not all(isinstance(job, JobSpec) for job in self.jobs):
            raise ValueError("experiment jobs must be JobSpec records")
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {names}")
        hp_count = sum(1 for j in self.jobs if j.high_priority)
        if self.backend in ("orion", "reef") and hp_count != 1:
            raise ValueError(
                f"{self.backend} needs exactly one high-priority job")


@dataclass(frozen=True)
class OverloadParams(_ParamsBase):
    """Knobs of ``Scenario(kind="overload")`` (see experiments.overload)."""

    seed: int = knob(0, _SEED_HELP)
    duration: float = knob(0.4, _DURATION_HELP, check="positive")
    model: str = knob("mobilenet_v2", "served model (HP and BE clients)")
    device: str = knob("V100-16GB", "simulated GPU")
    be_clients: int = knob(2, "number of best-effort inference clients",
                           check="non_negative")
    hp_load: float = knob(0.3, "high-priority offered load as a fraction "
                          "of solo capacity", check="positive")
    be_load: float = knob(2.0, "total best-effort offered load as a "
                          "fraction of solo capacity (past 1 - hp_load "
                          "is overload)", check="non_negative")
    arrivals: str = knob("poisson", "high-priority arrival process",
                         choices=_OVERLOAD_ARRIVALS)
    deadline_mult: Optional[float] = knob(
        20.0, "best-effort request deadline as a multiple of the solo "
        "latency (None disables shedding)", check="positive")
    slo_mult: float = knob(1.2, "HP latency SLO as a multiple of the solo "
                           "latency", check="positive")
    guard: bool = knob(True, "run the adaptive SLO guard")
    queue_depth: Optional[int] = knob(
        32, "bound on each best-effort software queue (None = unbounded)",
        check="positive")
    policy: str = knob("block", "full-queue policy: backpressure or load "
                       "shedding", choices=_OVERLOAD_POLICIES)
    initial_dur_frac: float = knob(
        0.35, "starting (deliberately loose) DUR_THRESHOLD fraction the "
        "guard tightens from", check="positive")
    warmup: float = knob(0.0, _WARMUP_HELP, check="non_negative")


@dataclass(frozen=True)
class FaultsParams(_ParamsBase):
    """Knobs of ``Scenario(kind="faults")`` (see faults.scenario)."""

    seed: int = knob(0, _SEED_HELP)
    duration: float = knob(0.2, _DURATION_HELP, check="positive")
    plan: Optional[object] = knob(None)   #: FaultPlan; None kills be-0 at 40%
    backend: str = knob("orion", "sharing technique",
                        choices=FAULTS_BACKENDS)
    be_clients: int = knob(2, "number of best-effort training clients",
                           check="non_negative")
    model: str = knob("mobilenet_v2", "model of every client")
    device: str = knob("V100-16GB", "simulated GPU")
    hp_rps: float = knob(100.0, "high-priority Poisson request rate",
                         check="positive")
    watchdog_multiple: Optional[float] = knob(
        None, "flag BE kernels overdue by this multiple of their profiled "
        "duration (orion only; None = off)", check="positive")
    warmup: float = knob(0.0, _WARMUP_HELP, check="non_negative")


@dataclass(frozen=True)
class FleetParams(_ParamsBase):
    """Knobs of ``Scenario(kind="fleet")`` (see cluster.fleet)."""

    seed: int = knob(0, _SEED_HELP)
    duration: float = knob(0.2, _DURATION_HELP, check="positive")
    num_gpus: int = knob(8, "GPUs in the fleet", check="positive")
    backend: str = knob("orion", "per-GPU sharing technique",
                        choices=FLEET_BACKENDS)
    model: str = knob("mobilenet_v2", "model every default tenant serves")
    device: str = knob("V100-16GB", "simulated GPU")
    tenants: Optional[object] = knob(None)  #: Sequence[TenantSpec]
    plan: Optional[object] = knob(None)     #: FaultPlan; None samples one
    crashes: int = knob(1, "GPUs to crash mid-run", check="non_negative")
    degrades: int = knob(1, "GPUs to degrade mid-run", check="non_negative")
    slowdown: float = knob(3.0, "degradation slowdown factor",
                           check="positive")
    recover_after: Optional[float] = knob(
        None, "recover each victim this many seconds after its fault "
        "(None = never)", check="positive")
    hp_load: float = knob(0.25, "high-priority offered load as a fraction "
                          "of the fleet's aggregate solo capacity",
                          check="non_negative")
    be_load: float = knob(0.35, "total best-effort offered load as a "
                          "fraction of the fleet's aggregate solo "
                          "capacity", check="non_negative")
    be_tenants: int = knob(2, "best-effort tenants sharing the fleet",
                           check="non_negative")
    interference_weight: float = knob(
        1.0, "router weight of predicted interference")
    health_weight: float = knob(4.0, "router weight of GPU health")
    warmup: float = knob(0.0, _WARMUP_HELP, check="non_negative")
    placement: object = knob(
        "all", "tenant residency: 'all' (every tenant on every GPU), "
        "'plan' (interference-aware single-home), 'adversarial' "
        "(worst-case packing, for rebalance demos); code may also pass "
        "an explicit {tenant: gpu} mapping",
        choices=_FLEET_PLACEMENTS, mapping=True)
    max_tenants_per_gpu: int = knob(
        2, "tenant cap per GPU under single-home placement",
        check="positive")
    rebalance: bool = knob(False, "attach the migration controller "
                           "(needs single-home placement)")
    rebalance_interval: float = knob(0.02, "seconds between re-plan ticks",
                                     check="positive")
    migration_cooldown: float = knob(
        0.04, "per-tenant quiet time after a move", check="non_negative")
    max_inflight_migrations: int = knob(1, "concurrent migrations cap",
                                        check="positive")
    migration_min_gain: float = knob(
        0.05, "minimum predicted interference gain to consider a move",
        check="non_negative")
    migration_cost_weight: float = knob(
        1.0, "weight of a move's cost against its predicted gain")
    measure_window: int = knob(
        32, "latency samples per tenant in the measured-interference "
        "window", check="positive")
    measure_min_samples: int = knob(
        8, "samples a tenant needs before its measurement counts",
        check="positive")

    def __post_init__(self):
        super().__post_init__()
        if self.rebalance and self.placement == "all":
            raise ValueError(
                "rebalance requires single-home placement "
                "(placement='plan'/'adversarial' or an explicit mapping); "
                "with placement='all' every tenant is already everywhere")


@dataclass(frozen=True)
class LlmParams(_ParamsBase):
    """Knobs of ``Scenario(kind="llm")`` (see workloads.llmserve)."""

    seed: int = knob(0, _SEED_HELP)
    duration: float = knob(0.2, _DURATION_HELP, check="positive")
    model: str = knob("llm-small", "LLM workload name from the registry")
    device: str = knob("V100-16GB", "simulated GPU")
    backend: str = knob("orion", "sharing technique", choices=LLM_BACKENDS)
    request_rate: float = knob(80.0, "Poisson request arrivals per second",
                               check="positive")
    prompt_mean: float = knob(64.0, "mean prompt length in tokens",
                              check="positive")
    prompt_cap: int = knob(256, "max prompt length in tokens",
                           check="positive")
    output_mean: float = knob(8.0, "mean output length in tokens",
                              check="positive")
    output_cap: int = knob(64, "max output length in tokens",
                           check="positive")
    max_batch: int = knob(8, "continuous-batching decode batch cap",
                          check="positive")
    kv_budget_mb: Optional[float] = knob(
        None, "KV-cache budget in MiB (None = whatever device memory is "
        "left)", check="positive")
    kv_block_tokens: int = knob(16, "tokens per KV-cache block",
                                check="positive")
    cache_policy: str = knob(
        "evict", "KV pressure policy: evict-and-requeue or block admission "
        "until the full reservation fits", choices=_CACHE_POLICIES)
    be_model: str = knob("mobilenet_v2", "best-effort training model "
                         "collocated with the serving loop")
    be_clients: int = knob(1, "best-effort training clients (0 = solo)",
                           check="non_negative")
    protect_prefill: bool = knob(
        True, "phase-aware prefill protection hint (orion only)")
    ttft_slo_mult: float = knob(
        3.0, "TTFT SLO as a multiple of the solo prefill latency",
        check="positive")
    warmup: float = knob(0.0, _WARMUP_HELP, check="non_negative")

    def __post_init__(self):
        super().__post_init__()
        if self.prompt_mean > self.prompt_cap:
            raise ValueError("prompt_mean must be <= prompt_cap")
        if self.output_mean > self.output_cap:
            raise ValueError("output_mean must be <= output_cap")


#: kind -> typed params dataclass.
PARAM_TYPES = {
    "experiment": ExperimentParams,
    "overload": OverloadParams,
    "faults": FaultsParams,
    "fleet": FleetParams,
    "llm": LlmParams,
}


def check_keys(what: str, keys, known) -> None:
    """Raise ``ValueError`` naming every key of ``keys`` not in
    ``known``, with the valid surface."""
    known = set(known)
    unknown = sorted(set(keys) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} scenario parameter(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known))}")


def validate_params(kind: str, params: Mapping[str, Any]) -> None:
    """Fail fast on unknown or out-of-range knobs for ``kind``.

    Raises ``ValueError`` naming the offending key (with the valid
    surface) or the out-of-range value.  Does not mutate or expand
    ``params`` — scenarios keep carrying sparse override dicts.
    """
    cls = PARAM_TYPES[kind]
    check_keys(kind, params, (f.name for f in fields(cls)))
    cls(**params)  # range/choice/cross-field checks in __post_init__
