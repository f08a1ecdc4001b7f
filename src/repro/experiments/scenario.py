"""Unified Scenario API: one description, one entry point, one result.

A :class:`Scenario` describes any run: ``kind`` selects the family,
``params`` carries sparse overrides of the kind's typed params
dataclass (:mod:`repro.experiments.params`), and ``telemetry`` says
whether to trace it.

``run(scenario)`` executes any of them: it builds the run's testbed
(:mod:`repro.experiments.testbed`) once, hands it to the kind's
implementation, and returns a :class:`ScenarioResult` wrapping the
family-specific result object plus uniform accounting (simulator events
processed, simulated seconds, wall-clock seconds) and the run's tracer.
``ScenarioResult.canonical()`` renders the deterministic subset —
everything except wall-clock — as plain data, so equal (scenario, seed)
cells produce byte-identical JSON no matter where or in which process
they ran, traced or not: the property the sweep engine's merge step
relies on.

Named scenarios (the catalog the CLI, sweep, and bench share) live in
:mod:`repro.experiments.registry` as ``make_scenario(name, ...)``.

Scenarios are validated at construction against the typed dataclasses
in :mod:`repro.experiments.params`.  An unknown or out-of-range knob, or
a backend the kind does not support, raises ``ValueError`` from
``Scenario(...)`` itself, not minutes later inside a sweep worker.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.telemetry.tracer import NULL_TRACER, TelemetryConfig

from .params import PARAM_TYPES, _ParamsBase, validate_params

__all__ = ["Scenario", "ScenarioResult", "run", "SCENARIO_KINDS"]

SCENARIO_KINDS = tuple(PARAM_TYPES)


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained description of one simulation run.

    ``kind``
        Scenario family: ``"experiment"`` (collocation experiment),
        ``"overload"`` (overload-protection scenario), ``"faults"``
        (fault-injection scenario), ``"fleet"`` (multi-GPU resilience
        fleet), or ``"llm"`` (continuous-batching LLM serving).
    ``name``
        Display/registry name; defaults to ``kind``.
    ``params``
        Sparse overrides of the kind's params dataclass, validated at
        construction; ``run`` builds the dataclass from them.  A params
        dataclass instance is accepted too and stored as its overrides.
    ``telemetry``
        Tracing switches (:class:`TelemetryConfig`); None runs with the
        nil tracer.  Observation only: it never changes the result.
    """

    kind: str
    name: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self):
        cls = PARAM_TYPES.get(self.kind)
        if cls is None:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"expected one of {', '.join(SCENARIO_KINDS)}")
        params = self.params
        if isinstance(params, _ParamsBase):
            if not isinstance(params, cls):
                raise ValueError(
                    f"kind={self.kind!r} takes {cls.__name__} params, "
                    f"not {type(params).__name__}")
            params = params.to_params()
        validate_params(self.kind, params)
        object.__setattr__(self, "params", dict(params))
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    @property
    def seed(self) -> int:
        return int(self.params.get("seed", 0))

    @property
    def duration(self) -> Optional[float]:
        """Simulated horizon; None means the params dataclass default."""
        value = self.params.get("duration")
        return None if value is None else float(value)

    def describe(self) -> str:
        extras = {k: v for k, v in sorted(self.params.items())
                  if k not in ("seed", "duration")}
        dur = "default" if self.duration is None else f"{self.duration:g}s"
        return (f"{self.name}: {self.kind} seed={self.seed} "
                f"duration={dur} {extras}" if extras else
                f"{self.name}: {self.kind} seed={self.seed} duration={dur}")


@dataclass
class ScenarioResult:
    """Uniform wrapper around one scenario run.

    ``result`` is the family-specific object (``ExperimentResult``,
    ``OverloadResult``, ``FaultScenarioResult``, ``FleetResult`` or
    ``LlmServeResult``).  The wrapper adds
    the accounting every caller (bench, sweep, CLI) needs without
    re-deriving it: simulator events processed, simulated seconds, and
    wall-clock seconds, plus the run's tracer (``NULL_TRACER`` unless
    the scenario asked for tracing).  Wall-clock is deliberately
    excluded from :meth:`canonical` so same-seed runs serialize
    byte-identically.
    """

    scenario: Scenario
    result: Any
    events_processed: int
    sim_time: float
    wall_time: float
    tracer: object = NULL_TRACER

    @property
    def ops_per_sec(self) -> float:
        """Simulator events processed per wall-clock second."""
        return self.events_processed / self.wall_time if self.wall_time > 0 \
            else 0.0

    def canonical(self) -> Dict[str, Any]:
        """Deterministic plain-data rendering (wall-clock excluded)."""
        return {
            "kind": self.scenario.kind,
            "name": self.scenario.name,
            "seed": self.scenario.seed,
            "events_processed": self.events_processed,
            "sim_time": self.sim_time,
            "result": _CANONICALIZERS[self.scenario.kind](self.result),
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"), default=float)


#: kind -> (module, function) of each implementation; each takes the
#: kind's validated params dataclass and the run's testbed.
_IMPLEMENTATIONS = {
    "experiment": ("repro.experiments.runner", "_run_experiment"),
    "overload": ("repro.experiments.overload", "_run_overload_scenario"),
    "faults": ("repro.faults.scenario", "_run_fault_scenario"),
    "fleet": ("repro.cluster.fleet", "_run_fleet_scenario"),
    "llm": ("repro.workloads.llmserve", "_run_llm_scenario"),
}


def run(scenario: Scenario) -> ScenarioResult:
    """Execute any :class:`Scenario` and wrap its outcome.

    The one place a testbed is built.  The family implementations (and
    the testbed module) are imported lazily, so building a scenario
    stays cheap.
    """
    from .testbed import Testbed

    start = time.perf_counter()
    params = PARAM_TYPES[scenario.kind](**scenario.params)
    testbed = Testbed.build(params.device, params.seed, scenario.telemetry)
    module, name = _IMPLEMENTATIONS[scenario.kind]
    implementation = getattr(importlib.import_module(module), name)
    result = implementation(params, testbed)
    wall = time.perf_counter() - start
    return ScenarioResult(scenario=scenario, result=result,
                          events_processed=testbed.sim.events_processed,
                          sim_time=testbed.sim.now, wall_time=wall,
                          tracer=testbed.tracer)


# ---------------------------------------------------------------------------
# Canonicalization: family result objects -> deterministic plain data.

def _canon_records(stats) -> list:
    return [[r.arrival, r.start, r.end] for r in stats.records]


def _canon_stats(stats) -> dict:
    return {
        "records": _canon_records(stats),
        "dropped": stats.dropped,
        "failed": stats.failed,
        "restarts": stats.restarts,
        "shed": stats.shed,
    }


def _canon_latency(summary) -> dict:
    return {
        "count": summary.count,
        "mean": summary.mean,
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
        "max": summary.max,
    }


def _canon_experiment(result) -> dict:
    params = result.params
    return {
        "backend": params.backend,
        "device": params.device,
        "duration": params.duration,
        "warmup": params.warmup,
        "jobs": {
            name: {
                "high_priority": job.high_priority,
                "latency": _canon_latency(job.latency),
                "throughput": job.throughput,
                "stats": _canon_stats(job.stats),
            }
            for name, job in sorted(result.jobs.items())
        },
        "backend_stats": result.backend_stats,
    }


def _canon_overload(result) -> dict:
    return {
        "capacity": result.capacity,
        "solo_latency": result.solo_latency,
        "slo": result.slo,
        "hp_latency": _canon_latency(result.hp_latency),
        "jobs": {name: _canon_stats(stats)
                 for name, stats in sorted(result.jobs.items())},
        "shed": result.total_shed(),
        "backend_stats": result.backend_stats,
        "queue_telemetry": result.queue_telemetry,
        "guard_actions": result.guard_actions,
        "guard_summary": result.guard_summary,
        "ledger": json.loads(result.ledger.to_json()),
    }


def _canon_faults(result) -> dict:
    return {
        "plan": [event.describe() for event in result.plan],
        "hp_latency": _canon_latency(result.hp_latency),
        "jobs": {name: _canon_stats(stats)
                 for name, stats in sorted(result.jobs.items())},
        "backend_stats": result.backend_stats,
        "ledger": json.loads(result.ledger.to_json()),
    }


def _canon_fleet(result) -> dict:
    return {
        "num_gpus": result.num_gpus,
        "backend": result.backend,
        "plan": [event.describe() for event in result.plan],
        "hp_latency": _canon_latency(result.hp_latency),
        "jobs": {name: _canon_stats(stats)
                 for name, stats in sorted(result.jobs.items())},
        "report": result.report,
        "routing": result.routing,
        "migration": result.migration,
        "ledger": json.loads(result.ledger.to_json()),
    }


def _canon_llm(result) -> dict:
    return {
        "model": result.model,
        "backend": result.backend,
        "requests": {
            "arrived": result.requests_arrived,
            "completed": result.requests_completed,
            "failed": result.requests_failed,
        },
        "ttft": _canon_latency(result.ttft),
        "tpot": _canon_latency(result.tpot),
        "ttft_slo": result.ttft_slo,
        "prefill_reference": result.prefill_reference,
        "decode_tokens_per_sec": result.decode_tokens_per_sec,
        "total_tokens": result.total_tokens,
        "records": [
            [r.req_id, r.arrival, r.prompt_tokens, r.output_tokens,
             r.admitted, r.first_token, r.end, r.evictions,
             int(r.failed)]
            for r in result.records
        ],
        "admission_log": list(result.admission_log),
        "kv": dict(result.kv),
        "jobs": {name: _canon_stats(stats)
                 for name, stats in sorted(result.jobs.items())},
        "backend_stats": result.backend_stats,
        "ledger": json.loads(result.ledger.to_json()),
    }


_CANONICALIZERS = {
    "experiment": _canon_experiment,
    "overload": _canon_overload,
    "faults": _canon_faults,
    "fleet": _canon_fleet,
    "llm": _canon_llm,
}
