"""Experiment catalog: config builders and the named-scenario registry.

Each config builder returns the :class:`ExperimentParams` of one
(workload pair, backend) cell of a figure; keyword arguments go to
``ExperimentParams`` (``seed``, ``duration``, ``warmup``, ``device``,
``orion``, ...).  Rates come from Table 3; batch sizes from Table 1
(via the model zoo defaults).

The bottom half of the module is the named-:class:`Scenario` catalog:
``make_scenario(name, seed=..., duration=..., **overrides)`` builds a
complete scenario description the CLI, the sweep engine, and the
``benchmarks/perf`` benchmark all share.  Names ending in ``_ref`` are
the pinned benchmark references (fixed workloads and horizons, see
DESIGN.md §6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.workloads.rates import rps_for

from .params import PARAM_TYPES, ExperimentParams, JobSpec, check_keys
from .scenario import Scenario

__all__ = [
    "inf_train_config",
    "train_train_config",
    "inf_inf_config",
    "multi_client_config",
    "solo_inference_config",
    "SCENARIOS",
    "make_scenario",
    "scenario_names",
    "scenario_catalog",
]


def inf_train_config(hp_model: str, be_model: str, backend: str,
                     arrivals: str = "poisson", **knobs) -> ExperimentParams:
    """§6.2.1: HP latency-sensitive inference + BE training."""
    rps = rps_for(hp_model, "inf_train_poisson")
    hp = JobSpec(model=hp_model, kind="inference", high_priority=True,
                 arrivals=arrivals, rps=rps if arrivals == "poisson" else 0.0)
    be = JobSpec(model=be_model, kind="training", high_priority=False)
    return ExperimentParams(jobs=(hp, be), backend=backend, **knobs)


def train_train_config(hp_model: str, be_model: str, backend: str,
                       **knobs) -> ExperimentParams:
    """§6.2.2: HP training + BE training, both closed loop."""
    hp = JobSpec(model=hp_model, kind="training", high_priority=True)
    be = JobSpec(model=be_model, kind="training", high_priority=False)
    return ExperimentParams(jobs=(hp, be), backend=backend, **knobs)


def inf_inf_config(hp_model: str, be_model: str, backend: str,
                   arrivals: str = "apollo", **knobs) -> ExperimentParams:
    """§6.2.3: HP inference + BE offline inference.

    Apollo scenario: HP replays the (synthetic) Apollo trace, BE uses
    uniform arrivals at the Table 3 uniform rate.  Poisson scenario:
    both Poisson at the Table 3 Poisson rates.
    """
    if arrivals == "apollo":
        hp = JobSpec(model=hp_model, kind="inference", high_priority=True,
                     arrivals="apollo")
        be = JobSpec(model=be_model, kind="inference", high_priority=False,
                     arrivals="uniform", rps=rps_for(be_model, "inf_inf_uniform"))
    elif arrivals == "poisson":
        hp = JobSpec(model=hp_model, kind="inference", high_priority=True,
                     arrivals="poisson", rps=rps_for(hp_model, "inf_inf_poisson"))
        be = JobSpec(model=be_model, kind="inference", high_priority=False,
                     arrivals="poisson", rps=rps_for(be_model, "inf_inf_poisson"))
    else:
        raise ValueError(f"inf-inf arrivals must be apollo|poisson, got {arrivals!r}")
    return ExperimentParams(jobs=(hp, be), backend=backend, **knobs)


def multi_client_config(hp_model: str, be_models: Sequence[str], backend: str,
                        device: str = "A100-40GB",
                        **knobs) -> ExperimentParams:
    """§6.3: one HP inference client + N BE inference clients (Figure 13)."""
    jobs: List[JobSpec] = [
        JobSpec(model=hp_model, kind="inference", high_priority=True,
                arrivals="poisson", rps=rps_for(hp_model, "inf_inf_poisson"))
    ]
    for index, model in enumerate(be_models):
        jobs.append(
            JobSpec(model=model, kind="inference", high_priority=False,
                    arrivals="poisson", rps=rps_for(model, "inf_inf_poisson"),
                    name=f"be{index}-{model}")
        )
    return ExperimentParams(jobs=tuple(jobs), backend=backend, device=device,
                            **knobs)


def solo_inference_config(model: str, rps: Optional[float] = None,
                          arrivals: str = "uniform",
                          **knobs) -> ExperimentParams:
    """A single inference job on a dedicated GPU (Figures 8a/9a)."""
    job = JobSpec(model=model, kind="inference", high_priority=True,
                  arrivals=arrivals,
                  rps=rps if rps is not None else 0.0)
    return ExperimentParams(jobs=(job,), backend="ideal", **knobs)


# ---------------------------------------------------------------------------
# Named-scenario catalog (the Scenario API's registry).

@dataclass(frozen=True)
class _Entry:
    """One catalog entry: its kind and declared defaults.  An
    experiment entry also names the config builder that turns its
    builder args (``hp``, ``be``, ``backend``, ``arrivals``) plus the
    remaining ``ExperimentParams`` knobs into the scenario's params."""

    name: str
    kind: str
    defaults: Mapping[str, Any] = field(default_factory=dict)
    maker: Optional[Callable[..., ExperimentParams]] = None

    def __call__(self, seed: int = 0, duration: Optional[float] = None,
                 **overrides) -> Scenario:
        known = {f.name for f in fields(PARAM_TYPES[self.kind])}
        if self.maker is not None:
            known.discard("jobs")  # the builder makes them
        check_keys(self.name, overrides, known | set(self.defaults))
        params = {**self.defaults, **overrides, "seed": seed}
        if duration is not None:
            params["duration"] = duration
        if self.maker is not None:
            params = self.maker(params.pop("hp"), params.pop("be"),
                                params.pop("backend"), **params)
        return Scenario(kind=self.kind, name=self.name, params=params)


def _pair(name: str, maker: Callable[..., ExperimentParams], hp: str,
          be: str, **defaults) -> _Entry:
    return _Entry(name, "experiment",
                  {"hp": hp, "be": be, "backend": "orion", **defaults}, maker)


#: name -> builder(seed=..., duration=..., **overrides) -> Scenario.
#: The ``*_ref`` entries are the benchmark references: their workloads
#: and horizons are pinned so wall times stay comparable across
#: commits (DESIGN.md §6.4).
SCENARIOS: Dict[str, _Entry] = {
    "inf-train": _pair("inf-train", inf_train_config, "resnet50",
                       "mobilenet_v2", arrivals="poisson"),
    "train-train": _pair("train-train", train_train_config, "resnet50",
                         "mobilenet_v2"),
    "inf-inf": _pair("inf-inf", inf_inf_config, "resnet101", "resnet50",
                     arrivals="apollo"),
    "overload": _Entry("overload", "overload"),
    "faults": _Entry("faults", "faults"),
    "fleet": _Entry("fleet", "fleet"),
    "llm": _Entry("llm", "llm"),
    # Self-healing fleet: adversarial initial packing, measured-
    # interference rebalancing on, faults firing while tenants move.
    "fleet_rebalance": _Entry(
        "fleet_rebalance", "fleet",
        {"duration": 0.3, "num_gpus": 8, "crashes": 1, "degrades": 1,
         "placement": "adversarial", "rebalance": True,
         "be_tenants": 6, "warmup": 0.1}),
    # Benchmark references (pinned workloads/horizons).
    "overload_ref": _Entry("overload_ref", "overload", {"duration": 0.4}),
    "llm_ref": _Entry(
        "llm_ref", "llm",
        {"duration": 0.4, "request_rate": 80.0, "max_batch": 8,
         "be_clients": 1, "warmup": 0.05}),
    "fleet_ref": _Entry(
        "fleet_ref", "fleet",
        {"duration": 0.15, "num_gpus": 8, "crashes": 1, "degrades": 1}),
    "inf_train_ref": _pair("inf_train_ref", inf_train_config, "resnet50",
                           "mobilenet_v2", arrivals="poisson", duration=0.6),
    "train_train_ref": _pair("train_train_ref", train_train_config,
                             "resnet50", "mobilenet_v2", duration=0.6),
}


def make_scenario(name: str, seed: int = 0,
                  duration: Optional[float] = None, **overrides) -> Scenario:
    """Build a named :class:`Scenario`, applying per-call overrides.

    ``seed``/``duration`` apply uniformly to every scenario family;
    remaining keyword overrides are the entry's builder args or knobs of
    the kind's params dataclass.  An unknown override raises
    ``ValueError`` listing the valid ones.
    """
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}")
    return builder(seed=seed, duration=duration, **overrides)


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def scenario_catalog() -> Dict[str, Dict]:
    """JSON-safe description of every named scenario: name -> ``{kind,
    params}``, where ``params`` are the entry's declared defaults —
    what a defaults-only ``make_scenario(name)`` applies over the
    kind's dataclass defaults.  Shared by ``repro scenarios`` and the
    serve daemon's ``scenarios`` verb — the list of valid submit
    targets.
    """
    return {name: {"kind": SCENARIOS[name].kind,
                   "params": dict(sorted(SCENARIOS[name].defaults.items()))}
            for name in scenario_names()}
