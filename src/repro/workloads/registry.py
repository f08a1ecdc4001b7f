"""Named workload registry: every model plan behind one front door.

Scenarios got a named registry in PR 4 (``make_scenario``); workloads
are the same idea one layer down.  A :class:`WorkloadSpec` describes one
nameable workload — which plan kinds it supports and which typed
keyword knobs each plan accepts — and ``build_plan(name, kind,
**kwargs)`` constructs the lowered :class:`~repro.frameworks.lowering.
OpPlan` for it.  The registry spans both workload families:

* the paper's five DNN models (Table 1), wrapping the cached zoo
  lowering in :mod:`repro.workloads.models.zoo`;
* the §7 LLM generation workload (``llm-small``, plus ``llm`` as an
  alias), wrapping :func:`~repro.workloads.models.llm.
  llm_generation_plan` with its typed batch/prompt/gen knobs.

``build_plan`` is the front door for every plan, so a workload is always
constructible from a plain string name plus JSON-safe kwargs (the
serve daemon's submit surface).
"""

from __future__ import annotations

from typing import Dict, Protocol, Tuple, runtime_checkable

from repro.frameworks.lowering import OpPlan

from .models.llm import LLM_SMALL, LlmConfig, llm_generation_plan
from .models.zoo import DEFAULT_BATCH_SIZES, MODEL_NAMES, _cached_plan

__all__ = [
    "WorkloadSpec",
    "ZooWorkload",
    "LlmWorkload",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
    "build_plan",
]


@runtime_checkable
class WorkloadSpec(Protocol):
    """A nameable workload: plan kinds plus a typed plan constructor.

    Implementations expose ``name`` (the registry key), ``kinds`` (the
    plan kinds they can lower), ``plan(kind, **kwargs)`` returning an
    :class:`OpPlan`, and ``describe()`` returning a JSON-safe summary
    of the knob surface (shown by ``repro scenarios`` tooling).
    """

    name: str

    @property
    def kinds(self) -> Tuple[str, ...]: ...

    def plan(self, kind: str, **kwargs) -> OpPlan: ...

    def describe(self) -> Dict: ...


class ZooWorkload:
    """One of the paper's Table 1 DNN models (zoo-backed)."""

    def __init__(self, name: str):
        if name not in MODEL_NAMES:
            raise ValueError(f"unknown zoo model {name!r}; known: {MODEL_NAMES}")
        self.name = name

    @property
    def kinds(self) -> Tuple[str, ...]:
        return ("inference", "training")

    def plan(self, kind: str, *, batch_size: int = 0) -> OpPlan:
        """Lowered plan; ``batch_size`` 0 selects the Table 1 default."""
        self._check_kind(kind)
        if batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {batch_size}")
        return _cached_plan(self.name, kind, batch_size)

    def _check_kind(self, kind: str) -> None:
        if kind not in self.kinds:
            raise ValueError(
                f"workload {self.name!r} supports kinds {self.kinds}, "
                f"got {kind!r}")

    def describe(self) -> Dict:
        return {
            "family": "zoo",
            "kinds": list(self.kinds),
            "kwargs": {"batch_size": "int (0 = Table 1 default)"},
            "default_batch_sizes": {
                kind: DEFAULT_BATCH_SIZES[(self.name, kind)]
                for kind in self.kinds
            },
        }


class LlmWorkload:
    """The §7 LLM generation workload (prefill + decode lowering)."""

    def __init__(self, name: str, config: LlmConfig = LLM_SMALL):
        self.name = name
        self.config = config

    @property
    def kinds(self) -> Tuple[str, ...]:
        return ("inference",)

    def plan(self, kind: str = "inference", *, batch: int = 1,
             prompt_len: int = 128, gen_tokens: int = 16) -> OpPlan:
        """One serving request: prefill + ``gen_tokens`` decode steps."""
        if kind not in self.kinds:
            raise ValueError(
                f"workload {self.name!r} supports kinds {self.kinds}, "
                f"got {kind!r}")
        return llm_generation_plan(self.config, batch=batch,
                                   prompt_len=prompt_len,
                                   gen_tokens=gen_tokens)

    def describe(self) -> Dict:
        return {
            "family": "llm",
            "kinds": list(self.kinds),
            "kwargs": {
                "batch": "int >= 1",
                "prompt_len": "int >= 1",
                "gen_tokens": "int >= 0 (0 = prefill only)",
            },
            "config": {
                "layers": self.config.layers,
                "hidden": self.config.hidden,
                "heads": self.config.heads,
                "ffn": self.config.ffn,
                "vocab": self.config.vocab,
                "params": self.config.params,
            },
        }


#: name -> WorkloadSpec.  ``llm`` aliases the pinned small config so
#: scenario params can just say model="llm".
WORKLOADS: Dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add (or replace) one workload in the registry; returns it."""
    if not spec.name:
        raise ValueError("workload name must be non-empty")
    WORKLOADS[spec.name] = spec
    return spec


for _name in MODEL_NAMES:
    register_workload(ZooWorkload(_name))
register_workload(LlmWorkload("llm-small", LLM_SMALL))
register_workload(LlmWorkload("llm", LLM_SMALL))


def get_workload(name: str) -> WorkloadSpec:
    spec = WORKLOADS.get(name)
    if spec is None:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {', '.join(sorted(WORKLOADS))}")
    return spec


def workload_names() -> Tuple[str, ...]:
    return tuple(sorted(WORKLOADS))


def build_plan(name: str, kind: str = "inference", **kwargs) -> OpPlan:
    """Construct the plan for workload ``name`` — the registry front door.

    Unknown kwargs fail with a ``TypeError`` naming the workload's
    typed knob surface, exactly like calling the spec directly.
    """
    return get_workload(name).plan(kind, **kwargs)
