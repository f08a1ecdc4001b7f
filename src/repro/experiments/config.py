"""Experiment configuration records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.telemetry.tracer import TelemetryConfig

from .params import EXPERIMENT_BACKENDS

__all__ = ["JobSpec", "ExperimentConfig"]


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
                self, "name", f"{role}-{self.model}-{self.kind}"
            )


@dataclass
class ExperimentConfig:
    """A full collocation experiment."""

    jobs: List[JobSpec]
    backend: str = "orion"
    device: str = "V100-16GB"
    duration: float = 5.0
    warmup: float = 0.5
    seed: int = 0
    record_utilization: bool = False
    # Extra kwargs forwarded to OrionConfig (ablation switches, thresholds).
    orion: Dict = field(default_factory=dict)
    # Run telemetry: tracing off by default (nil-tracer fast path).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self):
        if self.backend not in EXPERIMENT_BACKENDS:
            raise ValueError(f"backend must be one of {EXPERIMENT_BACKENDS}, "
                             f"got {self.backend!r}")
        if not self.jobs:
            raise ValueError("experiment needs at least one job")
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {names}")
        hp_count = sum(1 for j in self.jobs if j.high_priority)
        if self.backend in ("orion", "reef") and hp_count != 1:
            raise ValueError(f"{self.backend} needs exactly one high-priority job")
