"""Kernel profile records and the JSON profile store (paper §5.2).

Orion's offline profiling phase emits, per model, a file with one entry
per kernel: expected duration, compute/memory throughput utilization,
SM requirement, and roofline class.  The online scheduler loads this
into an in-memory lookup table indexed by kernel identifier.  This
module defines those records and their (de)serialization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

from repro.kernels.kernel import ResourceProfile

__all__ = ["KernelProfile", "ModelProfile", "ProfileStore"]


@dataclass(frozen=True)
class KernelProfile:
    """Profiled characteristics of one kernel."""

    kernel_id: str
    duration: float
    compute_util: float
    memory_util: float
    sm_needed: int
    profile: ResourceProfile

    def to_dict(self) -> dict:
        d = asdict(self)
        d["profile"] = self.profile.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelProfile":
        d = dict(d)
        d["profile"] = ResourceProfile(d["profile"])
        return cls(**d)


@dataclass
class ModelProfile:
    """Per-model profiling output: kernel table + request latency."""

    model_name: str
    kind: str
    device_name: str
    request_latency: float
    kernels: Dict[str, KernelProfile] = field(default_factory=dict)

    def lookup(self, kernel_id: str) -> Optional[KernelProfile]:
        return self.kernels.get(kernel_id)

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "kind": self.kind,
            "device_name": self.device_name,
            "request_latency": self.request_latency,
            "kernels": {k: v.to_dict() for k, v in self.kernels.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelProfile":
        kernels = {k: KernelProfile.from_dict(v) for k, v in d["kernels"].items()}
        return cls(
            model_name=d["model_name"],
            kind=d["kind"],
            device_name=d["device_name"],
            request_latency=float(d["request_latency"]),
            kernels=kernels,
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "ModelProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


class ProfileStore:
    """In-memory lookup table over many model profiles.

    The Orion scheduler holds one of these; lookups are by kernel id
    (kernel ids embed the model name, so the flat namespace is safe).
    ``version`` changes whenever an entry may have changed (``add``,
    ``drop``, ``corrupt``), so a caller may cache a lookup for as long
    as the version it saw is current.
    """

    def __init__(self):
        self._models: Dict[str, ModelProfile] = {}
        self._kernels: Dict[str, KernelProfile] = {}
        self.version = 0

    def add(self, profile: ModelProfile) -> None:
        self.version += 1
        key = f"{profile.model_name}:{profile.kind}"
        self._models[key] = profile
        self._kernels.update(profile.kernels)

    def model(self, model_name: str, kind: str) -> ModelProfile:
        key = f"{model_name}:{kind}"
        try:
            return self._models[key]
        except KeyError:
            raise KeyError(f"no profile for {key}; run the profiler first") from None

    def lookup(self, kernel_id: str) -> Optional[KernelProfile]:
        return self._kernels.get(kernel_id)

    def drop(self, kernel_id: str) -> bool:
        """Remove a kernel's entry (fault injection: profile loss).

        Subsequent lookups miss, exercising the scheduler's
        profile-miss fallback.  Returns True if the entry existed.
        """
        self.version += 1
        existed = self._kernels.pop(kernel_id, None) is not None
        for model in self._models.values():
            model.kernels.pop(kernel_id, None)
        return existed

    def corrupt(self, kernel_id: str, factor: float = 10.0) -> bool:
        """Scale a kernel's profiled duration (fault injection: stale or
        wrong profile data).  Returns True if the entry existed."""
        self.version += 1
        profile = self._kernels.get(kernel_id)
        if profile is None:
            return False
        corrupted = replace(profile, duration=profile.duration * factor)
        self._kernels[kernel_id] = corrupted
        for model in self._models.values():
            if kernel_id in model.kernels:
                model.kernels[kernel_id] = corrupted
        return True

    def __len__(self) -> int:
        return len(self._kernels)
