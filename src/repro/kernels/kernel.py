"""GPU kernel and memory-operation descriptors.

A :class:`KernelSpec` is the static description of a kernel the way the
profiler and scheduler see it: a stable identifier, its launch geometry,
and its arithmetic footprint (FLOPs and DRAM bytes).  A
:class:`KernelOp` is one dynamic launch of a spec by a client, carrying
the device-specific demands the contention model consumes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .launch import LaunchConfig

__all__ = ["ResourceProfile", "KernelSpec", "KernelOp", "MemoryOp", "MemoryOpKind"]


class ResourceProfile(enum.Enum):
    """Roofline class of a kernel, as Orion's profiler reports it."""

    COMPUTE = "compute"
    MEMORY = "memory"
    UNKNOWN = "unknown"

    def opposite(self) -> "ResourceProfile":
        if self is ResourceProfile.COMPUTE:
            return ResourceProfile.MEMORY
        if self is ResourceProfile.MEMORY:
            return ResourceProfile.COMPUTE
        return ResourceProfile.UNKNOWN


@dataclass(frozen=True)
class KernelSpec:
    """Static description of a kernel (one per (layer op, shape))."""

    name: str
    flops: float
    bytes_moved: float
    launch: LaunchConfig
    # Efficiency factors: fraction of device peak this kernel can reach
    # on its bottleneck resource (tensor-core friendly GEMMs get high
    # compute efficiency; elementwise kernels stream near peak DRAM bw).
    compute_efficiency: float = 0.55
    memory_efficiency: float = 0.75

    def __post_init__(self):
        if self.flops < 0 or self.bytes_moved < 0:
            raise ValueError(f"kernel {self.name}: negative flops/bytes")
        if not (0 < self.compute_efficiency <= 1 and 0 < self.memory_efficiency <= 1):
            raise ValueError(f"kernel {self.name}: efficiencies must be in (0, 1]")

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per DRAM byte (infinite for byte-free kernels)."""
        if self.bytes_moved == 0:
            return float("inf")
        return self.flops / self.bytes_moved


_op_ids = itertools.count()


def check_kernel_costs(name: str, duration: float, compute_util: float,
                       memory_util: float, sm_needed: int) -> None:
    """Raise ``ValueError`` unless the device-dependent fields of a
    :class:`KernelOp` are valid (run once per op built directly, and
    once per ``KernelCost`` for the ops it launches)."""
    if duration <= 0:
        raise ValueError(f"kernel {name}: non-positive duration")
    if not (0 <= compute_util <= 1 and 0 <= memory_util <= 1):
        raise ValueError(f"kernel {name}: utilization out of [0,1]")
    if sm_needed < 1:
        raise ValueError(f"kernel {name}: sm_needed must be >= 1")


@dataclass
class KernelOp:
    """One dynamic launch of a kernel by a client.

    ``duration`` is the solo execution time on the target device;
    ``compute_util`` / ``memory_util`` are the fractions of device peak
    compute throughput / memory bandwidth the kernel consumes while
    running solo.  All three are filled in by the device cost model,
    whose ``KernelCost.launch`` builds ops without ``__post_init__``:
    it validated the same fields once, at bind time.
    """

    spec: KernelSpec
    duration: float
    compute_util: float
    memory_util: float
    sm_needed: int
    profile: ResourceProfile
    client_id: Optional[str] = None
    seq: int = field(default_factory=lambda: next(_op_ids))
    tag: str = ""

    def __post_init__(self):
        check_kernel_costs(self.spec.name, self.duration, self.compute_util,
                           self.memory_util, self.sm_needed)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_kernel(self) -> bool:
        return True


class MemoryOpKind(enum.Enum):
    MALLOC = "cudaMalloc"
    FREE = "cudaFree"
    MEMSET = "cudaMemset"
    MEMCPY_H2D = "cudaMemcpyHostToDevice"
    MEMCPY_D2H = "cudaMemcpyDeviceToHost"
    MEMCPY_D2D = "cudaMemcpyDeviceToDevice"

    @property
    def is_transfer(self) -> bool:
        return self in (
            MemoryOpKind.MEMCPY_H2D,
            MemoryOpKind.MEMCPY_D2H,
            MemoryOpKind.MEMCPY_D2D,
        )

    @property
    def synchronizes_device(self) -> bool:
        """cudaMalloc / cudaFree synchronize the whole device (§5.1.3)."""
        return self in (MemoryOpKind.MALLOC, MemoryOpKind.FREE)


@dataclass
class MemoryOp:
    """A memory-management operation intercepted by the runtime."""

    kind: MemoryOpKind
    nbytes: int
    client_id: Optional[str] = None
    blocking: bool = True
    seq: int = field(default_factory=lambda: next(_op_ids))
    tag: str = ""

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError("memory op with negative size")

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def is_kernel(self) -> bool:
        return False
