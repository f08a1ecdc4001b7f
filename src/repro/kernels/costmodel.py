"""Device roofline cost model.

Turns a static :class:`KernelSpec` (FLOPs, bytes, launch geometry) into
a dynamic :class:`KernelOp` for a concrete device: solo duration,
compute-throughput and memory-bandwidth utilization, SM footprint, and
roofline class.  This plays the role the real hardware plays in the
paper — it is where "ResNet50 on V100" becomes a concrete kernel trace.
The costs are a pure function of ``(spec, device)``: :func:`kernel_cost`
computes them once, and its ``launch`` builds each launch's op.

The model is the classic roofline, with an occupancy factor:

    occupancy = clamp(total_threads / (num_sms * SATURATION_THREADS), ..)
    t_compute = flops / (peak_flops * compute_efficiency * occupancy)
    t_memory  = bytes / (mem_bandwidth * memory_efficiency)
    duration  = max(t_compute, t_memory) + fixed kernel overhead

The occupancy factor is what makes *small-batch inference underutilize
the GPU* in this simulator, the phenomenon §3 of the paper is built on:
a kernel with too few threads to fill the machine achieves only a
fraction of peak compute throughput, so its measured compute
utilization is low even while it runs.  Memory bandwidth is easier to
saturate from few SMs, so occupancy is not applied to the memory leg.

Utilizations follow from achieved rates over the realized duration, so
a compute-bound kernel shows high compute and low memory utilization,
exactly the signal Orion's profiler extracts with Nsight Compute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .classify import classify_kernel
from .kernel import KernelOp, KernelSpec, _op_ids, check_kernel_costs
from .launch import sm_needed

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.specs import DeviceSpec

__all__ = ["KernelCost", "kernel_cost", "instantiate_kernel", "solo_duration",
           "occupancy_factor"]

# A kernel reaches full compute throughput once its grid supplies about
# one thread block per SM (each block carries enough ILP to keep the
# SM's pipelines fed).  Fewer blocks than SMs leave SMs idle — the
# small-batch underutilization of §3.
SATURATION_BLOCKS_PER_SM = 1.0
# Floor so pathological single-block launches still make progress.
MIN_OCCUPANCY = 0.05

_new_op = object.__new__


def occupancy_factor(spec: KernelSpec, device: "DeviceSpec") -> float:
    """Fraction of peak compute rate reachable with this launch geometry."""
    saturation = device.num_sms * SATURATION_BLOCKS_PER_SM
    return min(1.0, max(MIN_OCCUPANCY, spec.launch.num_blocks / saturation))


def solo_duration(spec: KernelSpec, device: "DeviceSpec") -> float:
    """Solo execution time of ``spec`` on ``device`` in seconds."""
    occupancy = occupancy_factor(spec, device)
    t_compute = spec.flops / (device.peak_flops * spec.compute_efficiency * occupancy)
    t_memory = spec.bytes_moved / (device.memory_bandwidth * spec.memory_efficiency)
    return max(t_compute, t_memory, 0.0) + device.kernel_min_duration


class KernelCost:
    """The device-dependent costs of one spec, computed once.

    Everything :func:`instantiate_kernel` derives from ``(spec, device)``
    — solo duration, utilizations, SM footprint, roofline class — is a
    pure function of the pair, so an owner that launches the same spec
    repeatedly binds it once and calls :meth:`launch` per launch.  The
    fields are validated here, once, with ``KernelOp``'s own checks.
    """

    __slots__ = ("spec", "duration", "compute_util", "memory_util",
                 "sm_needed", "profile")

    def __init__(self, spec: KernelSpec, device: "DeviceSpec"):
        duration = solo_duration(spec, device)
        if duration <= 0:  # checked first: the utilizations divide by it
            check_kernel_costs(spec.name, duration, 0.0, 0.0, 1)
        self.spec = spec
        self.duration = duration
        self.compute_util = min(1.0, spec.flops / duration / device.peak_flops)
        self.memory_util = min(1.0, spec.bytes_moved / duration / device.memory_bandwidth)
        self.sm_needed = min(device.num_sms, sm_needed(spec.launch, device.sm_limits))
        check_kernel_costs(spec.name, duration, self.compute_util,
                           self.memory_util, self.sm_needed)
        self.profile = classify_kernel(
            self.compute_util,
            self.memory_util,
            roofline_available=duration >= device.roofline_min_duration,
        )

    def launch(self, client_id: Optional[str] = None, tag: str = "") -> KernelOp:
        """A fresh launch with a new ``seq``.

        The op skips ``KernelOp.__init__`` (its checks ran at bind
        time).  Its fields are stored one by one in ``__init__``'s
        order, so the op keeps CPython's key-sharing instance dict: no
        more bytes than an op built directly.
        """
        op = _new_op(KernelOp)
        op.spec = self.spec
        op.duration = self.duration
        op.compute_util = self.compute_util
        op.memory_util = self.memory_util
        op.sm_needed = self.sm_needed
        op.profile = self.profile
        op.client_id = client_id
        op.seq = next(_op_ids)
        op.tag = tag
        return op


def kernel_cost(spec: KernelSpec, device: "DeviceSpec") -> KernelCost:
    """Bind ``spec`` to ``device`` (see :class:`KernelCost`)."""
    return KernelCost(spec, device)


def instantiate_kernel(
    spec: KernelSpec,
    device: "DeviceSpec",
    client_id: Optional[str] = None,
    tag: str = "",
) -> KernelOp:
    """Materialize one launch of ``spec`` on ``device``."""
    return kernel_cost(spec, device).launch(client_id, tag)
