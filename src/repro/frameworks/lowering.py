"""Lowering: module trees -> executable op plans.

An :class:`OpPlan` is the ordered sequence of operations one request
(inference) or one iteration (training) launches, each entry carrying a
phase tag ("copy", "forward", "backward", "update", "output").  The
plan is device-independent; :func:`bind_plan` binds it to a device
once, and each :meth:`BoundPlan.launch` produces the concrete
:class:`~repro.kernels.kernel.KernelOp` and
:class:`~repro.kernels.kernel.MemoryOp` objects a client launches.

Training plans append the optimizer update phase: one fused update
kernel per ~4M parameters (Adam reads parameter/gradient/moments and
writes parameter/moments — short, memory-leaning kernels that land in
the profiler's "unknown" class, matching the paper's §5.2 observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.kernels.costmodel import kernel_cost
from repro.kernels.kernel import KernelOp, KernelSpec, MemoryOp, MemoryOpKind

from .module import Module, Namer
from .specbuild import FP32_BYTES, elementwise_spec

__all__ = ["PlannedOp", "OpPlan", "BoundPlan", "lower_inference", "lower_training",
           "bind_plan", "instantiate_plan"]

# Parameters per fused optimizer-update kernel launch.
UPDATE_CHUNK = 1_000_000
# Adam: read p, g, m, v; write p, m, v  ->  7 fp32 accesses per param.
ADAM_ACCESSES = 7
ADAM_FLOPS_PER_PARAM = 12.0


@dataclass(frozen=True)
class PlannedOp:
    """One op of a plan: a kernel spec or a host<->device copy."""

    phase: str
    spec: Optional[KernelSpec] = None
    copy_bytes: int = 0
    copy_kind: Optional[MemoryOpKind] = None

    @property
    def is_copy(self) -> bool:
        return self.copy_kind is not None


@dataclass
class OpPlan:
    """Ordered op sequence for one request/iteration of a workload."""

    model_name: str
    kind: str  # "inference" | "training"
    batch_size: int
    ops: List[PlannedOp]
    params: int
    input_bytes: int
    # Resident GPU state: weights (+ gradients and optimizer moments for
    # training) plus a coarse activation-footprint estimate.
    state_bytes: int = 0

    @property
    def kernel_count(self) -> int:
        return sum(1 for op in self.ops if not op.is_copy)

    def kernel_specs(self) -> List[KernelSpec]:
        return [op.spec for op in self.ops if op.spec is not None]


def _input_bytes(input_shape) -> int:
    return FP32_BYTES * math.prod(input_shape)


def lower_inference(model: Module, input_shape, model_name: str) -> OpPlan:
    """One inference request: H2D input, forward kernels, D2H output."""
    built = model.build(tuple(input_shape), Namer(model_name))
    ops: List[PlannedOp] = [
        PlannedOp("copy", copy_bytes=_input_bytes(input_shape),
                  copy_kind=MemoryOpKind.MEMCPY_H2D)
    ]
    ops.extend(PlannedOp("forward", spec=s) for s in built.forward)
    out_bytes = FP32_BYTES * math.prod(built.out_shape)
    ops.append(PlannedOp("output", copy_bytes=out_bytes,
                         copy_kind=MemoryOpKind.MEMCPY_D2H))
    activations = int(sum(s.bytes_moved for s in built.forward) / 3)
    state_bytes = FP32_BYTES * built.params + activations // 4 + _input_bytes(input_shape)
    return OpPlan(model_name, "inference", input_shape[0], ops, built.params,
                  _input_bytes(input_shape), state_bytes)


def lower_training(model: Module, input_shape, model_name: str) -> OpPlan:
    """One training iteration: H2D batch, forward, loss, backward, update."""
    built = model.build(tuple(input_shape), Namer(model_name))
    namer = Namer(model_name)
    ops: List[PlannedOp] = [
        PlannedOp("copy", copy_bytes=_input_bytes(input_shape),
                  copy_kind=MemoryOpKind.MEMCPY_H2D)
    ]
    ops.extend(PlannedOp("forward", spec=s) for s in built.forward)
    # Loss + initial gradient: small elementwise kernels over the output.
    out_numel = max(1, math.prod(built.out_shape))
    ops.append(PlannedOp("backward",
                         spec=elementwise_spec(namer.name("loss"), out_numel,
                                               reads=2, writes=1,
                                               flops_per_element=4.0)))
    # Backward kernels run in reverse layer order.
    ops.extend(PlannedOp("backward", spec=s) for s in reversed(built.backward))
    # Optimizer update: fused Adam kernels over parameter chunks.
    remaining = built.params
    while remaining > 0:
        chunk = min(remaining, UPDATE_CHUNK)
        spec = KernelSpec(
            name=namer.name("adam_update"),
            flops=ADAM_FLOPS_PER_PARAM * chunk,
            bytes_moved=FP32_BYTES * ADAM_ACCESSES * chunk,
            launch=elementwise_spec("probe", max(chunk, 1)).launch,
            compute_efficiency=0.20,
            memory_efficiency=0.85,
        )
        ops.append(PlannedOp("update", spec=spec))
        remaining -= chunk
    activations = int(sum(s.bytes_moved for s in built.forward) / 3)
    state_bytes = 4 * FP32_BYTES * built.params + activations + _input_bytes(input_shape)
    return OpPlan(model_name, "training", input_shape[0], ops, built.params,
                  _input_bytes(input_shape), state_bytes)


class BoundPlan:
    """A plan bound to one device: each kernel's costs computed once.

    :meth:`launch` creates the fresh op objects of one request/iteration
    (they carry per-launch identity).  An owner that runs the plan
    repeatedly binds it once and keeps the binding for its own lifetime.
    """

    __slots__ = ("_ops", "_costs")

    def __init__(self, plan: OpPlan, device):
        self._ops = plan.ops
        # One cost per kernel, None for a copy (parallel to ``plan.ops``).
        self._costs = [None if planned.is_copy else kernel_cost(planned.spec, device)
                       for planned in plan.ops]

    def launch(self, client_id: Optional[str] = None,
               async_copies: bool = False) -> List[Union[KernelOp, MemoryOp]]:
        """Concrete ops for one request/iteration, in plan order."""
        blocking = not async_copies
        return [
            MemoryOp(kind=planned.copy_kind, nbytes=planned.copy_bytes,
                     client_id=client_id, blocking=blocking, tag=planned.phase)
            if cost is None else cost.launch(client_id, planned.phase)
            for planned, cost in zip(self._ops, self._costs)
        ]


def bind_plan(plan: OpPlan, device) -> BoundPlan:
    """Bind ``plan`` to ``device`` once (see :class:`BoundPlan`)."""
    return BoundPlan(plan, device)


def instantiate_plan(plan: OpPlan, device, client_id: Optional[str] = None,
                     async_copies: bool = False) -> List[Union[KernelOp, MemoryOp]]:
    """One-shot bind and launch: the ops of a single request/iteration."""
    return bind_plan(plan, device).launch(client_id, async_copies)
