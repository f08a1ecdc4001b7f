"""Deterministic fault injection: plans, the injector process, and the
canonical collocation-under-faults scenario.  GPU-level fleet events
(GpuCrash/GpuDegrade/GpuRecover) target :mod:`repro.cluster.fleet`."""

from .injector import FaultInjector
from .plan import (
    FaultEvent,
    FaultPlan,
    GpuCrash,
    GpuDegrade,
    GpuRecover,
    KernelFault,
    KillClient,
    ProfileFault,
    TransferFault,
)
from .scenario import FaultScenarioResult

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultScenarioResult",
    "GpuCrash",
    "GpuDegrade",
    "GpuRecover",
    "KernelFault",
    "KillClient",
    "ProfileFault",
    "TransferFault",
]
