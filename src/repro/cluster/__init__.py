"""Cluster-manager co-design (paper §7): interference-aware placement
and the multi-GPU resilience fleet built on top of it."""

from .fleet import (
    Fleet,
    FleetGpu,
    FleetJob,
    FleetResult,
    FleetRouter,
    GpuHealth,
    TenantPolicy,
    TenantSpec,
    availability_report,
)
from .migration import (
    InterferenceTracker,
    MigrationController,
    MigrationCostModel,
)
from .placement import (
    JobSignature,
    MoveProposal,
    Placement,
    adversarial_assignment,
    pair_interference,
    plan_placement,
    placement_summary,
    replan_placement,
    signature_of,
)

__all__ = [
    "JobSignature",
    "MoveProposal",
    "Placement",
    "signature_of",
    "pair_interference",
    "plan_placement",
    "replan_placement",
    "adversarial_assignment",
    "placement_summary",
    "InterferenceTracker",
    "MigrationController",
    "MigrationCostModel",
    "Fleet",
    "FleetGpu",
    "FleetJob",
    "FleetResult",
    "FleetRouter",
    "GpuHealth",
    "TenantPolicy",
    "TenantSpec",
    "availability_report",
]
