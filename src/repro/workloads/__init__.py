"""Workloads: model zoo, arrival processes, traces, client job drivers."""

from .apollo import APOLLO_BASE_RPS, apollo_trace
from .arrivals import (
    ArrivalProcess,
    ClosedLoop,
    PoissonArrivals,
    TraceArrivals,
    UniformArrivals,
    make_arrivals,
)
from .clients import (
    ClientStats,
    InferenceClient,
    RequestRecord,
    TrainingClient,
)
from .models import MODEL_NAMES, NLP_MODELS, VISION_MODELS, batch_size_for
from .rates import TABLE3_RPS, rps_for
from .registry import (
    WORKLOADS,
    LlmWorkload,
    WorkloadSpec,
    ZooWorkload,
    build_plan,
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "apollo_trace",
    "APOLLO_BASE_RPS",
    "ArrivalProcess",
    "UniformArrivals",
    "PoissonArrivals",
    "TraceArrivals",
    "ClosedLoop",
    "make_arrivals",
    "InferenceClient",
    "TrainingClient",
    "ClientStats",
    "RequestRecord",
    "batch_size_for",
    "MODEL_NAMES",
    "VISION_MODELS",
    "NLP_MODELS",
    "TABLE3_RPS",
    "rps_for",
    "WorkloadSpec",
    "ZooWorkload",
    "LlmWorkload",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
    "build_plan",
]
