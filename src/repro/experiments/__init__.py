"""Experiment harness: params, runner, catalog, table formatting."""

from .params import ExperimentParams, JobSpec
from .registry import (
    inf_inf_config,
    inf_train_config,
    multi_client_config,
    solo_inference_config,
    train_train_config,
)
from .overload import OverloadResult
from .registry import SCENARIOS, make_scenario, scenario_names
from .runner import (
    ExperimentResult,
    JobResult,
    get_profile,
    solo_latency_summary,
    solo_throughput,
)
from .scenario import Scenario, ScenarioResult
from .scenario import run as run_scenario
from .sweep import run_sweep, sweep_to_json
from .tables import format_series, format_table, ratio

__all__ = [
    "ExperimentParams",
    "JobSpec",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "SCENARIOS",
    "make_scenario",
    "scenario_names",
    "run_sweep",
    "sweep_to_json",
    "ExperimentResult",
    "JobResult",
    "get_profile",
    "solo_throughput",
    "solo_latency_summary",
    "OverloadResult",
    "inf_train_config",
    "train_train_config",
    "inf_inf_config",
    "multi_client_config",
    "solo_inference_config",
    "format_table",
    "format_series",
    "ratio",
]
