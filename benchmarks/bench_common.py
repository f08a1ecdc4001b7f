"""Shared infrastructure for the figure/table reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant collocation experiments on the simulator, prints the same
rows/series the paper reports (plus the paper's own numbers where they
are quoted), and records the headline measurement via pytest-benchmark.

Absolute values are not expected to match the authors' testbed — the
substrate here is a calibrated simulator — but the *shape* (who wins,
by roughly what factor) is asserted where the paper makes a claim.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.params import ExperimentParams
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenario import Scenario, run as run_scenario
from repro.telemetry.tracer import TelemetryConfig

__all__ = [
    "run_cell",
    "save_result",
    "INFERENCE_MODELS",
    "TRAINING_MODELS",
    "VISION",
    "BACKENDS_MAIN",
    "DURATION",
    "WARMUP",
    "ms",
]

# Evaluation matrix used by the figure benchmarks.  The paper sweeps
# all 5x5 model pairs; to keep each benchmark minutes-scale we pair
# every high-priority model with two representative best-effort models
# (one memory-leaning vision model, one compute-leaning NLP model) and
# note the reduction in EXPERIMENTS.md.
INFERENCE_MODELS = ("resnet50", "mobilenet_v2", "resnet101", "bert", "transformer")
VISION = ("resnet50", "mobilenet_v2", "resnet101")
TRAINING_MODELS = ("mobilenet_v2", "bert")
BACKENDS_MAIN = ("ideal", "mps", "reef", "orion")

DURATION = 2.5
WARMUP = 0.4

_RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR",
                                   Path(__file__).resolve().parent / "results"))


def run_cell(params: ExperimentParams,
             telemetry: Optional[TelemetryConfig] = None) -> ExperimentResult:
    """Run one experiment cell with the benchmark-wide warmup."""
    params = dataclasses.replace(params, warmup=WARMUP)
    return run_scenario(Scenario(kind="experiment", params=params,
                                 telemetry=telemetry)).result


def ms(seconds: float) -> float:
    return seconds * 1e3


def save_result(name: str, payload: Dict) -> Path:
    """Persist a benchmark's rows under benchmarks/results/<name>.json."""
    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = _RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, default=float))
    return path
