"""Reproduction of "Orion: Interference-aware, Fine-grained GPU Sharing
for ML Applications" (EuroSys '24) on a calibrated discrete-event GPU
simulator.

Public entry points:

* :mod:`repro.core` — the Orion scheduler.
* :mod:`repro.baselines` — temporal, Streams, MPS, REEF-N, Tick-Tock, Ideal.
* :mod:`repro.experiments` — scenario params, the ``Scenario`` API and the
  simulated testbed behind every paper table/figure.
* :mod:`repro.workloads` — the five DNN models, arrival processes, clients.
* :mod:`repro.gpu` / :mod:`repro.sim` — the simulated device substrate.
"""

__version__ = "1.0.0"

from repro.core import OrionBackend, OrionConfig
from repro.experiments import ExperimentParams, JobSpec, Scenario, run_scenario

__all__ = [
    "OrionBackend",
    "OrionConfig",
    "ExperimentParams",
    "JobSpec",
    "Scenario",
    "run_scenario",
    "__version__",
]
