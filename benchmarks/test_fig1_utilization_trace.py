"""Figure 1: GPU compute-throughput and memory-bandwidth utilization
over one MobileNetV2 training iteration (batch size 96).

The paper's figure shows bursty utilization, low on average (<40%
compute, <55% memory bandwidth), with compute and memory spikes at
different times.  We run the training job solo with telemetry on and
regenerate the two series at 1 ms bins.
"""

import numpy as np

from bench_common import run_cell, save_result

from repro.experiments.params import ExperimentParams, JobSpec
from repro.experiments.tables import format_series
from repro.metrics.utilization import average_utilization, binned_trace

BATCH_SIZE = 96  # the paper's Figure 1 setup


def reproduce_fig1():
    job = JobSpec(model="mobilenet_v2", kind="training", high_priority=True,
                  batch_size=BATCH_SIZE)
    config = ExperimentParams(jobs=[job], backend="ideal", duration=1.5,
                              record_utilization=True)
    result = run_cell(config)
    segments = result.utilization_segments
    # One training iteration starts after warmup; trace a 100 ms window.
    times, compute, memory, _sm = binned_trace(segments, 0.5, 0.6,
                                               bin_width=1e-3)
    averages = average_utilization(segments, 0.5, 1.5)
    return times, compute, memory, averages


def test_fig1(benchmark):
    times, compute, memory, averages = benchmark.pedantic(
        reproduce_fig1, rounds=1, iterations=1
    )
    print()
    print(format_series("fig1a compute-throughput utilization",
                        [f"{t*1e3:.0f}ms" for t in times[:25]],
                        [f"{c:.2f}" for c in compute[:25]]))
    print(format_series("fig1b memory-bandwidth utilization",
                        [f"{t*1e3:.0f}ms" for t in times[:25]],
                        [f"{m:.2f}" for m in memory[:25]]))
    print(f"avg compute={averages.compute:.2f} (paper <0.40), "
          f"avg membw={averages.memory_bw:.2f} (paper <0.55)")
    save_result("fig1", {
        "times": list(times), "compute": list(compute), "memory": list(memory),
        "avg_compute": averages.compute, "avg_memory_bw": averages.memory_bw,
    })
    # Paper's reading: bursty, low on average, anti-correlated spikes.
    assert averages.compute < 0.40
    assert averages.memory_bw < 0.70
    assert compute.max() > 2 * max(averages.compute, 0.01)  # bursty
    # Compute spikes and memory spikes do not coincide.
    correlation = np.corrcoef(compute, memory)[0, 1]
    assert correlation < 0.5
