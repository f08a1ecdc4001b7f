"""Figures 8 and 9: utilization of an inference job alone vs collocated
with training under Orion.

Paper setup: ResNet50 inference at 100 uniform rps on a dedicated V100
(8a/9a), then the same job collocated with ResNet50 training under
Orion (8b/9b).  Orion fills the fine-grained idle periods: average
compute-throughput utilization rises 7% -> 36% and memory-bandwidth
utilization 10% -> 47% in the paper.
"""

from bench_common import run_cell, save_result

from repro.experiments.params import ExperimentParams, JobSpec
from repro.experiments.registry import solo_inference_config
from repro.experiments.tables import format_series
from repro.metrics.utilization import binned_trace

RPS = 100.0


def measure_alone():
    config = solo_inference_config("resnet50", rps=RPS, duration=2.0,
                                   record_utilization=True)
    return run_cell(config)


def measure_collocated():
    hp = JobSpec(model="resnet50", kind="inference", high_priority=True,
                 arrivals="uniform", rps=RPS)
    be = JobSpec(model="resnet50", kind="training")
    config = ExperimentParams(jobs=[hp, be], backend="orion", duration=2.0,
                              record_utilization=True)
    return run_cell(config)


def reproduce_fig8_9():
    alone = measure_alone()
    collocated = measure_collocated()
    return alone, collocated


def test_fig8_9(benchmark):
    alone, collocated = benchmark.pedantic(reproduce_fig8_9, rounds=1,
                                           iterations=1)
    a, c = alone.utilization, collocated.utilization
    times, compute_alone, mem_alone, _ = binned_trace(
        alone.utilization_segments, 0.5, 0.7, bin_width=2e-3)
    _, compute_col, mem_col, _ = binned_trace(
        collocated.utilization_segments, 0.5, 0.7, bin_width=2e-3)
    print()
    print(format_series("fig8a compute util (alone)",
                        [f"{t*1e3:.0f}ms" for t in times[:20]],
                        [f"{v:.2f}" for v in compute_alone[:20]]))
    print(format_series("fig8b compute util (orion collocated)",
                        [f"{t*1e3:.0f}ms" for t in times[:20]],
                        [f"{v:.2f}" for v in compute_col[:20]]))
    print(f"avg compute: alone={a.compute:.2f} collocated={c.compute:.2f} "
          f"(paper 0.07 -> 0.36)")
    print(f"avg membw:   alone={a.memory_bw:.2f} collocated={c.memory_bw:.2f} "
          f"(paper 0.10 -> 0.47)")
    print(f"avg SM busy: alone={a.sm_busy:.2f} collocated={c.sm_busy:.2f} "
          f"(paper 0.11 -> 0.49)")
    save_result("fig8_9", {
        "alone": {"compute": a.compute, "memory_bw": a.memory_bw,
                  "sm_busy": a.sm_busy},
        "collocated": {"compute": c.compute, "memory_bw": c.memory_bw,
                       "sm_busy": c.sm_busy},
    })
    # Orion fills idle capacity: every utilization axis rises materially.
    assert c.compute > 1.5 * a.compute
    assert c.memory_bw > 1.5 * a.memory_bw
    assert c.sm_busy > 1.5 * a.sm_busy
    # And the HP job is still served (not starved by the BE trainer).
    assert collocated.hp_job.throughput > 0.9 * alone.hp_job.throughput
