"""Telemetry overhead guard.

The tracer is off by default and every instrumentation site guards on
``tracer.enabled`` (one attribute load).  This benchmark holds the
subsystem to that promise:

* the §6.5 interception overhead, re-measured with the instrumented
  stack and telemetry disabled, stays within 2 points of the sec6_5
  bound (<3% there, <5% here);
* enabling the tracer changes *nothing* simulated — traced and
  untraced same-seed runs report identical service times, so the
  disabled tracer adds exactly 0% to any simulated measurement;
* a disabled tracer allocates no per-event objects (tracemalloc).
"""

import gc
import tracemalloc

from bench_common import run_cell, save_result

from repro.experiments.params import ExperimentParams, JobSpec
from repro.experiments.tables import format_table
from repro.telemetry.tracer import NULL_TRACER, TelemetryConfig

WORKLOADS = (("resnet50", "inference"), ("mobilenet_v2", "training"))


def run_solo(model, kind, backend, tracing=False):
    job = JobSpec(model=model, kind=kind, high_priority=True,
                  arrivals="closed")
    config = ExperimentParams(jobs=[job], backend=backend, duration=1.5)
    result = run_cell(config, TelemetryConfig(tracing=tracing))
    records = result.hp_job.stats.records
    assert records, f"{model}:{kind} produced no records under {backend}"
    spans = [r.service_time for r in records]
    return sum(spans) / len(spans)


def reproduce_telemetry_overhead():
    payload = {}
    for model, kind in WORKLOADS:
        native = run_solo(model, kind, "ideal")
        orion = run_solo(model, kind, "orion")
        traced = run_solo(model, kind, "orion", tracing=True)
        payload[f"{model}:{kind}"] = {
            "native_s": native,
            "orion_s": orion,
            "orion_traced_s": traced,
            "overhead": orion / native - 1.0,
            "tracer_delta": traced / orion - 1.0,
        }
    return payload


def test_telemetry_overhead(benchmark):
    payload = benchmark.pedantic(reproduce_telemetry_overhead,
                                 rounds=1, iterations=1)
    rows = [[key, f"{d['native_s']*1e3:.2f}ms", f"{d['orion_s']*1e3:.2f}ms",
             f"{d['overhead']*100:+.2f}%", f"{d['tracer_delta']*100:+.2f}%"]
            for key, d in payload.items()]
    print()
    print(format_table(
        ["Workload", "Native", "Via Orion", "Overhead", "Tracer delta"],
        rows))
    save_result("telemetry_overhead", payload)
    for key, data in payload.items():
        # sec6_5 allows 3%; the telemetry satellite allows 2 more points.
        assert data["overhead"] < 0.05, key
        # A tracer records simulated time but never spends it: enabling
        # tracing must leave every simulated measurement bit-identical.
        assert data["orion_traced_s"] == data["orion_s"], key


def test_disabled_tracer_allocates_no_event_objects():
    """1000 unguarded calls to every NullTracer record method allocate
    nothing; the guarded ``instant`` pattern never even dispatches."""
    t = NULL_TRACER
    iterations = tuple(range(1000))
    # Warm CPython's method/frame caches outside the measured window.
    t.op_submit("c", 0, "k", True)
    t.counter("device", "util", 0.0)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in iterations:
            t.op_submit("c", i, "k", True)
            t.op_enqueue("c", i, 1)
            t.op_schedule("c", i)
            t.op_dispatch("c", i, "s")
            t.op_complete("c", i, "s", 0.001, True)
            t.counter("device", "util", 0.5)
            t.request("c", 0.0, 0.0)
            t.sim_event("cb")
            if t.enabled:  # the hot-path pattern for kwarg-taking sites
                t.instant("scheduler", "be_block", client="c", reason="x")
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 9000 record calls: any per-event object would cost tens of KB.
    # Allow a whisper of interpreter noise, far below one object/call.
    assert after - before < 1024, f"disabled tracer allocated {after - before}B"
