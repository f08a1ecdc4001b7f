"""Smoke test of the perf benchmark harness (``run.py --smoke``).

Not collected by the tier-1 suite; run it with::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

One untraced and two traced smoke runs of every workload execute
concurrently (about 30 s on two cores).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUNS = {"plain": 0, "trace_a": 1, "trace_b": 1}


@pytest.fixture(scope="module")
def runs():
    """Tag -> the last stdout line of that smoke run, parsed."""
    procs = {
        tag: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for tag, trace in RUNS.items()}
    results = {}
    for tag, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=150)
        assert proc.returncode == 0, stderr.decode()
        results[tag] = json.loads(stdout.decode().splitlines()[-1])
    return results


@pytest.mark.parametrize("tag", sorted(RUNS))
def test_every_listed_metric_is_emitted_with_its_unit(runs, tag):
    listed = BENCHMARK["per_layer" if RUNS[tag] else "end_to_end"]
    metrics = runs[tag]["metrics"]
    expected = {f"{w}/{m['name']}": m["unit"]
                for w in WORKLOADS for m in listed}
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == expected
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


@pytest.mark.parametrize("tag", sorted(RUNS))
def test_no_operation_fails(runs, tag):
    result = runs[tag]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True


def test_work_counts_repeat_exactly(runs):
    deterministic = [m["name"] for m in BENCHMARK["per_layer"]
                     if m["unit"] in ("count", "ratio")]
    for workload in WORKLOADS:
        for name in deterministic:
            key = f"{workload}/{name}"
            assert runs["trace_a"]["metrics"][key] \
                == runs["trace_b"]["metrics"][key], key


def test_layer_self_times_cover_the_traced_wall(runs):
    metrics = runs["trace_a"]["metrics"]
    for workload in WORKLOADS:
        total = sum(metric["value"] for name, metric in metrics.items()
                    if name.startswith(f"{workload}/")
                    and name.endswith(".self_pct"))
        assert 95.0 <= total <= 105.0, (workload, total)


def test_baseline_pairs_bypass_the_orion_scheduler(runs):
    metrics = runs["trace_a"]["metrics"]
    assert metrics["baseline_pairs/core.be_launched"]["value"] == 0
    assert metrics["baseline_pairs/core.scheduler.self_pct"]["value"] < 1.0
