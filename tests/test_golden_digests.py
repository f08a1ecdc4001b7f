"""Golden canonical-JSON digests for every catalog scenario.

Each catalog entry runs at its shortest valid horizon (just past its
warm-up window) at two seeds, and the sha256 of
``ScenarioResult.to_json()`` must match the value pinned in
``golden_digests.json``.  Every non-Orion backend each kind accepts is
pinned too, at seed 0, so the wiring of every (kind, backend) cell is
covered.  Two traced runs pin the Chrome trace, metrics snapshot and
attribution report as well: ``repro trace overload`` covers the
telemetry-on path, and ``repro trace inf-train --set backend=ideal``
the per-client devices of the ideal backend.  Three engine-traced runs
pin the order of execution itself: the ``(sim time, callback)``
sequence of every executed calendar entry.  A change that is meant to be
behaviour-preserving (a refactor, a speed-up) must leave every digest
matching; a semantic drift in the scheduler fails here.

Re-pin deliberately, and only for an intended behaviour change::

    PYTHONPATH=src python tests/test_golden_digests.py --pin
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.registry import make_scenario, scenario_names
from repro.experiments.scenario import run
from repro.telemetry.tracer import SIM_EVENT, TelemetryConfig

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (0, 1)
#: Shortest valid horizon per catalog entry: experiment cells must
#: outlast their 0.5 s warm-up, and entries with their own warm-up
#: (llm_ref, fleet_rebalance) run just past it.
HORIZON = {
    "inf-inf": 0.55,
    "inf-train": 0.55,
    "inf_train_ref": 0.55,
    "train-train": 0.55,
    "train_train_ref": 0.55,
    "faults": 0.02,
    "fleet": 0.02,
    "fleet_ref": 0.02,
    "llm": 0.02,
    "overload": 0.02,
    "overload_ref": 0.02,
    "llm_ref": 0.06,
    "fleet_rebalance": 0.11,
}
#: Non-Orion (catalog name, backend, overrides) cells, run at seed 0.
BACKEND_CELLS = (
    *(("inf-train", backend, {}) for backend in
      ("ideal", "temporal", "streams", "priority-streams", "mps", "reef")),
    ("train-train", "ticktock", {}),
    *(("faults", backend, {}) for backend in
      ("reef", "streams", "priority-streams")),
    *(("fleet", backend, {"num_gpus": 2}) for backend in
      ("reef", "streams", "priority-streams")),
    *(("llm", backend, {}) for backend in
      ("temporal", "streams", "priority-streams")),
)
TRACE_ARGS = ("trace", "overload", "--duration", "0.05", "--seed", "0")
IDEAL_TRACE_ARGS = ("trace", "inf-train", "--set", "backend=ideal",
                    "--set", "warmup=0.025", "--duration", "0.1",
                    "--seed", "0")
#: (catalog name, overrides) cells whose calendar order is pinned, at
#: seed 0 and the catalog horizon above: the Orion overload path, the
#: REEF device path, and the multi-GPU fleet.
ENGINE_ORDER_CELLS = (
    ("overload_ref", {}),
    ("inf-train", {"backend": "reef"}),
    ("fleet_ref", {}),
)
ENGINE_TELEMETRY = TelemetryConfig(tracing=True, engine_events=True,
                                   capacity=1 << 22)


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _cell_key(name: str, seed: int) -> str:
    return f"{name} seed={seed} duration={HORIZON[name]:g}"


def scenario_digest(name: str, seed: int) -> str:
    return _sha(run(make_scenario(name, seed=seed,
                                  duration=HORIZON[name])).to_json())


def _backend_key(name: str, backend: str, overrides: dict) -> str:
    extra = "".join(f" {k}={v}" for k, v in sorted(overrides.items()))
    return (f"{name} backend={backend}{extra} seed=0 "
            f"duration={HORIZON[name]:g}")


def backend_digest(name: str, backend: str, overrides: dict) -> str:
    return _sha(run(make_scenario(name, seed=0, duration=HORIZON[name],
                                  backend=backend, **overrides)).to_json())


def _trace_key(args) -> str:
    return "repro " + " ".join(args)


def trace_digests(args) -> dict:
    """sha256 of each file one ``repro trace`` run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {kind: str(Path(tmp) / f"{kind}.json")
               for kind in ("trace", "metrics", "attribution")}
        cli_main([*args, "--out", out["trace"],
                  "--metrics-out", out["metrics"],
                  "--attribution-out", out["attribution"]])
        return {kind: _sha(Path(path).read_text())
                for kind, path in out.items()}


def _engine_key(name: str, overrides: dict) -> str:
    return _backend_key(name, overrides["backend"], {}) if overrides \
        else _cell_key(name, 0)


def engine_order_digest(name: str, overrides: dict) -> dict:
    """Count and sha256 of the ``(sim time, callback __qualname__)``
    sequence of every calendar entry one run executes."""
    scenario = dataclasses.replace(
        make_scenario(name, seed=0, duration=HORIZON[name], **overrides),
        telemetry=ENGINE_TELEMETRY)
    result = run(scenario)
    assert not result.tracer.dropped
    events = [f"{ts!r} {label}"
              for _, ts, label in result.tracer.iter_events(SIM_EVENT)]
    assert len(events) == result.events_processed
    return {"events": len(events), "sha256": _sha("\n".join(events))}


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_catalog_entry_is_pinned():
    assert sorted(HORIZON) == sorted(scenario_names())
    expected = {_cell_key(name, seed) for name in HORIZON for seed in SEEDS}
    assert set(_pinned()["scenarios"]) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(HORIZON))
def test_scenario_digest_matches_pin(name, seed):
    assert scenario_digest(name, seed) == \
        _pinned()["scenarios"][_cell_key(name, seed)]


def test_every_backend_cell_is_pinned():
    expected = {_backend_key(*cell) for cell in BACKEND_CELLS}
    assert len(expected) == len(BACKEND_CELLS)
    assert set(_pinned()["backends"]) == expected


@pytest.mark.parametrize("name,backend,overrides", BACKEND_CELLS,
                         ids=[_backend_key(*cell) for cell in BACKEND_CELLS])
def test_backend_digest_matches_pin(name, backend, overrides):
    assert backend_digest(name, backend, overrides) == \
        _pinned()["backends"][_backend_key(name, backend, overrides)]


def test_traced_overload_digests_match_pin(capsys):
    assert trace_digests(TRACE_ARGS) == \
        _pinned()["trace"][_trace_key(TRACE_ARGS)]


def test_traced_ideal_digests_match_pin(capsys):
    assert trace_digests(IDEAL_TRACE_ARGS) == \
        _pinned()["trace"][_trace_key(IDEAL_TRACE_ARGS)]


@pytest.mark.parametrize("name,overrides", ENGINE_ORDER_CELLS,
                         ids=[_engine_key(*cell) for cell in ENGINE_ORDER_CELLS])
def test_engine_order_matches_pin(name, overrides):
    """Same events in the same order: ``events_processed`` pins only
    how many calendar entries ran, this pins which ones and when."""
    assert engine_order_digest(name, overrides) == \
        _pinned()["engine_order"][_engine_key(name, overrides)]


@pytest.mark.parametrize("name", sorted(HORIZON))
def test_trace_any_catalog_name(name, tmp_path, monkeypatch, capsys):
    """``repro trace NAME`` takes every catalog name and writes a
    non-empty trace, metrics snapshot and attribution report; tracing
    is observation-only, so the traced run's canonical JSON has the
    untraced run's pinned digest."""
    import repro.cli

    runs = []

    def run_and_keep(scenario):
        runs.append(run(scenario))
        return runs[-1]

    monkeypatch.setattr(repro.cli, "run_scenario", run_and_keep)
    out = {kind: tmp_path / f"{kind}.json"
           for kind in ("trace", "metrics", "attribution")}
    assert cli_main(["trace", name, "--seed", "0",
                     "--duration", f"{HORIZON[name]:g}",
                     "--out", str(out["trace"]),
                     "--metrics-out", str(out["metrics"]),
                     "--attribution-out", str(out["attribution"])]) == 0
    assert json.loads(out["trace"].read_text())["traceEvents"]
    assert set(json.loads(out["metrics"].read_text())) == \
        {"counters", "gauges", "histograms"}
    assert isinstance(json.loads(out["attribution"].read_text()), dict)
    (traced,) = runs
    assert traced.tracer.enabled and len(traced.tracer)
    assert _sha(traced.to_json()) == \
        _pinned()["scenarios"][_cell_key(name, 0)]


def _pin() -> None:
    scenarios = {_cell_key(name, seed): scenario_digest(name, seed)
                 for name in sorted(HORIZON) for seed in SEEDS}
    backends = {_backend_key(*cell): backend_digest(*cell)
                for cell in BACKEND_CELLS}
    traces = {_trace_key(args): trace_digests(args)
              for args in (TRACE_ARGS, IDEAL_TRACE_ARGS)}
    engine_order = {_engine_key(*cell): engine_order_digest(*cell)
                    for cell in ENGINE_ORDER_CELLS}
    payload = {"scenarios": scenarios, "backends": backends,
               "trace": traces, "engine_order": engine_order}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(scenarios)} scenario digests, {len(backends)} "
          f"backend cells, {len(traces)} traces + {len(engine_order)} "
          f"engine orders to {GOLDEN}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help="re-generate golden_digests.json")
    if parser.parse_args().pin:
        _pin()
