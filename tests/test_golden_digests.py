"""Golden canonical-JSON digests for every catalog scenario.

Each catalog entry runs at its shortest valid horizon (just past its
warm-up window) at two seeds, and the sha256 of
``ScenarioResult.to_json()`` must match the value pinned in
``golden_digests.json``.  One traced ``repro trace overload`` run pins
the Chrome trace, metrics snapshot and attribution report as well, so
the telemetry-on path is covered too.  A change that is meant to be
behaviour-preserving (a refactor, a speed-up) must leave every digest
matching; a semantic drift in the scheduler fails here.

Re-pin deliberately, and only for an intended behaviour change::

    PYTHONPATH=src python tests/test_golden_digests.py --pin
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.registry import make_scenario, scenario_names
from repro.experiments.scenario import run

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
TRACE_ARGS = ("trace", "overload", "--duration", "0.05", "--seed", "0")
TRACE_KEY = "repro " + " ".join(TRACE_ARGS)


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _cell_key(name: str, seed: int) -> str:
    return f"{name} seed={seed} duration={HORIZON[name]:g}"


def scenario_digest(name: str, seed: int) -> str:
    return _sha(run(make_scenario(name, seed=seed,
                                  duration=HORIZON[name])).to_json())


def trace_digests() -> dict:
    """sha256 of each file ``repro trace overload`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {kind: str(Path(tmp) / f"{kind}.json")
               for kind in ("trace", "metrics", "attribution")}
        cli_main([*TRACE_ARGS, "--out", out["trace"],
                  "--metrics-out", out["metrics"],
                  "--attribution-out", out["attribution"]])
        return {kind: _sha(Path(path).read_text())
                for kind, path in out.items()}


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


def test_traced_overload_digests_match_pin(capsys):
    assert trace_digests() == _pinned()["trace"][TRACE_KEY]


def _pin() -> None:
    scenarios = {_cell_key(name, seed): scenario_digest(name, seed)
                 for name in sorted(HORIZON) for seed in SEEDS}
    payload = {"scenarios": scenarios, "trace": {TRACE_KEY: trace_digests()}}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(scenarios)} scenario digests + trace to {GOLDEN}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help="re-generate golden_digests.json")
    if parser.parse_args().pin:
        _pin()
