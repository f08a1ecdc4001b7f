"""Workload definitions shared by the perf benchmark's runner, child and tools.

A workload is a fixed list of *cells*.  A cell is one catalog scenario
run, ``make_scenario(name, seed=..., duration=..., **overrides)``, and
one *pass* runs every cell of the workload once.  Cell seeds derive
from the benchmark's ``--seed`` (``seed * SEED_STRIDE`` plus a per-cell
offset), so the same seed always gives the same inputs and seeds 0 and
1 never share a cell.

Run as a script, this module re-pins ``digests.json``::

    python3 benchmarks/perf/spec.py --pin

Re-pinning is a benchmark change of its own: a change that claims a
speed-up must leave every pinned digest matching.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DIGESTS_JSON = HERE / "digests.json"
#: Daemon journals go into temporary directories under here: inside the
#: checkout, because the benchmark writes nowhere outside it.
WORK_DIR = ROOT / ".bench_build" / "perf"

SEED_STRIDE = 8
#: Workload seeds whose cell digests are pinned in ``digests.json``.
PINNED_SEEDS = (0, 1)
#: Fresh starts per run; ``setup_s`` is their median.
SETUP_STARTS = 3

#: Seconds of ``--seconds`` that buy one timed pass (one daemon round
#: for serve_mix).  The pass count depends on ``--seconds`` alone, never
#: on how fast the code under test runs, so both sides of an A/B pair
#: take their median over the same number of passes.
PASS_S = {"orion_single_gpu": 5.0, "fleet_failover": 5.0,
          "baseline_pairs": 5.0, "serve_mix": 3.75}

#: Smallest horizon each catalog entry accepts (experiment cells must
#: outlast their 0.5 s warm-up window).  A child warms its caches with
#: every distinct cell at this horizon during set-up, and ``--smoke``
#: runs its cells at it.
SHORT_DURATION = {
    "overload_ref": 0.02,
    "llm_ref": 0.06,
    "inf_train_ref": 0.55,
    "train_train_ref": 0.55,
    "fleet_ref": 0.02,
    "llm": 0.02,
    "faults": 0.02,
}

#: serve_mix job kinds: (catalog name, horizon override).  Small jobs
#: (~35-250 ms of host time), so daemon overhead is a large share.
SERVE_KINDS = (("llm", 0.05), ("faults", 0.05),
               ("train_train_ref", None), ("inf_train_ref", None))


@dataclass(frozen=True)
class Cell:
    """One scenario run: a catalog name plus its seed and overrides."""

    name: str
    seed: int
    duration: Optional[float] = None
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        """Stable identity, used to pin digests and match daemon jobs."""
        parts = [self.name, f"seed={self.seed}"]
        if self.duration is not None:
            parts.append(f"duration={self.duration:g}")
        parts += [f"{k}={v}" for k, v in self.overrides]
        return " ".join(parts)

    @property
    def variant(self) -> Tuple:
        """The cell without its seed: cells of one variant share caches."""
        return (self.name, self.duration, self.overrides)

    def short(self) -> "Cell":
        return replace(self, duration=SHORT_DURATION[self.name])

    def scenario(self):
        from repro.experiments.registry import make_scenario

        return make_scenario(self.name, seed=self.seed,
                             duration=self.duration, **dict(self.overrides))

    def submit_fields(self) -> Dict[str, Any]:
        """Keyword arguments for ``ServeClient.submit``."""
        return {"name": self.name, "seed": self.seed,
                "duration": self.duration,
                "overrides": dict(self.overrides) or None}


# Horizons are chosen so one pass of a sim workload takes about 4 s on
# the reference host: three passes and set-up then fit one run
# in about 25 s, short enough for every run of every workload to fit
# the benchmark's total time.


def _orion_single_gpu(base: int) -> List[Cell]:
    # overload_ref at half its catalog horizon, or it alone would be
    # most of the pass.
    return ([Cell("overload_ref", base, 0.2)]
            + [Cell("llm_ref", base + i) for i in range(2)]
            + [Cell("inf_train_ref", base + i) for i in range(3)]
            + [Cell("train_train_ref", base + i) for i in range(4)])


def _fleet_failover(base: int) -> List[Cell]:
    # Two seeds: fleet_ref's event count moves +-6% with the seed.
    # Faults land in the middle 40% of any horizon.
    return [Cell("fleet_ref", base + i, 0.08) for i in range(2)]


def _baseline_pairs(base: int) -> List[Cell]:
    # Every backend runs on the same arrivals, as in the paper; two
    # seeds average out how much work one seed's arrivals make.
    return [cell for seed in (base, base + 1) for cell in (
        [Cell("inf_train_ref", seed, 1.3, (("backend", b),))
         for b in ("reef", "mps", "temporal")]
        + [Cell("train_train_ref", seed, 1.3, (("backend", b),))
           for b in ("streams", "ticktock")])]


def _serve_mix(base: int) -> List[Cell]:
    # Kinds interleaved, so every stretch of the round mixes short and
    # long jobs the same way whatever the seed.
    return [Cell(name, base + i, duration)
            for i in range(4) for name, duration in SERVE_KINDS]


#: Workload name -> cells of one pass, given the base seed.
WORKLOADS = {
    "orion_single_gpu": _orion_single_gpu,
    "fleet_failover": _fleet_failover,
    "baseline_pairs": _baseline_pairs,
    "serve_mix": _serve_mix,
}
#: Workloads whose timed run goes through a ``repro serve`` daemon.
SERVED = frozenset({"serve_mix"})


def cells(workload: str, seed: int, smoke: bool = False) -> List[Cell]:
    """The cells of one pass of ``workload`` at benchmark seed ``seed``.

    ``smoke`` keeps one cell per variant (two per job kind for
    serve_mix, so it still submits 8 jobs) at the short horizon.
    """
    full = WORKLOADS[workload](seed * SEED_STRIDE)
    if not smoke:
        return full
    per_variant = 2 if workload in SERVED else 1
    seen: Counter = Counter()
    kept: List[Cell] = []
    for cell in full:
        seen[cell.variant] += 1
        if seen[cell.variant] <= per_variant:
            kept.append(cell.short())
    return kept


def passes(workload: str, seconds: float) -> int:
    """Timed passes of one run: ``seconds`` over ``PASS_S``, at least one."""
    return max(1, round(seconds / PASS_S[workload]))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_JSON) as fh:
        return json.load(fh)["digests"]


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` (no install needed)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}; run the "
                         "benchmark from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path,
    and one string-hash seed, so dict layouts, and with them the speed
    of a run, do not change from one process to the next."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


class Lines:
    """Newline-framed reads from a child's unbuffered stdout, each
    bounded by an absolute ``time.monotonic()`` deadline."""

    def __init__(self, proc):
        self._fd = proc.stdout.fileno()
        self._buffer = b""

    def next(self, deadline: float) -> str:
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("child process did not answer in time")
            if select.select([self._fd], [], [], left)[0]:
                chunk = os.read(self._fd, 1 << 16)
                if not chunk:
                    raise EOFError("child process closed its stdout")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")


def pin() -> None:
    """Recompute every pinned cell's digest in-process and rewrite
    ``digests.json``."""
    use_source_tree()
    from repro.experiments.scenario import run

    keyed = {}
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            for cell in cells(workload, seed):
                if cell.key not in keyed:
                    keyed[cell.key] = digest(run(cell.scenario()).to_json())
                    print(f"{cell.key}: {keyed[cell.key]}")
    payload = {
        "note": "sha256 of ScenarioResult.to_json() for every cell of every "
                f"workload at benchmark seeds {list(PINNED_SEEDS)}; "
                "regenerate with `python3 benchmarks/perf/spec.py --pin`.",
        "digests": dict(sorted(keyed.items())),
    }
    with open(DIGESTS_JSON, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true", required=True,
                        help="recompute and rewrite digests.json")
    parser.parse_args()
    pin()
