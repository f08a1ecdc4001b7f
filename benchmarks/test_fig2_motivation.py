"""Figure 2: existing GPU collocation techniques leave performance on
the table.

Three job pairs (each jobs issues one request at a time in a closed
loop) run under every sharing technique; the stacked throughput is
normalized to Ideal (both jobs on dedicated GPUs).  The paper's
reading: temporal/MPS/Streams/Tick-Tock sit far below Ideal, REEF
serves the HP job but barely runs the BE job; Orion closes the gap.
"""

from bench_common import run_cell, save_result

from repro.experiments.params import ExperimentParams, JobSpec
from repro.experiments.tables import format_table
from repro.experiments.runner import solo_throughput

PAIRS = [
    ("resnet50:inference", "mobilenet_v2:training"),
    ("bert:inference", "resnet50:training"),
    ("resnet50:training", "mobilenet_v2:training"),
]


def job_from(token: str, high_priority: bool) -> JobSpec:
    model, kind = token.split(":")
    return JobSpec(model=model, kind=kind, high_priority=high_priority,
                   arrivals="closed")


def backends_for(pair):
    base = ["temporal", "streams", "mps", "reef", "orion"]
    if all(token.endswith(":training") for token in pair):
        base.insert(3, "ticktock")
    return base


def run_pair(pair, backend):
    hp = job_from(pair[0], True)
    be = job_from(pair[1], False)
    orion_kwargs = {}
    if backend == "orion" and pair[0].endswith(":training"):
        # §5.1.1: throughput-oriented HP jobs raise SM_THRESHOLD.
        orion_kwargs = {"sm_threshold": 160}
    config = ExperimentParams(jobs=[hp, be], backend=backend, duration=2.5,
                              orion=orion_kwargs)
    result = run_cell(config)
    return result.hp_job.throughput, result.be_jobs()[0].throughput


def reproduce_fig2():
    rows = []
    payload = {}
    for pair in PAIRS:
        hp_model, hp_kind = pair[0].split(":")
        be_model, be_kind = pair[1].split(":")
        ideal_hp = solo_throughput(hp_model, hp_kind)
        ideal_be = solo_throughput(be_model, be_kind)
        ideal_total = ideal_hp + ideal_be
        payload[f"{pair[0]}+{pair[1]}"] = {"ideal_hp": ideal_hp,
                                           "ideal_be": ideal_be}
        for backend in backends_for(pair):
            hp_tput, be_tput = run_pair(pair, backend)
            norm = (hp_tput + be_tput) / ideal_total
            rows.append([f"{pair[0]} + {pair[1]}", backend,
                         f"{hp_tput:.1f}", f"{be_tput:.1f}",
                         f"{norm*100:.0f}%"])
            payload[f"{pair[0]}+{pair[1]}"][backend] = {
                "hp": hp_tput, "be": be_tput, "normalized_total": norm,
            }
    return rows, payload


def test_fig2(benchmark):
    rows, payload = benchmark.pedantic(reproduce_fig2, rounds=1, iterations=1)
    print()
    print(format_table(
        ["Pair (HP + BE)", "Technique", "HP tput", "BE tput", "vs Ideal"],
        rows,
    ))
    save_result("fig2", payload)
    for pair_key, data in payload.items():
        ideal_hp = data["ideal_hp"]
        # REEF favours the HP job but leaves BE mostly unserved.
        assert data["reef"]["hp"] > 0.7 * ideal_hp
        # Orion's aggregate beats temporal sharing's.
        assert data["orion"]["normalized_total"] > \
            data["temporal"]["normalized_total"]
