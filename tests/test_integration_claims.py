"""End-to-end integration tests pinning the paper's qualitative claims.

Each test runs a short (1-3 s simulated) collocation and asserts the
*ordering* the paper's evaluation establishes — not absolute numbers.
These are the repo's regression net for the headline results.
"""

import dataclasses

import pytest

from repro.experiments.registry import (
    inf_inf_config,
    inf_train_config,
    train_train_config,
)
from repro.experiments.runner import solo_throughput
from repro.experiments.scenario import Scenario, run as run_scenario
from repro.metrics.cost import cost_savings

HP, BE = "resnet50", "resnet101"


def run(cfg):
    cfg = dataclasses.replace(cfg, warmup=0.3)
    return run_scenario(Scenario(kind="experiment", params=cfg)).result


@pytest.fixture(scope="module")
def inf_train_results():
    return {
        backend: run(inf_train_config(HP, BE, backend, duration=2.0))
        for backend in ("ideal", "mps", "reef", "orion", "temporal")
    }


def test_orion_inf_train_tail_near_ideal(inf_train_results):
    """C1 (§A.4): Orion keeps HP inference p99 close to ideal."""
    ideal = inf_train_results["ideal"].hp_job.latency.p99
    orion = inf_train_results["orion"].hp_job.latency.p99
    assert orion <= ideal * 1.25


def test_reef_and_mps_inflate_inf_train_tail(inf_train_results):
    ideal = inf_train_results["ideal"].hp_job.latency.p99
    assert inf_train_results["reef"].hp_job.latency.p99 > ideal * 1.2
    assert inf_train_results["mps"].hp_job.latency.p99 > ideal * 1.2


def test_orion_beats_reef_tail(inf_train_results):
    assert (inf_train_results["orion"].hp_job.latency.p99
            < inf_train_results["reef"].hp_job.latency.p99)


def test_temporal_suffers_head_of_line_blocking(inf_train_results):
    """Incoming inference waits for whole BE training iterations."""
    ideal = inf_train_results["ideal"].hp_job.latency.p99
    temporal = inf_train_results["temporal"].hp_job.latency.p99
    assert temporal > 3 * ideal


def test_orion_preserves_be_training_progress(inf_train_results):
    dedicated = solo_throughput(BE, "training")
    be = inf_train_results["orion"].be_jobs()[0].throughput
    assert be > 0.5 * dedicated


def test_orion_inf_train_cost_savings(inf_train_results):
    dedicated = solo_throughput(BE, "training")
    collocated = inf_train_results["orion"].be_jobs()[0].throughput
    assert cost_savings(dedicated, collocated) > 1.2


@pytest.fixture(scope="module")
def train_train_results():
    results = {}
    for backend in ("mps", "ticktock", "reef"):
        results[backend] = run(
            train_train_config(HP, "mobilenet_v2", backend, duration=3.0)
        )
    results["orion"] = run(
        train_train_config(HP, "mobilenet_v2", "orion", duration=3.0,
                           orion={"sm_threshold": 160})
    )
    return results


def test_reef_protects_hp_but_starves_be_training(train_train_results):
    """Paper §6.2.2: REEF keeps HP within ~8% of ideal but BE barely runs."""
    dedicated_hp = solo_throughput(HP, "training")
    reef = train_train_results["reef"]
    assert reef.hp_job.throughput > 0.85 * dedicated_hp
    assert reef.be_jobs()[0].throughput < 0.15 * solo_throughput(
        "mobilenet_v2", "training")


def test_orion_balances_train_train(train_train_results):
    """Orion keeps HP throughput high while BE makes real progress."""
    dedicated_hp = solo_throughput(HP, "training")
    orion = train_train_results["orion"]
    assert orion.hp_job.throughput > 0.75 * dedicated_hp
    assert orion.be_jobs()[0].throughput > 0.25 * solo_throughput(
        "mobilenet_v2", "training")


def test_orion_hp_training_beats_mps(train_train_results):
    assert (train_train_results["orion"].hp_job.throughput
            >= train_train_results["mps"].hp_job.throughput)


def test_ticktock_locksteps_to_slowest(train_train_results):
    """Phase barriers force both jobs to the same iteration rate."""
    ticktock = train_train_results["ticktock"]
    hp = ticktock.hp_job.throughput
    be = ticktock.be_jobs()[0].throughput
    assert hp == pytest.approx(be, rel=0.25)


@pytest.fixture(scope="module")
def inf_inf_results():
    return {
        backend: run(inf_inf_config("resnet101", "resnet50", backend,
                                    arrivals="poisson", duration=3.0))
        for backend in ("ideal", "mps", "reef", "orion")
    }


def test_orion_inf_inf_tail_near_ideal(inf_inf_results):
    ideal = inf_inf_results["ideal"].hp_job.latency.p99
    orion = inf_inf_results["orion"].hp_job.latency.p99
    assert orion <= ideal * 1.25


def test_inf_inf_backend_ordering(inf_inf_results):
    """Paper Figure 12 ordering: Orion < REEF <= MPS tails."""
    orion = inf_inf_results["orion"].hp_job.latency.p99
    reef = inf_inf_results["reef"].hp_job.latency.p99
    mps = inf_inf_results["mps"].hp_job.latency.p99
    assert orion < reef
    assert orion < mps


def test_inf_inf_aggregate_throughput_exceeds_single_gpu(inf_inf_results):
    """Collocation serves both request streams on one GPU."""
    orion = inf_inf_results["orion"]
    hp_only = orion.hp_job.throughput
    assert orion.aggregate_throughput > 1.3 * hp_only
