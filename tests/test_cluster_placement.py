"""Tests for interference-aware cluster placement (§7 extension)."""

import pytest

from repro.cluster.placement import (
    JobSignature,
    pair_interference,
    plan_placement,
    placement_summary,
    signature_of,
)
from repro.experiments.runner import get_profile
from repro.gpu.specs import V100_16GB


def sig(name, compute, memory, busy=1.0):
    return JobSignature(name, compute, memory, busy)


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------
def test_signature_from_real_profile():
    profile = get_profile("resnet50", "training", V100_16GB)
    signature = signature_of(profile)
    assert signature.name == "resnet50-train-b32:training"
    assert 0 < signature.compute < 1
    assert 0 < signature.memory < 1
    assert signature.busy_time > 0


def test_signature_rejects_empty_profile():
    from repro.profiler.profiles import ModelProfile

    empty = ModelProfile("x", "inference", "V100-16GB", 1e-3)
    with pytest.raises(ValueError):
        signature_of(empty)


# ----------------------------------------------------------------------
# Pair interference
# ----------------------------------------------------------------------
def test_identical_heavy_jobs_interfere_most():
    a = sig("a", 0.8, 0.1)
    b = sig("b", 0.8, 0.1)
    c = sig("c", 0.1, 0.8)
    assert pair_interference(a, b) > pair_interference(a, c)


def test_interference_bounded():
    heavy = sig("h", 1.0, 1.0)
    assert 0 <= pair_interference(heavy, heavy) <= 1.0


def test_light_jobs_interfere_little():
    light_a = sig("a", 0.05, 0.02)
    light_b = sig("b", 0.05, 0.02)
    assert pair_interference(light_a, light_b) < 0.2


def test_zero_demand_is_free():
    idle = sig("idle", 0.0, 0.0)
    busy = sig("busy", 0.9, 0.3)
    assert pair_interference(idle, busy) == 0.0


def test_interference_symmetric():
    a = sig("a", 0.7, 0.2)
    b = sig("b", 0.3, 0.6)
    assert pair_interference(a, b) == pytest.approx(pair_interference(b, a))


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def test_placement_pairs_complementary_profiles():
    jobs = [
        sig("compute-1", 0.8, 0.1),
        sig("compute-2", 0.7, 0.15),
        sig("memory-1", 0.1, 0.8),
        sig("memory-2", 0.15, 0.7),
    ]
    placements = plan_placement(jobs, num_gpus=2)
    for p in placements:
        kinds = {j.name.split("-")[0] for j in p.jobs}
        assert kinds == {"compute", "memory"}, placement_summary(placements)


def test_placement_uses_empty_gpus_before_packing():
    jobs = [sig("a", 0.8, 0.1), sig("b", 0.8, 0.1)]
    placements = plan_placement(jobs, num_gpus=2)
    assert len(placements) == 2
    assert all(len(p.jobs) == 1 for p in placements)
    assert all(p.interference == 0.0 for p in placements)


def test_placement_packs_when_forced():
    jobs = [sig("a", 0.8, 0.1), sig("b", 0.8, 0.1)]
    placements = plan_placement(jobs, num_gpus=1)
    assert len(placements) == 1
    assert len(placements[0].jobs) == 2
    assert placements[0].interference > 0.5


def test_placement_rejects_overflow():
    jobs = [sig(f"j{i}", 0.5, 0.5) for i in range(5)]
    with pytest.raises(ValueError):
        plan_placement(jobs, num_gpus=2, max_per_gpu=2)


def test_placement_validation():
    with pytest.raises(ValueError):
        plan_placement([], num_gpus=0)


def test_placement_with_real_zoo_profiles():
    """Pack the paper's workloads: trainers pair with opposite profiles."""
    names = [("resnet50", "training"), ("mobilenet_v2", "training"),
             ("bert", "inference"), ("mobilenet_v2", "inference")]
    jobs = [signature_of(get_profile(m, k, V100_16GB), name=f"{m}:{k}")
            for m, k in names]
    placements = plan_placement(jobs, num_gpus=2)
    assert sum(len(p.jobs) for p in placements) == 4
    # Every GPU's predicted interference beats the worst-case pairing.
    worst = max(pair_interference(a, b)
                for i, a in enumerate(jobs) for b in jobs[i + 1:])
    for p in placements:
        assert p.interference <= worst


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------
def test_empty_job_list_places_nothing():
    assert plan_placement([], num_gpus=4) == []
    assert placement_summary([]) == []


def test_single_job_gets_its_own_gpu():
    placements = plan_placement([sig("only", 0.5, 0.5)], num_gpus=4)
    assert len(placements) == 1
    assert placements[0].gpu == 0
    assert [j.name for j in placements[0].jobs] == ["only"]
    assert placements[0].interference == 0.0


def test_more_gpus_than_jobs_spreads_jobs_out():
    jobs = [sig(f"j{i}", 0.6, 0.3) for i in range(3)]
    placements = plan_placement(jobs, num_gpus=8)
    # With spare GPUs available, nothing is packed: one job per GPU.
    assert len(placements) == 3
    for p in placements:
        assert len(p.jobs) == 1
        assert p.interference == 0.0


def test_identical_signatures_pack_without_crashing():
    jobs = [sig(f"twin{i}", 0.7, 0.7) for i in range(4)]
    placements = plan_placement(jobs, num_gpus=2)
    placed = sorted(j.name for p in placements for j in p.jobs)
    assert placed == sorted(j.name for j in jobs)
    assert all(len(p.jobs) == 2 for p in placements)
    # Identical heavy twins: every pair carries the same interference.
    expected = pair_interference(jobs[0], jobs[1])
    for p in placements:
        assert p.interference == pytest.approx(expected)


def test_zero_magnitude_jobs_place_cleanly():
    jobs = [sig(f"idle{i}", 0.0, 0.0, busy=0.0) for i in range(3)]
    placements = plan_placement(jobs, num_gpus=2)
    assert sum(len(p.jobs) for p in placements) == 3
    assert all(p.interference == 0.0 for p in placements)


def test_invalid_gpu_counts_raise():
    with pytest.raises(ValueError):
        plan_placement([sig("a", 0.5, 0.5)], num_gpus=0)
    with pytest.raises(ValueError):
        plan_placement([sig("a", 0.5, 0.5)], num_gpus=1, max_per_gpu=0)


def test_placement_summary_rows():
    jobs = [sig("a", 0.8, 0.1), sig("b", 0.1, 0.8)]
    placements = plan_placement(jobs, num_gpus=1)
    rows = placement_summary(placements)
    assert rows[0][0] == 0
    assert "a" in rows[0][1] and "b" in rows[0][1]


# ----------------------------------------------------------------------
# End-to-end: predicted interference matches measured collocation cost
# ----------------------------------------------------------------------
def test_prediction_matches_measured_collocation():
    """The placement score's ordering agrees with the simulator: the
    pair predicted to interfere more loses more high-priority training
    throughput when actually collocated."""
    from repro.experiments.registry import train_train_config
    from repro.experiments.runner import solo_throughput
    from repro.experiments.scenario import Scenario, run as run_scenario

    hp = "resnet50"
    partners = ("resnet101", "mobilenet_v2")  # compute-ish vs memory-ish
    hp_sig = signature_of(get_profile(hp, "training", V100_16GB))
    predicted = {}
    measured = {}
    for be in partners:
        be_sig = signature_of(get_profile(be, "training", V100_16GB))
        predicted[be] = pair_interference(hp_sig, be_sig)
        config = train_train_config(hp, be, "mps", duration=2.5, warmup=0.4)
        result = run_scenario(Scenario(kind="experiment", params=config)).result
        measured[be] = 1.0 - result.hp_job.throughput / solo_throughput(
            hp, "training")
    ranked_by_prediction = sorted(partners, key=predicted.get)
    ranked_by_measurement = sorted(partners, key=measured.get)
    assert ranked_by_prediction == ranked_by_measurement


# ----------------------------------------------------------------------
# Incremental re-planning (live migration)
# ----------------------------------------------------------------------
def test_replan_proposes_obvious_spread_move():
    from repro.cluster.placement import replan_placement

    # Two identical tenants share gpu0 while gpu1 sits empty: the one
    # best move is to spread them, gaining the full pair interference.
    def interference(a, b):
        return 0.8

    proposals = replan_placement({"a": 0, "b": 0}, 2, interference)
    assert len(proposals) == 1
    move = proposals[0]
    assert move.src == 0 and move.dst == 1
    assert move.gain == pytest.approx(0.8)
    assert move.tenant == "a"  # deterministic tie-break on name


def test_replan_respects_pins_capacity_and_destinations():
    from repro.cluster.placement import replan_placement

    def interference(a, b):
        return 0.5

    # Pinned tenants never move.
    assert replan_placement({"a": 0, "b": 0}, 2, interference,
                            pinned={"a", "b"}) == []
    # A full destination is skipped.
    assert replan_placement({"a": 0, "b": 0, "c": 1, "d": 1}, 2,
                            interference) == []
    # allowed_gpus restricts destinations.
    assert replan_placement({"a": 0, "b": 0}, 3, interference,
                            allowed_gpus={0}) == []
    moves = replan_placement({"a": 0, "b": 0}, 3, interference,
                             allowed_gpus={2})
    assert [m.dst for m in moves] == [2]


def test_replan_min_gain_and_max_moves():
    from repro.cluster.placement import replan_placement

    def interference(a, b):
        return 0.1

    assert replan_placement({"a": 0, "b": 0}, 2, interference,
                            min_gain=0.5) == []
    many = {name: 0 for name in "abcdef"}
    moves = replan_placement(many, 6, interference, max_per_gpu=6,
                             max_moves=2)
    assert len(moves) == 2


def test_replan_validates_inputs():
    from repro.cluster.placement import replan_placement

    with pytest.raises(ValueError):
        replan_placement({"a": 0}, 0, lambda a, b: 0.0)
    with pytest.raises(ValueError):
        replan_placement({"a": 5}, 2, lambda a, b: 0.0)


def test_adversarial_assignment_packs_worst_pairs():
    from repro.cluster.placement import adversarial_assignment

    compute_a = sig("ca", 0.9, 0.1)
    compute_b = sig("cb", 0.85, 0.1)
    memory_a = sig("ma", 0.1, 0.9)
    memory_b = sig("mb", 0.1, 0.85)
    sigs = {s.name: s for s in (compute_a, compute_b, memory_a, memory_b)}
    assignment = adversarial_assignment(sigs, 4)
    # Like pairs together (worst interference), even with GPUs to spare.
    assert assignment["ca"] == assignment["cb"]
    assert assignment["ma"] == assignment["mb"]
    assert assignment["ca"] != assignment["ma"]
    # And it is strictly worse than the planner's complementary packing.
    plan = plan_placement(list(sigs.values()), 2)
    adversarial_worst = max(
        pair_interference(sigs[a], sigs[b])
        for a in sigs for b in sigs
        if a < b and assignment[a] == assignment[b])
    planned_worst = max(p.interference for p in plan)
    assert adversarial_worst > planned_worst


def test_adversarial_assignment_validates():
    from repro.cluster.placement import adversarial_assignment

    sigs = {"a": sig("a", 0.5, 0.5)}
    with pytest.raises(ValueError):
        adversarial_assignment(sigs, 0)
    three = {n: sig(n, 0.5, 0.5) for n in "abc"}
    with pytest.raises(ValueError):
        adversarial_assignment(three, 1, max_per_gpu=2)
