"""Tests for the continuous-batching LLM serving scenario.

Covers the engine invariants (FIFO admission order, exact KV-cache
byte conservation across evictions), the soft-OOM machinery under a
tight KV budget, the Orion prefill-protection phase hints, and the
Scenario-API contract (same-seed byte-identical canonical JSON).
"""

import json

import pytest

from repro.experiments.scenario import Scenario, run
from repro.workloads.llmserve import KvCacheAccounting


def _llm(**params):
    return run(Scenario(kind="llm", params=params)).result


# Small-but-real defaults: enough traffic to exercise batching without
# making the suite slow.
FAST = dict(seed=0, duration=0.15, request_rate=80.0, max_batch=4,
            be_clients=0)

# A KV budget tight enough that growth and admission fault: blocks are
# 16 tokens x kv_cache_bytes(1, 1) = 3 MiB for llm-small, so 20 MiB is
# ~6 blocks against ~32-token prompts growing ~24 output tokens.
TIGHT = dict(seed=3, duration=0.25, request_rate=120.0, max_batch=4,
             be_clients=0, kv_budget_mb=20.0, prompt_mean=32.0,
             output_mean=24.0)


@pytest.fixture(scope="module")
def base_result():
    return _llm(**FAST)


@pytest.fixture(scope="module")
def tight_result():
    return _llm(**TIGHT)


# ----------------------------------------------------------------------
# KV accounting unit invariants
# ----------------------------------------------------------------------
class TestKvCacheAccounting:
    def test_conservation_through_grant_release(self):
        kv = KvCacheAccounting(block_bytes=1024)
        kv.grant(0, 3)
        kv.grant(1, 2)
        assert kv.in_use_bytes == 5 * 1024
        assert kv.conserved
        assert kv.release(0) == 3
        assert kv.release(0) == 0  # idempotent
        assert kv.in_use_bytes == 2 * 1024
        assert kv.conserved
        kv.release(1)
        assert kv.in_use_bytes == 0
        assert kv.granted_bytes == kv.released_bytes == 5 * 1024

    def test_peak_tracks_high_water_mark(self):
        kv = KvCacheAccounting(block_bytes=10)
        kv.grant(0, 4)
        kv.release(0)
        kv.grant(1, 2)
        assert kv.peak_bytes == 40

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            KvCacheAccounting(block_bytes=0)


# ----------------------------------------------------------------------
# The serving loop end to end
# ----------------------------------------------------------------------
class TestServingLoop:
    def test_requests_complete_with_metrics(self, base_result):
        r = base_result
        assert r.requests_arrived > 0
        assert r.requests_completed > 0
        assert r.ttft.count > 0
        assert r.ttft.p50 > 0
        assert r.decode_tokens_per_sec > 0
        assert r.total_tokens > 0
        # Every completed record carries a full lifecycle.
        for rec in r.records:
            if rec.completed:
                assert rec.arrival <= rec.admitted <= rec.first_token \
                    <= rec.end

    def test_first_admissions_in_fifo_order(self, base_result):
        """No out-of-admission-order service: the first admission of
        each request happens in arrival (req_id) order."""
        seen = set()
        firsts = []
        for req_id in base_result.admission_log:
            if req_id not in seen:
                seen.add(req_id)
                firsts.append(req_id)
        assert firsts == sorted(firsts)

    def test_kv_bytes_conserved_without_pressure(self, base_result):
        kv = base_result.kv
        assert kv["conserved"]
        assert kv["oom_events"] == 0
        assert kv["evictions"] == 0
        # Everything granted was eventually released (all requests
        # either completed or the horizon truncated them mid-flight).
        assert kv["granted_bytes"] == \
            kv["released_bytes"] + kv["in_use_bytes"]

    def test_ttft_measured_from_arrival(self, base_result):
        for rec in base_result.records:
            if rec.first_token is not None:
                assert rec.ttft == rec.first_token - rec.arrival
                assert rec.ttft > 0


class TestKvPressure:
    """The tight-budget scenario drives the soft-OOM/retry machinery."""

    def test_cache_pressure_triggers_soft_oom(self, tight_result):
        kv = tight_result.kv
        assert kv["oom_events"] > 0
        assert kv["evictions"] > 0

    def test_bytes_exactly_conserved_across_evictions(self, tight_result):
        kv = tight_result.kv
        assert kv["conserved"]
        assert kv["granted_bytes"] == \
            kv["released_bytes"] + kv["in_use_bytes"]

    def test_evicted_requests_requeue_in_order(self, tight_result):
        # Re-admissions may interleave, but first admissions stay FIFO.
        seen = set()
        firsts = []
        for req_id in tight_result.admission_log:
            if req_id not in seen:
                seen.add(req_id)
                firsts.append(req_id)
        assert firsts == sorted(firsts)
        assert any(rec.evictions > 0 for rec in tight_result.records)

    def test_service_still_makes_progress(self, tight_result):
        assert tight_result.requests_completed > 0

    def test_block_policy_blocks_admission_instead(self):
        r = _llm(**{**TIGHT, "cache_policy": "block"})
        kv = r.kv
        # Full reservation at admission: decode growth never faults,
        # pressure shows up at the admission boundary.
        assert kv["evictions"] == 0
        assert kv["admission_blocks"] > 0
        assert kv["conserved"]


# ----------------------------------------------------------------------
# Orion phase hints
# ----------------------------------------------------------------------
class TestPrefillProtection:
    def test_prefill_deferrals_counted(self):
        r = _llm(seed=0, duration=0.1, request_rate=60.0, be_clients=1)
        assert r.backend_stats["protect_prefill"] is True
        assert r.backend_stats["prefill_deferrals"] > 0
        assert r.backend_stats["be_kernels_launched"] > 0

    def test_protection_can_be_disabled(self):
        r = _llm(seed=0, duration=0.1, request_rate=60.0, be_clients=1,
                 protect_prefill=False)
        assert r.backend_stats["protect_prefill"] is False
        assert r.backend_stats["prefill_deferrals"] == 0


# ----------------------------------------------------------------------
# Scenario-API contract
# ----------------------------------------------------------------------
class TestScenarioContract:
    def test_same_seed_byte_identical_json(self):
        params = dict(seed=7, duration=0.1, request_rate=60.0,
                      be_clients=1)
        first = run(Scenario(kind="llm", params=params)).to_json()
        second = run(Scenario(kind="llm", params=params)).to_json()
        assert first == second

    def test_different_seed_differs(self):
        a = run(Scenario(kind="llm",
                         params=dict(seed=0, duration=0.1))).to_json()
        b = run(Scenario(kind="llm",
                         params=dict(seed=1, duration=0.1))).to_json()
        assert a != b

    def test_canonical_shape(self):
        res = run(Scenario(kind="llm", params=dict(seed=0, duration=0.08)))
        decoded = json.loads(res.to_json())
        assert decoded["kind"] == "llm"
        body = decoded["result"]
        assert {"model", "backend", "requests", "ttft", "tpot",
                "ttft_slo", "decode_tokens_per_sec", "records",
                "admission_log", "kv", "backend_stats",
                "ledger"} <= set(body)

    def test_catalog_has_llm_entries(self):
        from repro.experiments.registry import (
            make_scenario,
            scenario_catalog,
            scenario_names,
        )

        names = scenario_names()
        assert "llm" in names
        assert "llm_ref" in names
        scenario = make_scenario("llm", seed=5)
        assert scenario.kind == "llm"
        assert scenario.seed == 5
        catalog = scenario_catalog()
        assert catalog["llm_ref"]["kind"] == "llm"


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_non_llm_workload_rejected(self):
        with pytest.raises(ValueError, match="not an LLM workload"):
            run(Scenario(kind="llm", params=dict(model="resnet50",
                                                 duration=0.01)))

    def test_bad_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="backend"):
            Scenario(kind="llm", params={"backend": "mps"})

    def test_bad_cache_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="cache_policy"):
            Scenario(kind="llm", params={"cache_policy": "drop"})

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="kv_budget"):
            Scenario(kind="llm", params={"kv_budget": 64})

    def test_temporal_backend_runs(self):
        r = _llm(seed=0, duration=0.1, backend="temporal",
                 request_rate=40.0, be_clients=1)
        assert r.backend == "temporal"
        assert r.requests_arrived > 0
