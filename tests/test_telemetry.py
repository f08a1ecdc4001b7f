"""Tests for repro.telemetry: tracer, metrics registry, Chrome-trace
export, latency attribution, and the determinism contract."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.scenario import Scenario, run as run_scenario
from repro.metrics.utilization import average_utilization, binned_trace
from repro.runtime.backend import SoftwareQueue
from repro.sim.engine import Simulator
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_TRACER,
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
    attribute_requests,
    attribution_report,
    build_chrome_trace,
    export_chrome_trace,
    format_attribution_table,
)


def _overload(telemetry=None, **params):
    """The overload scenario's ``ScenarioResult``."""
    return run_scenario(Scenario(kind="overload", params=params,
                                 telemetry=telemetry))


def _traced_overload(seed=0, duration=0.08, **kwargs):
    return _overload(TelemetryConfig(tracing=True), seed=seed,
                     duration=duration, **kwargs)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_ring_buffer_drops_oldest_and_counts(self):
        sim = Simulator()
        tracer = Tracer(sim, capacity=4)
        for i in range(10):
            tracer.sim_event(f"e{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        labels = [e[2] for e in tracer.iter_events()]
        assert labels == ["e6", "e7", "e8", "e9"]

    def test_iter_events_filters_by_kind(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.op_submit("c", 1, "k", True)
        tracer.instant("scheduler", "be_admit", client="c")
        assert len(list(tracer.iter_events("submit"))) == 1
        assert len(list(tracer.iter_events("instant"))) == 1

    def test_timestamps_are_sim_time(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.call_at(1.5, lambda: tracer.sim_event("later"))
        sim.run()
        (event,) = tracer.iter_events()
        assert event[1] == 1.5

    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.op_submit("c", 1, "k", True)
        NULL_TRACER.instant("t", "n", a=1)
        NULL_TRACER.request("c", 0.0, 0.0)
        assert len(NULL_TRACER) == 0
        assert list(NULL_TRACER.iter_events()) == []

    def test_config_builds_null_by_default(self):
        sim = Simulator()
        assert TelemetryConfig().build_tracer(sim) is NULL_TRACER
        built = TelemetryConfig(tracing=True, capacity=8).build_tracer(sim)
        assert built.enabled and built.capacity == 8

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(Simulator(), capacity=0)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", client="c0")
        b = reg.counter("ops_total", client="c0")
        assert a is b
        assert reg.counter("ops_total", client="c1") is not a

    def test_counter_gauge_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.value += 2
        assert c.value == 3
        g = reg.gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value == 2 and g.max_seen == 5

    def test_histogram_buckets_are_schema_not_data(self):
        h = MetricsRegistry().histogram("latency")
        assert h.bounds == DEFAULT_LATENCY_BUCKETS
        h.observe(1e-6)   # first bucket boundary, inclusive
        h.observe(3e-3)   # interior
        h.observe(100.0)  # overflow
        assert h.count == 3
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.quantile(0.0) == pytest.approx(1e-6)
        assert h.quantile(1.0) == float("inf")
        assert MetricsRegistry().histogram("x").quantile(0.5) is None

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("x", bounds=(1.0, 1.0))

    def test_snapshot_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("b", client="z").inc()
        reg.counter("a", client="y").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a{client=y}": 2, "b{client=z}": 1}
        assert snap["gauges"]["g"] == {"value": 1.5, "max": 1.5}
        assert snap["histograms"]["h"]["counts"] == [0, 1, 0]
        # Byte-identical re-serialization.
        assert reg.to_json() == reg.to_json()
        assert json.loads(reg.to_json()) == snap


# ----------------------------------------------------------------------
# Queue-telemetry migration (back-compat shim)
# ----------------------------------------------------------------------
class TestQueueTelemetryShim:
    def test_software_queue_attrs_still_read_write(self):
        sim = Simulator()
        queue = SoftwareQueue(sim, "c0", max_depth=4)

        class FakeOp:
            seq = 0

        queue.push(FakeOp())
        queue.rejected_total += 1  # legacy += call sites must keep working
        assert queue.enqueued_total == 1
        assert queue.rejected_total == 1
        assert queue.max_depth_seen == 1
        queue.pop()
        snap = queue.snapshot()
        assert snap == {"depth": 0, "enqueued_total": 1, "max_depth_seen": 1,
                        "rejected_total": 1, "max_depth": 4}

    def test_queue_instruments_live_on_shared_registry(self):
        sim = Simulator()
        reg = MetricsRegistry()
        queue = SoftwareQueue(sim, "c0", registry=reg)

        class FakeOp:
            seq = 0

        queue.push(FakeOp())
        snap = reg.snapshot()
        assert snap["counters"]["queue_enqueued_total{client=c0}"] == 1
        assert snap["gauges"]["queue_depth{client=c0}"]["max"] == 1

    def test_backend_queue_telemetry_keys_unchanged(self):
        result = _overload(seed=0, duration=0.05).result
        for snap in result.queue_telemetry.values():
            assert set(snap) == {"depth", "enqueued_total", "max_depth_seen",
                                 "rejected_total", "max_depth"}
        assert result.metrics is not None
        counters = result.metrics.snapshot()["counters"]
        assert any(k.startswith("queue_enqueued_total") for k in counters)

    def test_temporal_and_ticktock_wait_stats_schema(self):
        from repro.experiments.registry import train_train_config

        for backend in ("temporal", "ticktock"):
            config = train_train_config("mobilenet_v2", "mobilenet_v2",
                                        backend, duration=0.05, warmup=0.0)
            result = run_scenario(
                Scenario(kind="experiment", params=config)).result
            telemetry = result.metrics.snapshot()["counters"]
            wait_key = ("slice_wait_total" if backend == "temporal"
                        else "barrier_wait_total")
            assert any(k.startswith(wait_key) for k in telemetry)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        return _traced_overload()

    def test_schema(self, traced):
        payload = json.loads(export_chrome_trace(
            traced.tracer,
            utilization_segments=traced.result.utilization_segments))
        assert payload["displayTimeUnit"] == "ms"
        assert payload["metadata"]["tool"] == "repro.telemetry"
        assert isinstance(payload["metadata"]["dropped_events"], int)
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] in ("M", "X", "i", "C")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_one_track_per_client(self, traced):
        payload = build_chrome_trace(traced.tracer)
        thread_names = {e["args"]["name"] for e in payload["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"
                        and e["pid"] == 1}
        for client in ("hp", "be-0", "be-1"):
            assert client in thread_names
            assert f"{client} queue" in thread_names
            assert f"{client} requests" in thread_names
        # Distinct clients get distinct execution tracks.
        exec_tids = {e["tid"]: e["args"]["name"]
                     for e in payload["traceEvents"]
                     if e["ph"] == "M" and e["name"] == "thread_name"
                     and e["pid"] == 1}
        assert len(exec_tids) == len(set(exec_tids))

    def test_lifecycle_spans_present(self, traced):
        payload = build_chrome_trace(traced.tracer)
        cats = {e.get("cat") for e in payload["traceEvents"]
                if e["ph"] == "X"}
        assert "kernel" in cats
        assert "queue" in cats
        assert "request" in cats

    def test_scheduler_instants_present(self, traced):
        payload = build_chrome_trace(traced.tracer)
        instant_cats = {e["cat"] for e in payload["traceEvents"]
                        if e["ph"] == "i"}
        assert "scheduler" in instant_cats

    def test_null_tracer_exports_empty_trace(self):
        payload = build_chrome_trace(NULL_TRACER)
        assert [e for e in payload["traceEvents"] if e["ph"] != "M"] == []


# ----------------------------------------------------------------------
# Latency attribution
# ----------------------------------------------------------------------
class TestAttribution:
    @pytest.fixture(scope="class")
    def traced(self):
        return _traced_overload()

    def test_components_sum_to_latency(self, traced):
        attrs = attribute_requests(traced.tracer)
        assert attrs, "scenario must complete requests"
        for a in attrs:
            total = a.queue + a.dispatch + a.execution + a.interference
            assert total == pytest.approx(a.latency, abs=1e-9)
            assert a.queue >= -1e-12
            assert a.dispatch >= 0
            assert a.execution >= 0

    def test_serialized_components_sum_exactly(self, traced):
        report = attribution_report(traced.tracer)
        for req in report["requests"]:
            total = (req["queue"] + req["dispatch"] + req["execution"]
                     + req["interference"])
            assert total == pytest.approx(req["latency"], abs=1e-9)

    def test_per_client_filter_and_aggregates(self, traced):
        hp_only = attribute_requests(traced.tracer, client="hp")
        assert hp_only and all(a.client == "hp" for a in hp_only)
        report = attribution_report(traced.tracer)
        assert report["clients"]["hp"]["requests"] == len(hp_only)

    def test_table_renders_all_clients(self, traced):
        table = format_attribution_table(traced.tracer)
        for client in ("hp", "be-0", "be-1"):
            assert client in table

    def test_empty_tracer_attributes_nothing(self):
        assert attribute_requests(NULL_TRACER) == []
        assert attribution_report(NULL_TRACER)["requests"] == []


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_byte_identical_different_seed_differs(self):
        first = _traced_overload(seed=0)
        second = _traced_overload(seed=0)
        other = _traced_overload(seed=1)
        t1 = export_chrome_trace(first.tracer, first.result.utilization_segments)
        t2 = export_chrome_trace(second.tracer, second.result.utilization_segments)
        t3 = export_chrome_trace(other.tracer, other.result.utilization_segments)
        assert t1 == t2
        assert t1 != t3
        m1 = first.result.metrics.to_json()
        m2 = second.result.metrics.to_json()
        m3 = other.result.metrics.to_json()
        assert m1 == m2
        assert m1 != m3
        a1 = json.dumps(attribution_report(first.tracer), sort_keys=True)
        a2 = json.dumps(attribution_report(second.tracer), sort_keys=True)
        assert a1 == a2

    def test_tracing_does_not_perturb_results(self):
        plain = _overload(seed=0, duration=0.08)
        traced = _traced_overload(seed=0)
        assert plain.to_json() == traced.to_json()
        assert not plain.tracer.enabled and traced.tracer.enabled
        assert plain.result.queue_telemetry == traced.result.queue_telemetry
        # Devices record utilization only for a trace's counters.
        assert not plain.result.utilization_segments
        assert traced.result.utilization_segments


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_trace_overload_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        code = cli_main(["trace", "overload", "--out", str(out),
                         "--metrics-out", str(metrics_out),
                         "--duration", "0.05"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert {"pid", "tid", "ph", "ts"} <= set(payload["traceEvents"][-1])
        snap = json.loads(metrics_out.read_text())
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert "latency attribution" in capsys.readouterr().out

    def test_trace_experiment_scenario(self, tmp_path):
        out = tmp_path / "trace.json"
        code = cli_main(["trace", "inf-train", "--out", str(out),
                         "--duration", "0.05", "--set", "hp=mobilenet_v2",
                         "--set", "be=mobilenet_v2", "--set", "warmup=0.01"])
        assert code == 0
        payload = json.loads(out.read_text())
        util_counters = [e for e in payload["traceEvents"]
                        if e["ph"] == "C" and e["name"] == "util.compute"]
        assert util_counters


# ----------------------------------------------------------------------
# Utilization metric edge cases (satellite)
# ----------------------------------------------------------------------
class TestUtilizationEdges:
    def test_empty_segments_average_is_zero(self):
        avg = average_utilization([], 0.0, 1.0)
        assert avg.compute == 0.0 and avg.memory_bw == 0.0 \
            and avg.sm_busy == 0.0
        assert avg.window == 1.0

    def test_empty_segments_binned_trace_is_zero(self):
        times, compute, memory, sm = binned_trace([], 0.0, 0.01,
                                                  bin_width=1e-3)
        assert len(times) == 10
        assert not compute.any() and not memory.any() and not sm.any()

    def test_segment_straddling_window_edges_is_clipped(self):
        segments = [(-0.5, 0.5, 1.0, 0.8, 0.6)]
        avg = average_utilization(segments, 0.0, 1.0)
        assert avg.compute == pytest.approx(0.5)
        assert avg.memory_bw == pytest.approx(0.4)
        assert avg.sm_busy == pytest.approx(0.3)
        # And past the right edge.
        avg = average_utilization([(0.5, 2.0, 1.0, 1.0, 1.0)], 0.0, 1.0)
        assert avg.compute == pytest.approx(0.5)

    def test_segment_outside_window_ignored(self):
        avg = average_utilization([(2.0, 3.0, 1.0, 1.0, 1.0)], 0.0, 1.0)
        assert avg.compute == 0.0
        times, compute, _, _ = binned_trace([(2.0, 3.0, 1.0, 1.0, 1.0)],
                                            0.0, 1.0, bin_width=0.5)
        assert not compute.any()

    def test_zero_utilization_gaps_count_in_denominator(self):
        # Busy 0-0.25 and 0.75-1.0; idle gap in between counts as zero.
        segments = [(0.0, 0.25, 1.0, 1.0, 1.0), (0.75, 1.0, 1.0, 1.0, 1.0)]
        avg = average_utilization(segments, 0.0, 1.0)
        assert avg.compute == pytest.approx(0.5)
        times, compute, _, _ = binned_trace(segments, 0.0, 1.0,
                                            bin_width=0.25)
        assert compute == pytest.approx([1.0, 0.0, 0.0, 1.0])

    def test_binned_trace_segment_straddling_bin_boundary(self):
        segments = [(0.1, 0.3, 1.0, 1.0, 1.0)]
        times, compute, _, _ = binned_trace(segments, 0.0, 0.4,
                                            bin_width=0.2)
        assert compute == pytest.approx([0.5, 0.5])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            average_utilization([], 1.0, 1.0)
        with pytest.raises(ValueError):
            binned_trace([], 0.0, 1.0, bin_width=0.0)
