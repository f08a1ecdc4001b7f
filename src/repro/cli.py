"""Command-line interface: run collocation experiments without writing code.

    python -m repro --help
    python -m repro inf-train  --hp resnet50 --be mobilenet_v2 --backend orion
    python -m repro train-train --hp resnet50 --be mobilenet_v2 --backend reef
    python -m repro inf-inf    --hp resnet101 --be resnet50 --arrivals apollo
    python -m repro fleet      --num-gpus 16 --crashes 2 --degrades 1
    python -m repro llm        --backend orion --request-rate 80
    python -m repro trace      llm_ref --duration 0.1 --out llm.trace.json
    python -m repro sweep      --scenarios overload_ref --seeds 0,1,2,3
    python -m repro profile    --model bert --kind inference
    python -m repro scenarios  --json
    python -m repro serve      --socket /tmp/repro-serve.sock --workers 2
    python -m repro submit     fleet_ref --wait
    python -m repro status     job-0001
    python -m repro cancel     job-0001

Every run subcommand builds a :class:`repro.experiments.scenario.Scenario`
through ``make_scenario`` and executes it through the one
``run(scenario)`` entry point; each kind's flags are generated from its
params dataclass (:mod:`repro.experiments.params`), so a flagless run
is the catalog entry of the same name.  ``trace``, like ``submit``,
takes any catalog name with ``--seed``/``--duration``/``--set``.
Prints the per-job latency/throughput summary as a table; ``--json``
emits machine-readable results instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from repro.experiments.registry import make_scenario
from repro.experiments.params import PARAM_TYPES, LlmParams
from repro.experiments.runner import get_profile
from repro.experiments.scenario import Scenario, run as run_scenario
from repro.experiments.tables import format_table
from repro.gpu.specs import DEVICES, get_device
from repro.serve.server import ServeConfig
from repro.workloads.models import MODEL_NAMES

__all__ = ["main", "build_parser"]


#: Choices the params module leaves open so it needs no model zoo or
#: device table; llm's ``model`` names an LLM workload, not a zoo model.
_CATALOG_CHOICES = {"model": MODEL_NAMES, "be_model": MODEL_NAMES,
                    "device": sorted(DEVICES)}


def _zero_is_none(scalar):
    """argparse type for an Optional knob checked ``positive``: ``0``
    means None (the check makes 0 otherwise unused)."""
    def parse(text):
        return scalar(text) or None

    parse.__name__ = scalar.__name__  # argparse's "invalid int value"
    return parse


def _add_knob_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One ``--kebab-name`` flag per field of the dataclass ``cls``
    (a ``PARAM_TYPES`` kind or ``ServeConfig``) declared with help text.

    Type, default, choices and help come from the dataclass field.
    Knobs without help text (object knobs such as ``plan``, ``tenants``,
    ``jobs``, ``orion``, and the daemon's ``address``) get no flag;
    fleet's ``placement`` (a name or, in code, a mapping) gets its
    named choices.
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.metadata["help"] is None:
            continue
        scalar, optional = hints[f.name], False
        if typing.get_origin(scalar) is typing.Union:
            (scalar,) = [t for t in typing.get_args(scalar)
                         if t is not type(None)]
            optional = True
        zero_is_none = optional and f.metadata["check"] == "positive"
        choices = f.metadata["choices"]
        if choices is None and (cls, f.name) != (LlmParams, "model"):
            choices = _CATALOG_CHOICES.get(f.name)
        if scalar not in (int, float, str, bool):
            scalar = str
        if scalar is bool:
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kwargs = {"type": _zero_is_none(scalar) if zero_is_none
                      else scalar, "choices": choices}
        action = parser.add_argument("--" + f.name.replace("_", "-"),
                                     default=f.default,
                                     help=f.metadata["help"], **kwargs)
        if "%(default)" not in action.help:  # 3.10 adds it for bools
            note = "0 for None; " if zero_is_none else ""
            action.help += f" ({note}default: %(default)s)"


def _knob_scenario(args, kind: str, name: str = "",
                   **objects) -> Scenario:
    """Catalog entry ``name`` (default ``kind``) from the kind's
    generated flags plus any other overrides, built through
    ``make_scenario`` like ``submit`` and the sweep; only knobs that
    differ from the dataclass default become overrides, so no flags at
    all gives ``make_scenario(name)``."""
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(PARAM_TYPES[kind])
                 if getattr(args, f.name, f.default) != f.default}
    overrides.update(objects)
    try:
        return make_scenario(name or kind, seed=overrides.pop("seed", 0),
                             duration=overrides.pop("duration", None),
                             **overrides)
    except ValueError as exc:  # a knob value the dataclass rejects
        raise argparse.ArgumentError(None, str(exc)) from exc


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """The catalog-scenario surface ``submit`` and ``trace`` share."""
    parser.add_argument("scenario",
                        help="registry scenario name (see 'repro scenarios')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: the catalog "
                             "horizon)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VAL",
                        help="scenario override (repeatable); values parse "
                             "as JSON, falling back to strings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orion (EuroSys '24) reproduction — collocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = (
        ("inf-train", "HP inference + BE training (§6.2.1)",
         ("poisson", "apollo")),
        ("train-train", "HP training + BE training (§6.2.2)", None),
        ("inf-inf", "HP inference + BE inference (§6.2.3)",
         ("apollo", "poisson")),
    )
    for command, text, arrivals in experiments:
        p = sub.add_parser(command, help=text)
        # The catalog builder args; every other flag is a knob.
        p.add_argument("--hp", choices=MODEL_NAMES,
                       help="high-priority model (default: the catalog's)")
        p.add_argument("--be", choices=MODEL_NAMES,
                       help="best-effort model (default: the catalog's)")
        if arrivals:
            p.add_argument("--arrivals", choices=arrivals,
                           help=f"HP arrival process (default: {arrivals[0]})")
        else:  # closed-loop HP training raises SM_THRESHOLD (§5.1.1)
            p.add_argument("--sm-threshold", type=int, default=None,
                           help="override SM_THRESHOLD (orion only)")
        _add_knob_flags(p, PARAM_TYPES["experiment"])
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of a table")

    p = sub.add_parser("faults",
                       help="fault-injection demo: kill clients mid-run, "
                            "print the error/availability ledger")
    _add_knob_flags(p, PARAM_TYPES["faults"])
    p.add_argument("--kill", default=None,
                   help="client to kill (hp, be-0, be-1, ...); 'none' "
                        "disables the kill (default: the scenario's plan, "
                        "which kills be-0 at 40%% of the horizon)")
    p.add_argument("--kill-at", type=float, default=None,
                   help="kill time of --kill in simulated seconds "
                        "(default: 40%% of the horizon)")
    p.add_argument("--json", action="store_true",
                   help="emit the canonical ledger JSON instead of a table")

    p = sub.add_parser("fleet",
                       help="multi-GPU resilience demo: crash/degrade GPUs "
                            "mid-run, print the availability report")
    _add_knob_flags(p, PARAM_TYPES["fleet"])
    p.add_argument("--json", action="store_true",
                   help="emit the availability report JSON")
    p.add_argument("--report-out", default=None,
                   help="also write the availability report JSON here")
    p.add_argument("--migration-report-out", default=None,
                   help="write the migration controller's report JSON here")

    p = sub.add_parser("overload",
                       help="overload-protection demo: drive the service "
                            "past capacity, print latency/shed/guard stats")
    _add_knob_flags(p, PARAM_TYPES["overload"])
    p.add_argument("--json", action="store_true",
                   help="emit JSON (including the canonical ledger)")

    p = sub.add_parser("llm",
                       help="continuous-batching LLM serving demo: "
                            "TTFT/TPOT/tokens-per-sec under collocation")
    _add_knob_flags(p, PARAM_TYPES["llm"])
    p.add_argument("--json", action="store_true",
                   help="emit the canonical scenario JSON")

    p = sub.add_parser("trace",
                       help="run any catalog scenario with the tracer on; "
                            "write the Chrome trace-event JSON (view in "
                            "Perfetto)")
    _add_scenario_args(p)
    p.add_argument("--out", required=True,
                   help="Chrome trace-event JSON output path")
    p.add_argument("--metrics-out", default=None,
                   help="also write the canonical metrics snapshot JSON here")
    p.add_argument("--attribution-out", default=None,
                   help="also write the per-request queue-delay attribution "
                        "report JSON here")
    p.add_argument("--capacity", type=int, default=1 << 16,
                   help="tracer ring-buffer capacity in events")
    p.add_argument("--engine-events", action="store_true",
                   help="also record every simulator calendar event "
                        "(very high volume)")

    p = sub.add_parser("sweep",
                       help="run a scenario x seed grid across worker "
                            "processes; emit the merged canonical JSON")
    p.add_argument("--scenarios",
                   default="overload_ref,inf_train_ref,train_train_ref",
                   help="comma-separated scenario names from the catalog "
                        "(see repro.experiments.registry.scenario_names)")
    p.add_argument("--seeds", default="0,1,2,3",
                   help="comma-separated seeds (default 0,1,2,3)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1; results are "
                        "byte-identical at any worker count)")
    p.add_argument("--out", default=None,
                   help="write the merged canonical JSON here "
                        "(default: stdout)")

    p = sub.add_parser("profile", help="offline-profile one workload (§5.2)")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--kind", default="inference",
                   choices=("inference", "training"))
    p.add_argument("--device", default="V100-16GB", choices=sorted(DEVICES))
    p.add_argument("--out", default=None, help="write the profile JSON here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scenarios",
                       help="list the named-scenario catalog (the valid "
                            "submit/sweep/trace targets)")
    p.add_argument("--json", action="store_true",
                   help="emit the catalog as JSON")

    p = sub.add_parser("serve",
                       help="run the always-on scheduler daemon "
                            "(submit/status/cancel jobs over a socket)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="Unix socket path (default: "
                        "/tmp/repro-serve.sock unless --port is given)")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (with --port)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (0 = ephemeral); overrides --socket")
    _add_knob_flags(p, ServeConfig)

    def add_address(p):
        p.add_argument("--address", default=None,
                       help="daemon address (unix:/path or tcp:host:port; "
                            "default unix:/tmp/repro-serve.sock)")

    p = sub.add_parser("submit",
                       help="submit a job to a running serve daemon")
    add_address(p)
    _add_scenario_args(p)
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority (higher dispatches first)")
    p.add_argument("--key", default=None, metavar="KEY",
                   help="idempotency key: re-submitting the same key "
                        "returns the original job id (survives daemon "
                        "restarts when the daemon runs with --journal)")
    p.add_argument("--retries", type=int, default=0,
                   help="retry budget for queue_full rejections "
                        "(honoring the daemon's retry_after_hint) and, "
                        "with --key, dropped connections (default 0)")
    p.add_argument("--wait", action="store_true",
                   help="poll status until the job finishes and print "
                        "the result")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait timeout in seconds (default 300)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable output")

    p = sub.add_parser("status",
                       help="job status (or the daemon summary) from a "
                            "running serve daemon")
    add_address(p)
    p.add_argument("job", nargs="?", default=None,
                   help="job id (omit for the daemon summary)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cancel",
                       help="cancel a queued or running job on a "
                            "running serve daemon")
    add_address(p)
    p.add_argument("job", help="job id to cancel")
    p.add_argument("--json", action="store_true")
    return parser


def _run_experiment(args) -> None:
    overrides = {key: getattr(args, key) for key in ("hp", "be", "arrivals")
                 if getattr(args, key, None) is not None}
    if getattr(args, "sm_threshold", None) is not None:
        overrides["orion"] = {"sm_threshold": args.sm_threshold}
    scenario = _knob_scenario(args, "experiment", args.command, **overrides)
    _print_experiment(run_scenario(scenario).result, args.json)


def _print_experiment(result, as_json: bool) -> None:
    if as_json:
        payload = {
            name: {
                "high_priority": job.high_priority,
                "p50_ms": job.latency.p50 * 1e3,
                "p99_ms": job.latency.p99 * 1e3,
                "throughput": job.throughput,
                "requests": job.latency.count,
            }
            for name, job in result.jobs.items()
        }
        payload["backend_stats"] = result.backend_stats
        if result.utilization is not None:
            payload["utilization"] = dataclasses.asdict(result.utilization)
        print(json.dumps(payload, indent=1, default=float))
        return
    rows = []
    for name, job in result.jobs.items():
        rows.append([
            name,
            "HP" if job.high_priority else "BE",
            f"{job.latency.p50*1e3:.2f}" if job.latency.count else "-",
            f"{job.latency.p99*1e3:.2f}" if job.latency.count else "-",
            f"{job.throughput:.2f}",
        ])
    print(format_table(["job", "role", "p50 (ms)", "p99 (ms)", "tput/s"], rows))
    if result.utilization is not None:
        util = result.utilization
        print(f"utilization: compute {util.compute:.1%}   "
              f"memory {util.memory_bw:.1%}   sm {util.sm_busy:.1%}")
    if result.backend_stats:
        print(f"scheduler: {result.backend_stats}")


def _run_faults(args) -> None:
    from repro.faults import FaultPlan, KillClient

    objects = {}
    if args.kill == "none":
        objects["plan"] = FaultPlan(())
    elif args.kill is not None:
        kill_at = args.kill_at if args.kill_at is not None \
            else args.duration * 0.4
        objects["plan"] = FaultPlan((KillClient(args.kill, at_time=kill_at),))
    elif args.kill_at is not None:
        raise SystemExit("error: --kill-at needs --kill")
    scenario = _knob_scenario(args, "faults", **objects)
    result = run_scenario(scenario).result
    if args.json:
        print(result.ledger.to_json())
        return
    print("fault plan:")
    for line in result.plan.describe().splitlines():
        print(f"  {line}")
    print()
    print(result.ledger.format_table())
    if result.hp_latency.count:
        print(f"\nhp latency: p50 {result.hp_latency.p50*1e3:.2f} ms   "
              f"p99 {result.hp_latency.p99*1e3:.2f} ms   "
              f"({result.hp_latency.count} requests)")
    if result.backend_stats:
        print(f"scheduler: {result.backend_stats}")


def _run_fleet(args) -> None:
    scenario = _knob_scenario(args, "fleet")
    result = run_scenario(scenario).result
    report = result.report
    payload = json.dumps(report, indent=1, sort_keys=True)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":")))
        print(f"wrote {args.report_out}", file=sys.stderr)
    if args.migration_report_out:
        with open(args.migration_report_out, "w") as fh:
            fh.write(json.dumps(result.migration, sort_keys=True,
                                separators=(",", ":")))
        print(f"wrote {args.migration_report_out}", file=sys.stderr)
    if args.json:
        print(payload)
        return
    print("fault plan:")
    for line in result.plan.describe().splitlines() or ["  (none)"]:
        print(f"  {line}")
    print(f"\nfleet uptime: {report['fleet_uptime_fraction']:.4f}   "
          f"gpus: {result.num_gpus}   backend: {result.backend}")
    rows = []
    for name, g in report["gpus"].items():
        rows.append([name, g["state"], f"{g['uptime_fraction']:.3f}",
                     f"{g['health']:.3f}", str(g["jobs_completed"]),
                     str(g["crashes"]), str(g["recoveries"])])
    print(format_table(
        ["gpu", "state", "uptime", "health", "served", "crashes", "recov"],
        rows))
    fo = report["failover"]
    rate = fo["readmission_success_rate"]
    print(f"\nfailover: {fo['orphaned']} orphaned, {fo['failovers']} "
          f"re-admitted ({fo['retry_exhausted']} gave up), "
          f"success rate {'n/a' if rate is None else f'{rate:.2f}'}")
    if result.hp_latency.count:
        print(f"hp latency: p50 {result.hp_latency.p50*1e3:.2f} ms   "
              f"p99 {result.hp_latency.p99*1e3:.2f} ms   "
              f"({result.hp_latency.count} requests)")
    if result.migration:
        mig = result.migration
        print(f"migrations: {mig['started']} started, "
              f"{mig['completed']} completed, "
              f"{mig['rolled_back']} rolled back, "
              f"{mig['rerouted']} rerouted "
              f"(net predicted gain {mig['net_predicted_gain']:.3f}, "
              f"{mig['requeued_jobs']} jobs requeued)")
    print(f"routing: {result.routing['decisions']} decisions   "
          f"digest {result.routing['digest'][:16]}")
    print()
    print(result.ledger.format_table())


def _run_overload(args) -> None:
    scenario = _knob_scenario(args, "overload")
    result = run_scenario(scenario).result
    if args.json:
        payload = {
            "capacity_rps": result.capacity,
            "solo_latency_ms": result.solo_latency * 1e3,
            "slo_ms": None if result.slo is None else result.slo * 1e3,
            "hp_p50_ms": result.hp_latency.p50 * 1e3,
            "hp_p99_ms": result.hp_latency.p99 * 1e3,
            "hp_requests": result.hp_latency.count,
            "be_goodput_rps": result.be_goodput(args.duration),
            "total_shed": result.total_shed(),
            "backend_stats": result.backend_stats,
            "queue_telemetry": result.queue_telemetry,
            "guard_summary": result.guard_summary,
            "guard_actions": result.guard_actions,
            "ledger": json.loads(result.ledger.to_json()),
        }
        print(json.dumps(payload, indent=1, default=float))
        return
    offered = (args.hp_load + args.be_load) * result.capacity
    print(f"capacity: {result.capacity:.1f} req/s   "
          f"offered: {offered:.1f} req/s "
          f"({args.hp_load + args.be_load:.1f}x)   "
          f"solo latency: {result.solo_latency*1e3:.2f} ms")
    if result.slo is not None:
        print(f"SLO: {result.slo*1e3:.2f} ms (guard on)")
    else:
        print("guard: off")
    if result.hp_latency.count:
        print(f"hp latency: p50 {result.hp_latency.p50*1e3:.2f} ms   "
              f"p99 {result.hp_latency.p99*1e3:.2f} ms   "
              f"({result.hp_latency.count} requests)")
    print(f"be goodput: {result.be_goodput(args.duration):.1f} req/s   "
          f"shed: {result.total_shed()}")
    print(f"scheduler: {result.backend_stats}")
    if result.guard_summary is not None:
        print(f"guard: {result.guard_summary}")
    print("\nqueues:")
    for name, snap in result.queue_telemetry.items():
        print(f"  {name}: {snap}")
    print()
    print(result.ledger.format_table())


def _run_llm(args) -> None:
    scenario = _knob_scenario(args, "llm")
    wrapped = run_scenario(scenario)
    if args.json:
        print(wrapped.to_json())
        return
    result = wrapped.result
    print(f"model: {result.model}   backend: {result.backend}   "
          f"batch cap: {args.max_batch}   policy: {args.cache_policy}")
    print(f"requests: {result.requests_arrived} arrived, "
          f"{result.requests_completed} completed, "
          f"{result.requests_failed} failed")
    if result.ttft.count:
        slo = result.ttft_slo
        verdict = "OK" if result.ttft.p95 <= slo else "VIOLATED"
        print(f"ttft: p50 {result.ttft.p50*1e3:.2f} ms   "
              f"p95 {result.ttft.p95*1e3:.2f} ms   "
              f"slo {slo*1e3:.2f} ms [{verdict}]")
    if result.tpot.count:
        print(f"tpot: p50 {result.tpot.p50*1e3:.2f} ms   "
              f"p95 {result.tpot.p95*1e3:.2f} ms")
    print(f"decode throughput: {result.decode_tokens_per_sec:.1f} tok/s   "
          f"total tokens: {result.total_tokens}")
    kv = result.kv
    print(f"kv cache: peak {kv['peak_bytes']/2**20:.1f} MiB   "
          f"evictions {kv['evictions']}   oom {kv['oom_events']}   "
          f"admission blocks {kv['admission_blocks']}   "
          f"conserved {kv['conserved']}")
    if result.backend_stats:
        print(f"scheduler: {result.backend_stats}")


def _run_trace(args) -> None:
    from repro.telemetry import (
        TelemetryConfig,
        attribution_report,
        export_chrome_trace,
        format_attribution_table,
    )

    overrides = dict(_parse_override(item) for item in args.set)
    try:
        scenario = make_scenario(args.scenario, seed=args.seed,
                                 duration=args.duration, **overrides)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    telemetry = TelemetryConfig(tracing=True, capacity=args.capacity,
                                engine_events=args.engine_events)
    traced = run_scenario(dataclasses.replace(scenario, telemetry=telemetry))
    tracer, result = traced.tracer, traced.result
    # A fleet has no single device, so no utilization counters.
    segments = getattr(result, "utilization_segments", None)
    with open(args.out, "w") as fh:
        fh.write(export_chrome_trace(tracer, utilization_segments=segments))
    print(f"wrote {args.out}  ({len(tracer)} events, "
          f"{tracer.dropped} dropped)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(result.metrics.to_json())
        print(f"wrote {args.metrics_out}")
    if args.attribution_out:
        with open(args.attribution_out, "w") as fh:
            json.dump(attribution_report(tracer), fh, sort_keys=True,
                      separators=(",", ":"))
        print(f"wrote {args.attribution_out}")
    table = format_attribution_table(tracer)
    if table.count("\n"):
        print("\nlatency attribution (per client):")
        print(table)


def _run_sweep(args) -> None:
    from repro.experiments.registry import scenario_names
    from repro.experiments.sweep import run_sweep, sweep_to_json

    scenarios = [s for s in args.scenarios.split(",") if s]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    known = scenario_names()
    for name in scenarios:
        if name not in known:
            raise SystemExit(f"error: unknown scenario {name!r} "
                             f"(choose from {', '.join(known)})")
    report = run_sweep(scenarios, seeds, workers=args.workers)
    payload = sweep_to_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        grid = report["grid"]
        print(f"wrote {args.out}  ({grid['cells']} cells, "
              f"{grid['failed']} failed, workers={args.workers})")
    else:
        print(payload)


def _run_scenarios(args) -> None:
    from repro.experiments.registry import scenario_catalog

    catalog = scenario_catalog()
    if args.json:
        print(json.dumps(catalog, indent=1, sort_keys=True))
        return
    rows = []
    for name, entry in catalog.items():
        summary = " ".join(f"{k}={v}" for k, v in entry["params"].items())
        rows.append([name, entry["kind"], summary or "(defaults)"])
    print(format_table(["scenario", "kind", "key params"], rows))


def _serve_address(args) -> str:
    from repro.serve import DEFAULT_ADDRESS

    if getattr(args, "port", None) is not None:
        return f"tcp:{args.host}:{args.port}"
    if getattr(args, "socket", None):
        return f"unix:{args.socket}"
    return getattr(args, "address", None) or DEFAULT_ADDRESS


def _run_serve(args) -> int:
    import logging

    from repro.serve import ServeServer

    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    try:
        config = ServeConfig(address=_serve_address(args),
                             **{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(ServeConfig)
                                if f.metadata["help"] is not None})
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from exc
    server = ServeServer(config)
    print(f"listening on {server.start()}", flush=True)
    return server.serve_forever()


def _parse_override(item: str):
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise SystemExit(f"error: bad --set {item!r}; expected KEY=VAL")
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value


def _run_submit(args) -> int:
    from repro.serve import ServeClient, ServeError

    overrides = dict(_parse_override(item) for item in args.set)
    with ServeClient(_serve_address(args)) as client:
        try:
            job = client.submit(name=args.scenario, seed=args.seed,
                                duration=args.duration,
                                overrides=overrides or None,
                                priority=args.priority,
                                idempotency_key=args.key,
                                retries=args.retries)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not args.wait:
            if args.json:
                print(json.dumps({"job": job, "state": "QUEUED"}))
            else:
                print(f"submitted {job}")
            return 0
        record = client.wait(job, timeout=args.timeout)
        if args.json:
            payload = dict(record)
            if record["state"] == "COMPLETED":
                payload["result"] = client.result(job)
            print(json.dumps(payload, indent=1, sort_keys=True))
            return 0 if record["state"] == "COMPLETED" else 1
        print(f"{job}: {record['state']}"
              + (f" ({record['error']})" if record.get("error") else ""))
        if record["state"] == "COMPLETED":
            result = client.result(job)
            print(f"events: {result['events_processed']}   "
                  f"sim_time: {result['sim_time']:g}s   "
                  f"seed: {result['seed']}")
            return 0
        return 1


def _run_status(args) -> int:
    from repro.serve import ServeClient, ServeError

    with ServeClient(_serve_address(args)) as client:
        try:
            record = client.status(args.job)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(record, indent=1, sort_keys=True))
        return 0
    if args.job is not None:
        line = f"{record['id']}: {record['state']}"
        if record.get("error"):
            line += f" ({record['error']})"
        print(line)
        return 0
    daemon = record["daemon"]
    print(f"daemon: {daemon['address']}   uptime {daemon['uptime_s']:.1f}s   "
          f"admission {daemon['admission']}")
    print(f"queue: {daemon['queue_depth']}/{daemon['max_pending']}   "
          f"running: {', '.join(daemon['running']) or '(idle)'}")
    print(f"counters: {daemon['counters']}")
    if record["jobs"]:
        rows = [[j["id"], j["state"], str(j["priority"]),
                 j["spec"].get("name") or j["spec"].get("kind", "?")]
                for j in record["jobs"]]
        print(format_table(["job", "state", "prio", "scenario"], rows))
    return 0


def _run_cancel(args) -> int:
    from repro.serve import ServeClient, ServeError

    with ServeClient(_serve_address(args)) as client:
        try:
            response = client.cancel(args.job)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(response, indent=1, sort_keys=True))
        return 0
    if response.get("canceled"):
        print(f"{args.job}: canceled")
    elif response.get("cancel_requested"):
        print(f"{args.job}: cancel requested ({response['state']})")
    else:
        print(f"{args.job}: already {response['state']}; not canceled")
    return 0


def _run_profile(args) -> None:
    profile = get_profile(args.model, args.kind, get_device(args.device))
    if args.out:
        profile.save(args.out)
        print(f"wrote {args.out}")
    if args.json:
        print(json.dumps(profile.to_dict(), indent=1))
        return
    print(f"{profile.model_name} ({profile.kind}) on {profile.device_name}")
    print(f"kernels: {len(profile.kernels)}   "
          f"solo request latency: {profile.request_latency*1e3:.2f} ms")
    classes = {}
    for k in profile.kernels.values():
        classes[k.profile.value] = classes.get(k.profile.value, 0) + 1
    print(f"classes: {classes}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except argparse.ArgumentError as exc:
        # A knob value its dataclass rejects is a usage error: exit 2
        # with argparse's one-line message, not a traceback.
        parser.error(str(exc))


def _dispatch(args) -> int:
    if args.command == "profile":
        _run_profile(args)
        return 0
    if args.command == "faults":
        _run_faults(args)
        return 0
    if args.command == "fleet":
        _run_fleet(args)
        return 0
    if args.command == "overload":
        _run_overload(args)
        return 0
    if args.command == "llm":
        _run_llm(args)
        return 0
    if args.command == "trace":
        _run_trace(args)
        return 0
    if args.command == "sweep":
        _run_sweep(args)
        return 0
    if args.command == "scenarios":
        _run_scenarios(args)
        return 0
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "cancel":
        return _run_cancel(args)
    _run_experiment(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
