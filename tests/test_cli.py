"""Tests for the command-line interface."""

import argparse
import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.params import PARAM_TYPES
from repro.experiments.registry import make_scenario
from repro.serve import ServeConfig


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


ALL_SUBCOMMANDS = ("inf-train", "train-train", "inf-inf", "faults",
                   "fleet", "overload", "trace", "sweep", "profile",
                   "scenarios", "serve", "submit", "status", "cancel")


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ALL_SUBCOMMANDS:
        assert command in out, f"{command} missing from top-level --help"


@pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
def test_subcommand_help_smoke(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert command in out or "usage" in out


def test_parser_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["inf-train", "--hp", "alexnet",
                                   "--be", "resnet50"])


def test_inf_train_cli_runs(capsys):
    rc = main(["inf-train", "--hp", "mobilenet_v2", "--be", "mobilenet_v2",
               "--backend", "orion", "--duration", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "hp-mobilenet_v2-inference" in out
    assert "scheduler" in out


def test_inf_inf_cli_json_output(capsys):
    rc = main(["inf-inf", "--hp", "mobilenet_v2", "--be", "mobilenet_v2",
               "--backend", "mps", "--duration", "1.0", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    jobs = [k for k in payload if k != "backend_stats"]
    assert len(jobs) == 2
    assert all("p99_ms" in payload[j] for j in jobs)


def test_train_train_cli_with_sm_threshold(capsys):
    rc = main(["train-train", "--hp", "mobilenet_v2", "--be", "mobilenet_v2",
               "--backend", "orion", "--duration", "1.0",
               "--sm-threshold", "160"])
    assert rc == 0
    assert "BE" in capsys.readouterr().out


def test_record_utilization_flag_prints_averages(capsys):
    rc = main(["inf-train", "--hp", "mobilenet_v2", "--be", "mobilenet_v2",
               "--duration", "0.3", "--warmup", "0.1",
               "--record-utilization"])
    assert rc == 0
    assert "utilization: compute" in capsys.readouterr().out


def test_trace_rejects_unknown_scenario():
    with pytest.raises(SystemExit, match="unknown scenario 'nope'"):
        main(["trace", "nope", "--out", "unused.json"])


def test_faults_cli_runs(capsys):
    rc = main(["faults", "--duration", "0.06", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan" in out
    assert "kill client 'be-0'" in out
    assert "restarts" in out


def test_faults_cli_json_ledger(capsys):
    rc = main(["faults", "--duration", "0.06", "--seed", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "clients" in payload and "injections" in payload
    assert payload["injections"][0]["type"] == "KillClient"
    assert "be-0" in payload["clients"]


def test_faults_cli_kill_at_needs_kill():
    with pytest.raises(SystemExit, match="--kill-at needs --kill"):
        main(["faults", "--duration", "0.02", "--kill-at", "0.01"])


def test_fleet_cli_runs(capsys):
    rc = main(["fleet", "--num-gpus", "2", "--duration", "0.04",
               "--seed", "1", "--crashes", "1", "--degrades", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault plan" in out
    assert "crash gpu" in out
    assert "fleet uptime" in out
    assert "failover" in out


def test_fleet_cli_json_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["fleet", "--num-gpus", "2", "--duration", "0.04",
               "--seed", "1", "--crashes", "1", "--degrades", "0",
               "--json", "--report-out", str(report_path)])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # stdout is the JSON alone
    assert f"wrote {report_path}" in captured.err
    assert payload["num_gpus"] == 2
    assert payload["faults"]["crashes"] == 1
    assert "gpu0" in payload["gpus"] and "gpu1" in payload["gpus"]
    on_disk = json.loads(report_path.read_text())
    assert on_disk == payload


def test_fleet_cli_rebalance_runs(capsys, tmp_path):
    mig_path = tmp_path / "migrations.json"
    rc = main(["fleet", "--num-gpus", "2", "--duration", "0.1",
               "--seed", "0", "--crashes", "0", "--degrades", "0",
               "--be-tenants", "1", "--hp-load", "0.15",
               "--be-load", "0.15", "--placement", "adversarial",
               "--rebalance", "--rebalance-interval", "0.02",
               "--migration-min-gain", "0.01",
               "--migration-report-out", str(mig_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "migrations:" in out
    report = json.loads(mig_path.read_text())
    assert report["started"] >= 1
    assert report["records"][0]["transitions"][0][1] == "planned"


def test_fleet_cli_rejects_rebalance_without_placement():
    with pytest.raises(ValueError):
        main(["fleet", "--num-gpus", "2", "--duration", "0.02",
              "--crashes", "0", "--degrades", "0", "--rebalance"])


def test_optional_knob_flags_take_zero_as_none():
    from repro.cli import _knob_scenario

    args = build_parser().parse_args(["overload", "--deadline-mult", "0",
                                      "--queue-depth", "0", "--no-guard"])
    params = _knob_scenario(args, "overload").params
    assert params["deadline_mult"] is None
    assert params["queue_depth"] is None
    assert params["guard"] is False


KNOB_SURFACES = [("inf-train", PARAM_TYPES["experiment"]),
                 ("faults", PARAM_TYPES["faults"]),
                 ("fleet", PARAM_TYPES["fleet"]),
                 ("overload", PARAM_TYPES["overload"]),
                 ("llm", PARAM_TYPES["llm"]),
                 ("serve", ServeConfig)]


@pytest.mark.parametrize("command, cls", KNOB_SURFACES,
                         ids=[command for command, _ in KNOB_SURFACES])
def test_every_knob_has_exactly_one_generated_flag(command, cls):
    """A knob is declared once: each field with help text has exactly
    one flag, whose default is the field's; fields without help text
    have none."""
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    parser = subparsers.choices[command]
    for f in dataclasses.fields(cls):
        flags = [action for action in parser._actions
                 if action.dest == f.name]
        if f.metadata["help"] is None:
            assert not flags, f"{f.name} has no help text but a flag"
            continue
        assert len(flags) == 1, f"{f.name}: {len(flags)} flags"
        assert flags[0].option_strings[0] == "--" + f.name.replace("_", "-")
        assert flags[0].default == f.default, f.name


def test_bad_knobs_fail_at_construction(tmp_path):
    with pytest.raises(ValueError, match="max_inflight_migrations"):
        make_scenario("fleet_rebalance", max_inflight_migrations=0)
    # The error names the valid OrionConfig keys.
    with pytest.raises(ValueError, match="bogus_knob.*sm_threshold"):
        make_scenario("inf-train", orion={"bogus_knob": 1})
    with pytest.raises(ValueError, match="fsync_batch"):
        ServeConfig(journal=str(tmp_path / "wal.ndjson"), fsync_batch=0)


def test_serve_rejects_bad_knob_before_binding(tmp_path):
    sock = tmp_path / "serve.sock"
    with pytest.raises(ValueError, match="fsync_batch"):
        main(["serve", "--socket", str(sock), "--fsync-batch", "0",
              "--journal", str(tmp_path / "wal.ndjson")])
    assert not sock.exists()


def test_fleet_cli_rebalance_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["fleet", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--rebalance", "--placement", "--rebalance-interval",
                 "--migration-cooldown", "--max-inflight-migrations",
                 "--migration-min-gain", "--migration-report-out"):
        assert flag in out, f"{flag} missing from fleet --help"


def test_scenarios_cli_lists_catalog(capsys):
    rc = main(["scenarios"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("fleet_ref", "overload_ref", "inf_train_ref",
                 "fleet_rebalance"):
        assert name in out, f"{name} missing from the catalog table"
    assert "experiment" in out and "fleet" in out


def test_scenarios_cli_json_matches_registry(capsys):
    from repro.experiments.registry import scenario_catalog, scenario_names

    rc = main(["scenarios", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert tuple(sorted(payload)) == scenario_names()
    assert payload == scenario_catalog()
    assert payload["fleet_ref"]["kind"] == "fleet"
    assert payload["fleet_ref"]["params"]["num_gpus"] == 8
    assert payload["inf_train_ref"]["kind"] == "experiment"
    assert payload["inf_train_ref"]["params"]["backend"] == "orion"


def test_submit_status_cancel_cli_roundtrip(capsys):
    from repro.serve import ServeConfig, ServeServer

    server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0", workers=1,
                                     telemetry_interval=0))
    address = server.start()
    try:
        rc = main(["submit", "faults", "--address", address,
                   "--duration", "0.05", "--seed", "2", "--wait", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["state"] == "COMPLETED"
        assert payload["result"]["seed"] == 2
        job = payload["id"]

        rc = main(["status", job, "--address", address])
        assert rc == 0
        assert "COMPLETED" in capsys.readouterr().out

        rc = main(["status", "--address", address])
        assert rc == 0
        assert "daemon:" in capsys.readouterr().out

        rc = main(["cancel", job, "--address", address])
        assert rc == 0
        assert "already COMPLETED" in capsys.readouterr().out

        rc = main(["status", "job-9999", "--address", address])
        assert rc == 1
    finally:
        server.shutdown()


def test_submit_cli_reports_queue_full(capsys):
    from repro.serve import ServeConfig, ServeServer

    server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0", workers=0,
                                     max_pending=1, telemetry_interval=0))
    address = server.start()
    try:
        assert main(["submit", "faults", "--address", address,
                     "--duration", "0.05"]) == 0
        rc = main(["submit", "faults", "--address", address,
                   "--duration", "0.05"])
        assert rc == 1
        assert "queue_full" in capsys.readouterr().err
    finally:
        server.shutdown()


def test_profile_cli(capsys, tmp_path):
    out_path = tmp_path / "prof.json"
    rc = main(["profile", "--model", "mobilenet_v2", "--kind", "inference",
               "--out", str(out_path)])
    assert rc == 0
    assert out_path.exists()
    data = json.loads(out_path.read_text())
    assert data["model_name"].startswith("mobilenet_v2")
