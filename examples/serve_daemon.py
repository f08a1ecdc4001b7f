#!/usr/bin/env python3
"""Serve daemon: run the scheduler as an always-on service and drive it
through the submit/status/cancel API.

Run:  python examples/serve_daemon.py

What happens:

1. A :class:`ServeServer` starts in-process on an ephemeral TCP port —
   exactly what ``python -m repro serve`` does, minus the signal
   handlers.  One worker process executes jobs through the same
   ``run(scenario)`` entry point the CLI and sweep engine use (a
   spawned process: keep the ``__main__`` guard in scripts like this).
2. A :class:`ServeClient` discovers the registry catalog with the
   ``scenarios`` verb, submits a fault-injection job, polls its
   ``QUEUED -> DISPATCHED -> RUNNING -> COMPLETED`` lifecycle, and
   fetches the canonical result — byte-identical to a direct
   ``run(scenario)`` at the same seed (the determinism contract).
3. A long job is submitted and canceled mid-run: the engine's abort
   hook stops the simulation within ~1024 events and the job lands in
   CANCELED.
4. Telemetry snapshots stream to the client, then the daemon drains
   gracefully and prints its job history.
"""

import time

from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run
from repro.serve import ServeClient, ServeConfig, ServeServer


def main() -> None:
    server = ServeServer(ServeConfig(address="tcp:127.0.0.1:0", workers=1,
                                     max_pending=8, telemetry_interval=0.2))
    address = server.start()
    print(f"daemon listening on {address}\n")

    with ServeClient(address) as client:
        catalog = client.scenarios()
        print(f"catalog: {', '.join(sorted(catalog))}\n")

        # -- submit, watch the lifecycle, verify determinism ------------
        job = client.submit(name="faults", seed=3, duration=0.05)
        print(f"submitted {job}")
        final = client.wait(job, timeout=120)
        transitions = " -> ".join(state for state, _ in final["transitions"])
        print(f"lifecycle: {transitions}")
        daemon_json = client.result_json(job)
        direct_json = run(make_scenario("faults", seed=3,
                                        duration=0.05)).to_json()
        print(f"byte-identical to direct run: {daemon_json == direct_json}\n")

        # -- cancel a running job ---------------------------------------
        slow = client.submit(name="overload", duration=5.0)
        while client.status(slow)["state"] != "RUNNING":
            time.sleep(0.01)
        client.cancel(slow)
        final = client.wait(slow, timeout=30)
        print(f"{slow} after cancel: {final['state']} ({final['error']})\n")

        # -- streamed telemetry snapshots -------------------------------
        for snapshot in client.telemetry_stream(follow=3, interval=0.05):
            print(f"telemetry seq={snapshot['seq']} "
                  f"queue={snapshot['queue_depth']} "
                  f"counters={snapshot['counters']}")

        history = client.history()
        print(f"\nhistory: {[(j['id'], j['state']) for j in history]}")
        client.shutdown()

    server._stopped.wait(30)
    print("daemon drained and stopped")


if __name__ == "__main__":
    main()
