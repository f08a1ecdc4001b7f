"""Executes a :class:`repro.faults.plan.FaultPlan` against a simulation.

The injector is itself a simulated process: timed events fire at their
scheduled times through the normal event calendar, so fault runs replay
byte-identically under a fixed seed.  Kill targets may be workload
clients (anything exposing ``kill()``) or bare
:class:`repro.runtime.client.ClientContext` objects (killed via
``close()``); op-count-triggered kills hook the context's op counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.device import GpuDevice
from repro.profiler.profiles import ProfileStore
from repro.sim.engine import Simulator
from repro.sim.process import Process, Timeout, spawn
from repro.telemetry.tracer import NULL_TRACER

from .plan import (
    FaultEvent,
    FaultPlan,
    GpuCrash,
    GpuDegrade,
    GpuRecover,
    KernelFault,
    KillClient,
    ProfileFault,
    TransferFault,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Runs a fault plan: arms device faults, kills clients, mutates profiles.

    ``fleet`` is the target for GPU-level events (GpuCrash/GpuDegrade/
    GpuRecover): any object exposing ``crash_gpu(gpu)``,
    ``degrade_gpu(gpu, slowdown)``, and ``recover_gpu(gpu)`` — in
    practice :class:`repro.cluster.fleet.Fleet`.  Fleet events in a plan
    with no fleet target are a configuration error and raise at
    :meth:`start`.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        device: Optional[GpuDevice] = None,
        clients: Optional[Dict[str, object]] = None,
        profiles: Optional[ProfileStore] = None,
        fleet: Optional[object] = None,
        tracer=NULL_TRACER,
    ):
        self.sim = sim
        self.plan = plan
        self.device = device
        self.clients: Dict[str, object] = dict(clients or {})
        self.profiles = profiles
        self.fleet = fleet
        self.tracer = tracer
        # Chronological record of injected faults (feeds the error ledger).
        self.log: List[dict] = []
        self._process: Optional[Process] = None
        self._started = False

    def add_client(self, name: str, target: object) -> None:
        """Register a kill target (usable mid-run for late joiners)."""
        self.clients[name] = target
        for event in self.plan.op_triggered_kills():
            if event.client == name:
                self._arm_op_kill(event, target)

    def start(self) -> "FaultInjector":
        """Apply profile faults, arm op-count kills, spawn the timed runner."""
        if self._started:
            return self
        self._started = True
        if self.fleet is None and self.plan.fleet_events():
            raise ValueError(
                "fault plan contains GPU-level events (GpuCrash/GpuDegrade/"
                "GpuRecover) but no fleet target was provided; these events "
                "only apply to fleet scenarios")
        for event in self.plan.profile_faults():
            self._apply_profile_fault(event)
        for event in self.plan.op_triggered_kills():
            target = self.clients.get(event.client)
            if target is not None:
                self._arm_op_kill(event, target)
        timed = self.plan.timed_events()
        if timed:
            self._process = spawn(self.sim, self._run(timed), "fault-injector")
        return self

    # ------------------------------------------------------------------
    def _run(self, timed: List[FaultEvent]):
        for event in timed:
            delay = event.at_time - self.sim.now
            if delay > 0:
                yield Timeout(delay)
            self._execute(event)

    def _execute(self, event: FaultEvent) -> None:
        if isinstance(event, KillClient):
            self._kill(event.client)
        elif isinstance(event, KernelFault):
            if self.device is not None:
                self.device.arm_kernel_fault(event.kernel,
                                             client_id=event.client,
                                             count=event.count)
        elif isinstance(event, TransferFault):
            if self.device is not None:
                self.device.arm_transfer_fault(count=event.count)
        elif isinstance(event, GpuCrash):
            if self.fleet is not None:
                self.fleet.crash_gpu(event.gpu)
        elif isinstance(event, GpuDegrade):
            if self.fleet is not None:
                self.fleet.degrade_gpu(event.gpu, event.slowdown)
        elif isinstance(event, GpuRecover):
            if self.fleet is not None:
                self.fleet.recover_gpu(event.gpu)
        self._record(event)

    def _kill(self, name: str) -> None:
        target = self.clients.get(name)
        if target is None:
            return
        if hasattr(target, "kill"):
            target.kill()
        else:
            target.close()

    def _arm_op_kill(self, event: KillClient, target: object) -> None:
        ctx = getattr(target, "ctx", target)
        fired = [False]

        def hook(count: int) -> None:
            if fired[0] or count < event.after_ops:
                return
            fired[0] = True
            # Defer: the hook runs inside the victim's own issue path,
            # and deregistration must not reenter the submitting stream.
            self.sim.call_soon(lambda: self._execute(event))

        ctx.add_op_hook(hook)

    def _apply_profile_fault(self, event: ProfileFault) -> None:
        if self.profiles is None:
            return
        if event.mode == "drop":
            applied = self.profiles.drop(event.kernel)
        else:
            applied = self.profiles.corrupt(event.kernel, event.factor)
        if applied:
            self._record(event)

    def _record(self, event: FaultEvent) -> None:
        if self.tracer.enabled:
            self.tracer.instant("faults", type(event).__name__,
                                fault=event.describe())
        self.log.append({
            "time": round(self.sim.now, 9),
            "type": type(event).__name__,
            "fault": event.describe(),
        })
