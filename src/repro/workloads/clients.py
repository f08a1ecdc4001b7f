"""Client job processes: the one lifecycle every simulated GPU tenant runs.

:class:`_BaseClient` is that lifecycle.  A subclass writes ``_body()``
— startup allocation, then its serve loop — and the base owns the rest:
stats and ledger forwarding, the startup ``cudaMalloc`` whose
allocation failures (a non-sticky ``OUT_OF_MEMORY`` status) are retried
with bounded exponential backoff, and death.  A sticky error (faulting
kernel, failed transfer, kill) poisons the context; a plain client
stops there, while a client given a ``ctx_factory`` runs its body under
a supervisor that rebuilds the context and resumes serving after
exponential backoff — the fault-tolerance loop a production serving
stack would run.

An :class:`InferenceClient` receives requests from an arrival process
into a pending queue and serves them one at a time (a model instance is
sequential); latency is completion minus *arrival*, so queueing delay —
the head-of-line blocking that kills temporal sharing in the paper —
is part of the measurement.  A :class:`TrainingClient` runs minibatch
iterations in a closed loop, emitting forward/backward/update phase
markers that the Tick-Tock baseline gates on.  The LLM engine in
:mod:`repro.workloads.llmserve` is a third client on the same base.

:func:`arrival_loop` paces every open-loop arrival stream and
:func:`launch_ops` is the one kernel/memcpy issue loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Iterable, List, Optional

from repro.frameworks.lowering import OpPlan, bind_plan
from repro.gpu.errors import CudaError, CudaErrorCode
from repro.gpu.specs import DeviceSpec
from repro.kernels.kernel import KernelOp
from repro.runtime.client import ClientContext
from repro.sim.engine import Simulator
from repro.sim.process import Interrupted, Process, Signal, Timeout, spawn

from .arrivals import ArrivalProcess, ClosedLoop

if TYPE_CHECKING:  # avoids the metrics -> clients import cycle
    from repro.metrics.availability import ErrorLedger

__all__ = [
    "RequestRecord",
    "InferenceClient",
    "TrainingClient",
    "ClientStats",
    "arrival_loop",
    "launch_ops",
]

# Bounded retry/backoff for startup allocation OOM.
_OOM_RETRIES = 5
_OOM_BACKOFF = 5e-4
_OOM_BACKOFF_CAP = 5e-2


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request/iteration."""

    arrival: float
    start: float
    end: float

    @property
    def latency(self) -> float:
        return self.end - self.arrival

    @property
    def service_time(self) -> float:
        return self.end - self.start


@dataclass
class ClientStats:
    """Raw per-client results of one run."""

    name: str
    kind: str
    records: List[RequestRecord] = field(default_factory=list)
    dropped: int = 0
    failed: int = 0
    restarts: int = 0
    # Requests shed at admission because their deadline had already
    # expired before any GPU work was issued (overload protection).
    # Shed is neither served nor failed: the request was never tried.
    shed: int = 0

    def completed(self, after: float = 0.0) -> List[RequestRecord]:
        return [r for r in self.records if r.arrival >= after]


def arrival_loop(arrivals: ArrivalProcess, horizon: float,
                 on_arrival: Callable[[float], None]):
    """Process body: call ``on_arrival(t)`` at each arrival before ``horizon``.

    The clock is paced to ``t`` in ``Timeout`` steps, so ``sim.now`` can
    differ from ``t`` by float rounding: a caller that stamps ``t``
    (:class:`InferenceClient`) and one that stamps ``sim.now`` (the LLM
    engine, the fleet) record different values.
    """
    last = 0.0
    for t in arrivals.arrival_times(horizon):
        if t > last:
            yield Timeout(t - last)
            last = t
        on_arrival(t)


def launch_ops(ctx: ClientContext, ops: Iterable):
    """Issue ``ops`` in order with CUDA blocking semantics.

    The caller synchronizes.  One loop, no generator per op: this is
    the hot path of every client.
    """
    for op in ops:
        if isinstance(op, KernelOp):
            yield from ctx.launch_kernel(op)
        else:
            # MemoryOp copies go through the dedicated entry points.
            yield from ctx.memcpy(op.nbytes, op.kind, blocking=op.blocking)


class _BaseClient:
    """One client process: startup, a serve body, death, restarts.

    ``start()`` spawns the subclass's ``_body()`` directly or, when a
    ``ctx_factory`` is given, under :meth:`_supervise`: on a crash
    (sticky error or kill) the supervisor waits an exponentially
    growing backoff, rebuilds the client context via ``ctx_factory`` (a
    fresh registration — under Orion a dead high-priority client's
    successor re-acquires the vacated priority stream), and runs the
    body again.  Restarts are bounded by ``max_restarts``.
    """

    #: Process-name suffix of an unsupervised body.
    _body_name = "serve"

    backoff_base = 1e-3
    backoff_factor = 2.0
    backoff_cap = 5e-2

    def __init__(self, sim: Simulator, ctx: ClientContext, name: str,
                 kind: str, horizon: float,
                 ledger: Optional[ErrorLedger] = None,
                 ctx_factory: Optional[Callable[[], ClientContext]] = None,
                 max_restarts: int = 8):
        self.sim = sim
        self.ctx = ctx
        self.name = name
        self.horizon = horizon
        self.stats = ClientStats(name=name, kind=kind)
        self.ledger = ledger
        self.max_restarts = max_restarts
        self._ctx_factory = ctx_factory
        self._process: Optional[Process] = None
        self._serve: Optional[Process] = None
        self._errors_seen = 0
        self._halted = False

    def start(self) -> None:
        if self._ctx_factory is None:
            self._process = spawn(self.sim, self._body(),
                                  f"{self.name}-{self._body_name}")
        else:
            self._process = spawn(self.sim, self._supervise(),
                                  f"{self.name}-supervisor")

    def _body(self):
        raise NotImplementedError

    def kill(self, error: Optional[CudaError] = None) -> None:
        """Simulated process death: the serve loop is interrupted and the
        context closed (deregistering from the backend)."""
        target = self._serve or self._process
        if target is not None and target.alive:
            target.interrupt("killed")
        if self.ctx.in_request:
            self._record_failed()
        if self.ledger is not None:
            self.ledger.record_down(self.name, self.sim.now)
        self.ctx.close(error)
        self._flush_errors()

    def halt(self) -> None:
        """Permanent kill: the supervisor will not restart."""
        self._halted = True
        self.kill()

    @property
    def alive(self) -> bool:
        proc = self._process
        return proc is not None and proc.alive

    def _flush_errors(self) -> None:
        """Forward errors the context observed since the last flush."""
        new = self.ctx.errors[self._errors_seen:]
        self._errors_seen = len(self.ctx.errors)
        if self.ledger is not None:
            for error in new:
                self.ledger.record_error(self.name, error.code.value,
                                         self.sim.now)

    def _record_served(self) -> None:
        if self.ledger is not None:
            self.ledger.record_served(self.name)

    def _record_failed(self) -> None:
        self.stats.failed += 1
        if self.ledger is not None:
            self.ledger.record_failed(self.name)

    def _record_shed(self) -> None:
        self.stats.shed += 1
        if self.ledger is not None:
            self.ledger.record_shed(self.name)

    def _healthy(self) -> bool:
        return not (self.ctx.closed or self.ctx.poisoned)

    def _startup(self, nbytes: int):
        """Allocate ``nbytes`` of resident state (weights, workspace).

        OOM is retried with bounded exponential backoff; returns True
        once the allocation succeeds, False when retries are exhausted
        or a different error lands.
        """
        for attempt in range(_OOM_RETRIES + 1):
            done = yield from self.ctx.malloc(nbytes)
            self._flush_errors()
            if done.error is None:
                return True
            if (done.error.code is not CudaErrorCode.OUT_OF_MEMORY
                    or attempt >= _OOM_RETRIES):
                return False
            yield Timeout(min(_OOM_BACKOFF_CAP, _OOM_BACKOFF * 2 ** attempt))
        return False

    def _supervise(self):
        attempt = 0
        while True:
            self._serve = spawn(self.sim, self._body(),
                                f"{self.name}-serve-{attempt}")
            yield self._serve
            self._flush_errors()
            if self._halted or self.sim.now >= self.horizon \
                    or self._healthy():
                return  # halted, out of time, or a clean completion
            # The body died (kill or sticky error): the client is down.
            # record_down keeps the earlier time a kill recorded.
            if self.ledger is not None:
                self.ledger.record_down(self.name, self.sim.now)
            if attempt >= self.max_restarts:
                return
            delay = min(self.backoff_cap,
                        self.backoff_base * self.backoff_factor ** attempt)
            attempt += 1
            try:
                yield Timeout(delay)
            except Interrupted:
                return
            if self._halted or self.sim.now >= self.horizon:
                return
            if self.ctx.closed:
                self.ctx = self._ctx_factory()
                self._errors_seen = 0
            else:
                # Poisoned but never deregistered: cudaDeviceReset analog.
                self.ctx.reset()
            self.stats.restarts += 1
            if self.ledger is not None:
                self.ledger.record_recovered(self.name, self.sim.now)


class InferenceClient(_BaseClient):
    """Serves inference requests from an arrival process, FIFO.

    ``deadline`` (relative seconds, None = no SLO) arms shed-at-
    admission: a queued request whose ``arrival + deadline`` has
    already passed when it reaches the head of the line is dropped —
    recorded as *shed*, not served and not failed — before any GPU
    work is issued.  Under a burst this keeps the latency distribution
    of served requests meaningful instead of letting queueing delay
    grow without bound (DESIGN.md §6.2).
    """

    def __init__(self, sim: Simulator, ctx: ClientContext, plan: OpPlan,
                 device_spec: DeviceSpec, arrivals: ArrivalProcess,
                 name: str, horizon: float,
                 ledger: Optional[ErrorLedger] = None,
                 deadline: Optional[float] = None,
                 ctx_factory: Optional[Callable[[], ClientContext]] = None,
                 max_restarts: int = 8):
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        super().__init__(sim, ctx, name, plan.kind, horizon, ledger=ledger,
                         ctx_factory=ctx_factory, max_restarts=max_restarts)
        self.plan = plan
        self.device_spec = device_spec
        # The plan's kernel costs, bound once for this client's lifetime.
        self._bound = bind_plan(plan, device_spec)
        self.arrivals = arrivals
        self.deadline = deadline
        self._pending: Deque[float] = deque()
        self._work = Signal(sim)

    def start(self) -> None:
        if not isinstance(self.arrivals, ClosedLoop):
            spawn(self.sim, arrival_loop(self.arrivals, self.horizon,
                                         self._arrive),
                  f"{self.name}-arrivals")
        super().start()

    def _arrive(self, t: float) -> None:
        self._pending.append(t)
        if not self._work.triggered:
            self._work.trigger()

    def _body(self):
        ok = yield from self._startup(self.plan.state_bytes)
        if not ok:
            self._record_failed()
            return
        closed = isinstance(self.arrivals, ClosedLoop)
        while True:
            if closed:
                arrival = self.sim.now
            else:
                while not self._pending:
                    self._work = Signal(self.sim)
                    yield self._work
                arrival = self._pending.popleft()
                if (self.deadline is not None
                        and self.sim.now > arrival + self.deadline):
                    # Shed at admission: the deadline expired while the
                    # request sat in the pending queue — serving it now
                    # would burn GPU time on an answer nobody can use.
                    self._record_shed()
                    continue
            deadline = None if self.deadline is None \
                else arrival + self.deadline
            yield from self.ctx.begin_request(deadline=deadline)
            start = self.sim.now
            yield from launch_ops(self.ctx,
                                  self._bound.launch(self.ctx.client_id))
            yield from self.ctx.synchronize()
            self.ctx.end_request()
            self._flush_errors()
            if not self._healthy():
                # Sticky error mid-request: the request failed and the
                # body ends (a supervisor, if any, restarts it).
                self._record_failed()
                return
            self.stats.records.append(RequestRecord(arrival, start, self.sim.now))
            if self.ctx.tracer.enabled:
                self.ctx.tracer.request(self.ctx.client_id, arrival, start)
            self._record_served()
            if closed and self.sim.now >= self.horizon:
                return
            # Tiny host-side gap between requests in closed loop.
            if closed:
                yield Timeout(1e-5)


class TrainingClient(_BaseClient):
    """Runs training iterations in a closed loop with phase markers."""

    _body_name = "train"

    def __init__(self, sim: Simulator, ctx: ClientContext, plan: OpPlan,
                 device_spec: DeviceSpec, name: str, horizon: float,
                 ledger: Optional[ErrorLedger] = None,
                 ctx_factory: Optional[Callable[[], ClientContext]] = None,
                 max_restarts: int = 8):
        if plan.kind != "training":
            raise ValueError(f"TrainingClient needs a training plan, got {plan.kind}")
        super().__init__(sim, ctx, name, plan.kind, horizon, ledger=ledger,
                         ctx_factory=ctx_factory, max_restarts=max_restarts)
        self.plan = plan
        self.device_spec = device_spec
        self._bound = bind_plan(plan, device_spec)

    def _body(self):
        ok = yield from self._startup(self.plan.state_bytes)
        if not ok:
            self._record_failed()
            return
        while self.sim.now < self.horizon:
            yield from self.ctx.begin_request()
            start = self.sim.now
            # Training inputs are prefetched: the minibatch H2D copy is
            # asynchronous and overlaps compute (standard input
            # pipelining; the paper's §6.1 setup eliminates input stalls).
            phases = {"copy": [], "forward": [], "backward": [], "update": []}
            for op in self._bound.launch(self.ctx.client_id, async_copies=True):
                phases[op.tag if op.tag in phases else "forward"].append(op)
            yield from self.ctx.phase("forward")
            yield from launch_ops(self.ctx, phases["copy"] + phases["forward"])
            yield from self.ctx.phase("backward")
            yield from launch_ops(self.ctx, phases["backward"])
            yield from self.ctx.phase("update")
            yield from launch_ops(self.ctx, phases["update"])
            yield from self.ctx.synchronize()
            self.ctx.end_request()
            self._flush_errors()
            if not self._healthy():
                self._record_failed()
                return
            self.stats.records.append(RequestRecord(start, start, self.sim.now))
            if self.ctx.tracer.enabled:
                self.ctx.tracer.request(self.ctx.client_id, start, start)
            self._record_served()
