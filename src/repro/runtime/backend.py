"""Backend interface: where intercepted GPU operations go.

A *backend* is one GPU-sharing technique.  Clients never talk to
streams or devices directly; they register with a backend and launch
ops through a :class:`repro.runtime.client.ClientContext`.  The paper's
baselines (§6.1) and Orion itself are all backends over the same
simulated device, which is what makes the comparison apples-to-apples.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Union

from repro.gpu.device import GpuDevice
from repro.gpu.errors import CudaError, CudaErrorCode
from repro.kernels.kernel import KernelOp, MemoryOp
from repro.sim.engine import Simulator
from repro.sim.process import Signal
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import NULL_TRACER

__all__ = ["Backend", "BackendOptions", "ClientInfo", "SoftwareQueue", "Op",
           "UnknownClientError"]

Op = Union[KernelOp, MemoryOp]


class UnknownClientError(KeyError):
    """An op or lifecycle call referenced a client id the backend does
    not know — never registered, or already deregistered."""

    def __init__(self, client_id: str, backend_name: str):
        super().__init__(client_id)
        self.client_id = client_id
        self.backend_name = backend_name

    def __str__(self) -> str:
        return (f"unknown or deregistered client {self.client_id!r} "
                f"on backend {self.backend_name!r}")


@dataclass
class BackendOptions:
    """Construction-time wiring for a backend: the run's tracer and
    metrics registry, in place *before* any client registers and
    captures them."""

    tracer: Optional[object] = None
    metrics: Optional[MetricsRegistry] = None


class ClientInfo:
    """Registration record for one client job."""

    __slots__ = ("client_id", "priority", "kind", "high_priority")

    def __init__(self, client_id: str, high_priority: bool, kind: str):
        if kind not in ("inference", "training"):
            raise ValueError(f"unknown job kind {kind!r}")
        self.client_id = client_id
        self.high_priority = high_priority
        self.kind = kind
        self.priority = 1 if high_priority else 0


class SoftwareQueue:
    """Per-client op queue in front of the GPU (paper Figure 5).

    The scheduler pops ops; clients receive per-op completion signals so
    blocking semantics survive the indirection.

    Overload protection (DESIGN.md §6.2): ``max_depth`` bounds the
    queue.  The queue itself never refuses a push — the owning backend
    checks :attr:`full` and applies its per-client policy (reject with
    ``QUEUE_FULL``, or block the client on :meth:`wait_for_room`).
    Room waiters are released with hysteresis: only once the depth
    drains back to ``high_water`` (default half of ``max_depth``), so a
    blocked client does not thrash on every single pop.
    """

    def __init__(self, sim: Simulator, client_id: str,
                 max_depth: Optional[int] = None,
                 high_water: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=NULL_TRACER):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if high_water is None and max_depth is not None:
            high_water = max(1, max_depth // 2)
        if high_water is not None and max_depth is not None \
                and not 0 < high_water <= max_depth:
            raise ValueError("high_water must be in (0, max_depth]")
        self.sim = sim
        self.client_id = client_id
        self.max_depth = max_depth
        self.high_water = high_water
        self.tracer = tracer
        self._items: Deque[tuple[Op, Signal]] = deque()
        # Depth/admit/reject accounting lives on MetricsRegistry
        # instruments; a private registry keeps standalone queues (unit
        # tests, ad-hoc construction) on the same code path.
        registry = registry if registry is not None else MetricsRegistry()
        self._m_enqueued = registry.counter("queue_enqueued_total",
                                            client=client_id)
        self._m_rejected = registry.counter("queue_rejected_total",
                                            client=client_id)
        self._m_depth = registry.gauge("queue_depth", client=client_id)
        self._room_waiters: list[Signal] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def enqueued_total(self) -> int:
        return self._m_enqueued.value

    @property
    def rejected_total(self) -> int:
        return self._m_rejected.value

    @property
    def max_depth_seen(self) -> int:
        return self._m_depth.max_seen

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.max_depth is not None and len(self._items) >= self.max_depth

    def push(self, op: Op) -> Signal:
        done = Signal(self.sim)
        self._items.append((op, done))
        self._m_enqueued.value += 1
        self._m_depth.set(len(self._items))
        if self.tracer.enabled:
            self.tracer.op_enqueue(self.client_id, op.seq, len(self._items))
        return done

    def reject(self) -> Signal:
        """Count one refused push and return its completion: already
        triggered with the retryable ``QUEUE_FULL`` status."""
        self._m_rejected.inc()
        done = Signal(self.sim)
        done.trigger(None, error=CudaError(
            CudaErrorCode.QUEUE_FULL,
            f"software queue full (depth {len(self._items)}/{self.max_depth})",
            client_id=self.client_id, time=self.sim.now))
        return done

    def peek(self) -> Optional[Op]:
        return self._items[0][0] if self._items else None

    def pop(self) -> tuple[Op, Signal]:
        if not self._items:
            raise IndexError(f"pop from empty software queue {self.client_id!r}")
        item = self._items.popleft()
        self._m_depth.value = len(self._items)
        if self.tracer.enabled:
            self.tracer.op_schedule(self.client_id, item[0].seq)
        self._release_room()
        return item

    def drain(self) -> list[tuple[Op, Signal]]:
        """Remove and return every queued (op, signal) pair — used when
        the owning client dies so pending signals can be errored."""
        items = list(self._items)
        self._items.clear()
        self._m_depth.value = 0
        # A drained queue has room by definition; waiters re-check their
        # context health after waking (the owner is usually dead here).
        waiters, self._room_waiters = self._room_waiters, []
        for waiter in waiters:
            waiter.trigger()
        return items

    def wait_for_room(self) -> Signal:
        """Signal that fires once the queue has drained to its
        high-water mark (immediately if it is not full)."""
        signal = Signal(self.sim)
        if not self.full:
            signal.trigger()
        else:
            self._room_waiters.append(signal)
        return signal

    def _release_room(self) -> None:
        if not self._room_waiters:
            return
        threshold = self.high_water if self.high_water is not None else 0
        if self.max_depth is None or len(self._items) <= threshold:
            waiters, self._room_waiters = self._room_waiters, []
            for waiter in waiters:
                waiter.trigger()

    def snapshot(self) -> dict:
        """Telemetry: current and high-water depth plus admit/reject
        counters (stable keys across every backend)."""
        return {
            "depth": len(self._items),
            "enqueued_total": self.enqueued_total,
            "max_depth_seen": self.max_depth_seen,
            "rejected_total": self.rejected_total,
            "max_depth": self.max_depth,
        }


class Backend(abc.ABC):
    """One GPU-sharing technique."""

    #: Human-readable baseline name (matches the paper's figures).
    name: str = "abstract"
    #: Whether clients run as threads of one process (share a GIL).
    process_per_client: bool = False

    def __init__(self, sim: Simulator, options: Optional[BackendOptions] = None):
        self.sim = sim
        self.options = options if options is not None else BackendOptions()
        self.clients: Dict[str, ClientInfo] = {}
        # Registry of software queues for uniform depth telemetry; a
        # backend that queues ops creates queues via _new_queue.
        self._software_queues: Dict[str, SoftwareQueue] = {}
        # Telemetry: off by default (nil-tracer fast path).  A run's
        # tracer/registry come in through BackendOptions, so they are in
        # place before clients register and capture them.
        self.tracer = self.options.tracer \
            if self.options.tracer is not None else NULL_TRACER
        self.metrics = self.options.metrics \
            if self.options.metrics is not None else MetricsRegistry()
        # Software-queue scheduler state (Orion, REEF): best-effort
        # clients in round-robin order, and a guard that is True while a
        # pass runs and before the first pass — wakes in either window
        # are dropped (see _wake_scheduler).
        self._be_order: List[str] = []
        self._rr_index = 0
        self._in_pass = True

    @abc.abstractmethod
    def register_client(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        """Register a job before it launches any ops."""

    @abc.abstractmethod
    def submit(self, client_id: str, op: Op) -> Signal:
        """Accept one op; the returned signal fires when it completes on
        the device."""

    def devices(self) -> List[GpuDevice]:
        """Devices this backend occupies (for cost accounting)."""
        raise NotImplementedError

    # --- optional hooks -------------------------------------------------
    def begin_request(self, client_id: str,
                      deadline: Optional[float] = None) -> Optional[Signal]:
        """Called at a request/iteration boundary.  A backend may return
        a signal the client must wait on before issuing work (temporal
        sharing's time-slice grant); None means proceed immediately.
        ``deadline`` is the request's absolute completion deadline in
        simulated seconds (None when the client has no SLO)."""
        return None

    def admission_gate(self, client_id: str) -> Optional[Signal]:
        """Backpressure hook, checked by the client before each op: a
        returned signal stalls the client until the backend has room
        (bounded software queue under the "block" overload policy).
        None means submit immediately."""
        return None

    def end_request(self, client_id: str) -> None:
        """Request/iteration finished (after the client synchronized)."""

    def phase_marker(self, client_id: str, phase: str) -> Optional[Signal]:
        """Called at intra-iteration phase boundaries ("forward",
        "backward", "update").  Tick-Tock gates here; others ignore."""
        return None

    def start(self) -> None:
        """Start any scheduler processes (called once before the run)."""

    def interception_overhead(self) -> float:
        """Per-op host-side overhead this backend adds (seconds)."""
        return 0.0

    def stats(self) -> Dict[str, object]:
        """Scheduler counters for run reports; empty for backends that
        keep none.  Each scenario kind reports a fixed subset."""
        return {}

    def client_info(self, client_id: str) -> ClientInfo:
        """Registration record for ``client_id``; raises
        :class:`UnknownClientError` for unregistered/deregistered ids."""
        try:
            return self.clients[client_id]
        except KeyError:
            raise UnknownClientError(client_id, self.name) from None

    def deregister_client(self, client_id: str) -> None:
        """Remove a (dead) client: its software queue is drained with
        pending signals errored, its stream destroyed, and its device
        allocations freed.  Idempotence is NOT provided — a second call
        raises :class:`UnknownClientError`."""
        info = self.client_info(client_id)
        self._deregister_cleanup(info)
        del self.clients[client_id]

    def _deregister_cleanup(self, info: ClientInfo) -> None:
        """Backend-specific teardown hook for :meth:`deregister_client`."""

    # --- software-queue scheduler (Orion, REEF) -------------------------
    def _start_scheduler(self) -> None:
        """Run the first scheduler pass as one zero-delay event.  Wakes
        before it fires are folded into it."""
        self.sim.call_soon(self._first_pass)

    def _first_pass(self) -> None:
        self._in_pass = False
        self._wake_scheduler()

    def _wake_scheduler(self) -> None:
        """Run one scheduler pass now, unless one is already running.

        A pass loops until nothing more can be forwarded, so a wake that
        arrives during it (a completion fired by its own submits, a
        client resumed by a queue pop) is dropped.  The guard is not
        reset if the pass raises: the error propagates out of the
        simulator and the scheduler stays down.
        """
        if not self._in_pass:
            self._in_pass = True
            self._scheduler_pass()
            self._in_pass = False

    def _scheduler_pass(self) -> None:
        """Forward queued ops until no client can make progress: every
        high-priority op, in order, then one launch attempt per
        best-effort client in round-robin order; repeat while anything
        moved."""
        progressed = True
        while progressed:
            progressed = self._forward_hp()
            order = self._be_order
            for offset in range(len(order)):
                client_id = order[(self._rr_index + offset) % len(order)]
                if self._try_launch_be(client_id):
                    self._rr_index = (self._rr_index + offset + 1) % len(order)
                    progressed = True

    def _forward_hp(self) -> bool:
        """Submit every queued high-priority op; True if any moved."""
        raise NotImplementedError

    def _try_launch_be(self, client_id: str) -> bool:
        """Launch ``client_id``'s head op if the policy allows it now."""
        raise NotImplementedError

    def _leave_rotation(self, client_id: str) -> None:
        """Remove a best-effort client from the round-robin order."""
        self._be_order.remove(client_id)
        self._rr_index = self._rr_index % len(self._be_order) \
            if self._be_order else 0

    def queue_telemetry(self) -> Dict[str, dict]:
        """Per-client software-queue depth snapshot (overload telemetry).

        Keys are stable across backends — ``depth``, ``enqueued_total``,
        ``max_depth_seen``, ``rejected_total``, ``max_depth`` — so
        overload tests can assert on queue growth uniformly.  Queues of
        deregistered clients are retained (their final stats matter for
        post-run accounting) until a successor re-registers the id.
        """
        return {client_id: queue.snapshot()
                for client_id, queue in sorted(self._software_queues.items())}

    def _new_queue(self, client_id: str, max_depth: Optional[int] = None,
                   high_water: Optional[int] = None) -> SoftwareQueue:
        """Create and register a software queue for ``client_id``."""
        queue = SoftwareQueue(self.sim, client_id, max_depth=max_depth,
                              high_water=high_water,
                              registry=self.metrics, tracer=self.tracer)
        self._software_queues[client_id] = queue
        return queue

    def _register(self, client_id: str, high_priority: bool, kind: str) -> ClientInfo:
        if client_id in self.clients:
            raise ValueError(f"duplicate client id {client_id!r}")
        info = ClientInfo(client_id, high_priority, kind)
        self.clients[client_id] = info
        return info
