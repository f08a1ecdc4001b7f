"""Client-side CUDA-runtime facade.

A :class:`ClientContext` is what a DNN framework "process" holds: it
issues kernels and memory ops exactly as PyTorch issues CUDA runtime
calls, and every call is intercepted by the active backend (Figure 5 in
the paper).  Blocking semantics follow §5.1.3:

* ``cudaMemcpy`` / ``cudaMemset``  — the client blocks until completion;
* ``cudaMemcpyAsync``              — the client continues immediately;
* ``cudaMalloc`` / ``cudaFree``    — device-synchronizing;
* kernel launches                  — asynchronous.

Error semantics mirror real CUDA: a failed op's completion signal
carries a :class:`repro.gpu.errors.CudaError` instead of raising.  A
*sticky* error (faulting kernel, failed transfer) poisons the context —
every subsequent op completes immediately with ``CONTEXT_POISONED``
until :meth:`ClientContext.reset` — while non-sticky errors
(``cudaMalloc`` OOM) leave the context usable so callers can retry.

All methods are generators to be driven with ``yield from`` inside a
simulated process; each consumes the host-side launch cost first.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.gpu.errors import CudaError, CudaErrorCode
from repro.kernels.kernel import KernelOp, MemoryOp, MemoryOpKind
from repro.sim.process import Signal

from .backend import Backend, Op
from .host import HostThread

__all__ = ["ClientContext"]

# Prune already-triggered completion signals once the outstanding list
# exceeds this length, so long-running clients don't accumulate every
# signal between synchronize() calls.  After a prune the next one waits
# until the list doubles past the survivors, so a client with many live
# ops is not rescanned on every launch.
_PRUNE_THRESHOLD = 32


class ClientContext:
    """One client job's handle onto a backend."""

    def __init__(
        self,
        backend: Backend,
        client_id: str,
        host: HostThread,
        high_priority: bool = False,
        kind: str = "inference",
    ):
        self.backend = backend
        self.client_id = client_id
        self.host = host
        # Captured at construction: the backend gets its tracer through
        # BackendOptions when it is built.
        self.tracer = backend.tracer
        self.info = backend.register_client(client_id, high_priority, kind)
        self._outstanding: List[Signal] = []
        self._prune_at = _PRUNE_THRESHOLD
        self.ops_issued = 0
        self.closed = False
        # Sticky-error state (None while healthy).
        self._error: Optional[CudaError] = None
        # Every error this context ever observed (for the error ledger).
        self.errors: List[CudaError] = []
        # Hooks invoked after each issued op with the running op count
        # (the fault injector's kill-after-op-N trigger).
        self._op_hooks: List[Callable[[int], None]] = []
        # Whether a backend request window is open (begin_request was
        # forwarded and end_request not yet called).
        self._in_request = False

    # ------------------------------------------------------------------
    # Error state
    # ------------------------------------------------------------------
    @property
    def in_request(self) -> bool:
        """True while a begin_request/end_request window is open."""
        return self._in_request

    @property
    def poisoned(self) -> bool:
        """True while the context holds a sticky error."""
        return self._error is not None

    @property
    def last_error(self) -> Optional[CudaError]:
        return self.errors[-1] if self.errors else None

    @property
    def sticky_error(self) -> Optional[CudaError]:
        return self._error

    def reset(self) -> None:
        """cudaDeviceReset analog: clear the sticky error so the client
        can issue work again.  Error history is retained."""
        self._error = None
        self._outstanding = []

    def close(self, error: Optional[CudaError] = None) -> None:
        """Tear the client down: deregister from the backend (draining
        its queue, destroying its stream, freeing its allocations) and
        refuse all further ops.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        if self._error is None:
            self._error = error or CudaError(
                CudaErrorCode.CLIENT_KILLED,
                f"context {self.client_id} closed",
                client_id=self.client_id,
            )
        if self.client_id in self.backend.clients:
            self.backend.deregister_client(self.client_id)

    def add_op_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callback invoked with the op count after each issue."""
        self._op_hooks.append(hook)

    def _observe_completion(self, sig: Signal) -> None:
        if sig.error is None:
            return
        self.errors.append(sig.error)
        if sig.error.sticky and self._error is None:
            self._error = sig.error

    def _rejected(self) -> Signal:
        """An immediately-completed signal carrying the sticky error."""
        cause = self._error
        done = Signal()
        done.trigger(None, error=CudaError(
            CudaErrorCode.CONTEXT_POISONED,
            f"context poisoned by {cause.code.value}" if cause else "context closed",
            client_id=self.client_id,
            time=None,
        ))
        return done

    # ------------------------------------------------------------------
    # Launch primitives
    # ------------------------------------------------------------------
    def _issue(self, op: Op) -> Generator:
        """Host cost + backend submit; returns the completion signal.

        On a closed or poisoned context the op is not submitted at all:
        it completes immediately with an error status, as subsequent
        calls do in real CUDA after context corruption.
        """
        if self.closed or self.poisoned:
            return self._rejected()
        if self.tracer.enabled:
            # Submit is stamped before the admission gate and launch
            # cost: backpressure stalls and host time belong to the
            # request's queue component, not its execution.
            self.tracer.op_submit(self.client_id, op.seq, op.name,
                                  op.is_kernel)
        gate = self.backend.admission_gate(self.client_id)
        if gate is not None and not gate.triggered:
            # Backpressure: the backend's bounded queue is full and this
            # client's policy is to block until it drains (DESIGN.md
            # §6.2).  The stall happens before the launch cost, exactly
            # where a real runtime call would block in the interceptor.
            yield gate
            if self.closed or self.poisoned:
                return self._rejected()
        yield from self.host.launch_cost()
        if self.closed or self.poisoned:
            # Poisoned while paying the launch cost (e.g. an async
            # failure landed): reject without submitting.
            return self._rejected()
        op.client_id = self.client_id
        done = self.backend.submit(self.client_id, op)
        self.ops_issued += 1
        done.add_callback(self._observe_completion)
        if len(self._outstanding) > self._prune_at:
            self._outstanding = [s for s in self._outstanding if not s.triggered]
            self._prune_at = max(_PRUNE_THRESHOLD, 2 * len(self._outstanding))
        self._outstanding.append(done)
        for hook in list(self._op_hooks):
            hook(self.ops_issued)
        return done

    def launch_kernel(self, op: KernelOp) -> Generator:
        """Asynchronous kernel launch (cudaLaunchKernel)."""
        done = yield from self._issue(op)
        return done

    def memcpy(self, nbytes: int, kind: MemoryOpKind, blocking: bool = True) -> Generator:
        """cudaMemcpy (blocking) / cudaMemcpyAsync (blocking=False)."""
        if not kind.is_transfer:
            raise ValueError(f"{kind} is not a transfer")
        op = MemoryOp(kind=kind, nbytes=nbytes, blocking=blocking)
        done = yield from self._issue(op)
        if blocking:
            yield done
        return done

    def memset(self, nbytes: int) -> Generator:
        """cudaMemset — blocking."""
        op = MemoryOp(kind=MemoryOpKind.MEMSET, nbytes=nbytes, blocking=True)
        done = yield from self._issue(op)
        yield done
        return done

    def malloc(self, nbytes: int) -> Generator:
        """cudaMalloc — device-synchronizing and blocking.

        OOM does not raise: the returned signal's ``error`` carries a
        non-sticky ``OUT_OF_MEMORY`` status the caller may retry on.
        """
        op = MemoryOp(kind=MemoryOpKind.MALLOC, nbytes=nbytes, blocking=True)
        done = yield from self._issue(op)
        yield done
        return done

    def free(self, nbytes: int) -> Generator:
        """cudaFree — device-synchronizing and blocking."""
        op = MemoryOp(kind=MemoryOpKind.FREE, nbytes=nbytes, blocking=True)
        done = yield from self._issue(op)
        yield done
        return done

    # ------------------------------------------------------------------
    # Synchronization and request boundaries
    # ------------------------------------------------------------------
    def synchronize(self) -> Generator:
        """Wait for every op this client has issued (cudaStreamSynchronize)."""
        pending = [s for s in self._outstanding if not s.triggered]
        self._outstanding = []
        for signal in pending:
            yield signal

    def begin_request(self, deadline: Optional[float] = None) -> Generator:
        """Request/iteration start; may block under temporal sharing.

        ``deadline`` (absolute simulated time, None = no SLO) is
        forwarded to the backend so it can account deadline misses.
        """
        if self.closed or self.poisoned:
            return
        gate = self.backend.begin_request(self.client_id, deadline)
        self._in_request = True
        if gate is not None:
            yield gate

    def end_request(self) -> None:
        # Forward even when poisoned mid-request: backends with
        # request-scoped state (temporal sharing's GPU lock) must be
        # released, or the dead client wedges every survivor.
        if not self._in_request:
            return
        self._in_request = False
        if self.closed or self.client_id not in self.backend.clients:
            return
        self.backend.end_request(self.client_id)

    def phase(self, name: str) -> Generator:
        """Intra-iteration phase boundary (forward / backward / update)."""
        if self.closed or self.poisoned:
            return
        gate = self.backend.phase_marker(self.client_id, name)
        if gate is not None:
            yield gate
