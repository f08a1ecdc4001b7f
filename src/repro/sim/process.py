"""Generator-based simulated processes.

A process is a Python generator that yields *awaitables*:

* ``Timeout(delay)`` — resume after ``delay`` simulated seconds.
* ``Signal`` — resume when another process triggers the signal; a
  triggered signal carries an optional value which becomes the result of
  the ``yield``.
* ``AllOf([...])`` — resume when every child awaitable completes.
* ``AnyOf([...])`` — resume when the first child completes.

This mirrors the subset of SimPy semantics the system needs, without
pulling in a dependency.  Processes themselves are awaitable: yielding a
:class:`Process` waits for it to finish and returns its return value.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from .engine import Simulator, SimulationError

__all__ = ["Timeout", "Signal", "AllOf", "AnyOf", "Process", "Interrupted", "spawn"]


class Interrupted(Exception):
    """Thrown into a process when it is interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Awaitable:
    """Base class for things a process may yield.

    Completion optionally carries an ``error`` payload (CUDA-style
    status reporting): the awaitable still *completes* — waiters resume
    normally — but holders can inspect ``.error`` to learn the op
    failed.  ``error`` is ``None`` on success.
    """

    __slots__ = ("_callbacks", "triggered", "value", "error")

    def __init__(self):
        self._callbacks: list = []
        self.triggered = False
        self.value: Any = None
        self.error: Any = None

    @property
    def ok(self) -> bool:
        """True once triggered without an error payload."""
        return self.triggered and self.error is None

    def add_callback(self, callback) -> None:
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self, value: Any = None, error: Any = None) -> None:
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        self.error = error
        # Nothing is appended once triggered (add_callback runs late
        # callbacks at once), so an empty tuple replaces the list.
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    def _start(self, sim: Simulator) -> None:
        """Hook invoked when a process first waits on this awaitable.

        The base implementation is a no-op so the process core can call
        it unconditionally instead of isinstance-dispatching per yield.
        """


class Timeout(_Awaitable):
    """Completes after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        # Inlined _Awaitable.__init__, as in Signal: one Timeout per
        # host-side launch cost.
        self._callbacks = []
        self.triggered = False
        self.value = None
        self.error = None
        self.delay = delay

    def _start(self, sim: Simulator) -> None:
        sim.call_later(self.delay, self._fire)


class Signal(_Awaitable):
    """One-shot event triggered explicitly via :meth:`trigger`."""

    __slots__ = ("_sim",)

    def __init__(self, sim: Optional[Simulator] = None):
        # Inlined _Awaitable.__init__: signals are created per submitted
        # op, so the extra super() frame is measurable.
        self._callbacks = []
        self.triggered = False
        self.value = None
        self.error = None
        self._sim = sim

    # ``trigger(value, error)`` is exactly ``_fire``; alias it to drop a
    # call frame on the completion hot path.
    trigger = _Awaitable._fire

    def _start(self, sim: Simulator) -> None:
        self._sim = sim


class AllOf(_Awaitable):
    """Completes when all children complete; value is the list of child values."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[_Awaitable]):
        super().__init__()
        self.children = list(children)

    def _start(self, sim: Simulator) -> None:
        if not self.children:
            sim.call_soon(lambda: self._fire([]))
            return
        remaining = {"n": len(self.children)}

        def on_child(_child):
            remaining["n"] -= 1
            if remaining["n"] == 0:
                first_error = next(
                    (c.error for c in self.children if c.error is not None), None
                )
                self._fire([c.value for c in self.children], first_error)

        for child in self.children:
            if isinstance(child, (Timeout, AllOf, AnyOf)):
                child._start(sim)
            child.add_callback(on_child)


class AnyOf(_Awaitable):
    """Completes when the first child completes; value is that child's value."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[_Awaitable]):
        super().__init__()
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf requires at least one child")

    def _start(self, sim: Simulator) -> None:
        def on_child(child):
            self._fire(child.value, child.error)

        for child in self.children:
            if isinstance(child, (Timeout, AllOf, AnyOf)):
                child._start(sim)
            child.add_callback(on_child)


class Process(_Awaitable):
    """A running generator coroutine inside the simulator."""

    __slots__ = ("sim", "name", "_generator", "_waiting_on", "_interrupt_pending")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "process"):
        super().__init__()
        self.sim = sim
        self.name = name
        self._generator = generator
        self._waiting_on: Optional[_Awaitable] = None
        self._interrupt_pending: Optional[Interrupted] = None
        sim.call_soon(self._resume_first)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its current yield."""
        if self.triggered:
            return
        self._interrupt_pending = Interrupted(cause)
        waiting, self._waiting_on = self._waiting_on, None
        # Resume immediately (in a fresh event so we never reenter the
        # generator from inside its own stack frame).
        self.sim.call_soon(lambda: self._advance(None, waiting))

    def _resume_first(self) -> None:
        self._advance(None, None)

    def _on_awaitable_done(self, awaitable: _Awaitable) -> None:
        if self._waiting_on is not awaitable:
            return  # interrupted while waiting; stale wakeup
        self._waiting_on = None
        self._advance(awaitable.value, awaitable)

    def _advance(self, send_value: Any, _source) -> None:
        if self.triggered:
            return
        try:
            if self._interrupt_pending is not None:
                exc, self._interrupt_pending = self._interrupt_pending, None
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self._fire(stop.value)
            return
        except Interrupted:
            # Process chose not to handle the interrupt: it dies quietly.
            self._fire(None)
            return
        if not isinstance(target, _Awaitable):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected an awaitable"
            )
        self._waiting_on = target
        target._start(self.sim)
        if target.triggered:
            # Resume via a fresh zero-delay event rather than recursing:
            # long chains of already-complete awaitables (e.g. a burst
            # of uncontended lock acquisitions) must not grow the stack.
            self.sim.call_soon(lambda: self._on_awaitable_done(target))
        else:
            target._callbacks.append(self._on_awaitable_done)


def spawn(sim: Simulator, generator: Generator, name: str = "process") -> Process:
    """Start ``generator`` as a process on ``sim``."""
    return Process(sim, generator, name=name)
