"""FIFO resources for simulated processes (mutex with queued waiters)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .engine import Simulator
from .process import Signal

__all__ = ["FifoLock"]


class FifoLock:
    """A fair mutex: acquire() returns a signal fired when the lock is held.

    Supports priority classes: waiters with a larger ``priority`` value
    are granted the lock before lower-priority waiters, FIFO within a
    class.  This is the substrate for the temporal-sharing baseline's
    "prioritize the high-priority job's requests" behaviour.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._held = False
        # (priority, grant signal), highest priority first, FIFO
        # within a priority.
        self._waiters: Deque[tuple[int, Signal]] = deque()
        self.holder: Optional[str] = None

    @property
    def locked(self) -> bool:
        return self._held

    def acquire(self, priority: int = 0, holder: str = "") -> Signal:
        """Request the lock; the returned signal fires when granted."""
        granted = Signal(self.sim)
        if not self._held and not self._waiters:
            self._held = True
            self.holder = holder
            granted.trigger()
            return granted
        # Ordered insert: behind every waiter of the same or a higher
        # priority, ahead of every lower one.
        waiters = self._waiters
        index = len(waiters)
        while index and waiters[index - 1][0] < priority:
            index -= 1
        waiters.insert(index, (priority, granted))
        return granted

    def cancel(self, granted: Signal) -> bool:
        """Withdraw a not-yet-granted acquire (the waiter died).  Returns
        True if the waiter was found and removed; a grant that already
        fired cannot be cancelled — release the lock instead."""
        for waiter in self._waiters:
            if waiter[1] is granted:
                self._waiters.remove(waiter)
                return True
        return False

    def release(self) -> None:
        if not self._held:
            raise RuntimeError("release of a lock that is not held")
        if self._waiters:
            _, granted = self._waiters.popleft()
            granted.trigger()
        else:
            self._held = False
            self.holder = None
