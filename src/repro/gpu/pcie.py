"""PCIe copy engine.

Models host<->device transfers with per-direction bandwidth shared
equally among concurrent transfers, plus a fixed setup latency.  This
is the substrate behind ``cudaMemcpy``/``cudaMemcpyAsync`` and the §5.1.3
observation that memory operations consume CPU-GPU PCIe bandwidth
rather than SM resources.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.process import Signal

__all__ = ["PcieEngine", "PcieTransfer"]


class PcieTransfer:
    """One in-flight transfer."""

    __slots__ = ("nbytes", "remaining", "done", "started_at")

    def __init__(self, nbytes: int, done: Signal, started_at: float):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.done = done
        self.started_at = started_at


class _Channel:
    """One direction of the bus: equal-share bandwidth processor."""

    def __init__(self, sim: Simulator, bandwidth: float):
        self.sim = sim
        self.bandwidth = bandwidth
        self.transfers: list[PcieTransfer] = []
        self._last_update = 0.0
        self._completion: Optional[ScheduledEvent] = None
        self.bytes_moved = 0.0
        # A transfer is done when < 1ns of bus time remains; without a
        # bandwidth-relative epsilon, float residue (remaining bytes
        # whose drain time underflows the clock's resolution) would spin
        # the completion event forever at one timestamp.
        self._eps_bytes = max(1.0, bandwidth * 1e-9)

    def _rate(self) -> float:
        return self.bandwidth / max(1, len(self.transfers))

    def _advance(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self.transfers:
            rate = self._rate()
            for t in self.transfers:
                moved = min(t.remaining, rate * elapsed)
                t.remaining -= moved
                self.bytes_moved += moved
        self._last_update = now

    def _reschedule(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if not self.transfers:
            return
        rate = self._rate()
        soonest = min(t.remaining for t in self.transfers) / rate
        # Floor at 1ns so the event always advances the clock.
        self._completion = self.sim.call_in(max(soonest, 1e-9), self._on_completion)

    def _on_completion(self) -> None:
        self._advance()
        finished = [t for t in self.transfers if t.remaining <= self._eps_bytes]
        self.transfers = [t for t in self.transfers if t.remaining > self._eps_bytes]
        self._reschedule()
        for t in finished:
            t.done.trigger(self.sim.now)

    def add(self, transfer: PcieTransfer) -> None:
        self._advance()
        self.transfers.append(transfer)
        self._reschedule()


class PcieEngine:
    """Full-duplex PCIe bus with independent H2D and D2H channels."""

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 10e-6):
        if bandwidth <= 0:
            raise ValueError("PCIe bandwidth must be positive")
        if latency < 0:
            raise ValueError("PCIe latency must be >= 0")
        self.sim = sim
        self.latency = latency
        self._channels: Dict[str, _Channel] = {
            "h2d": _Channel(sim, bandwidth),
            "d2h": _Channel(sim, bandwidth),
        }

    def active_transfers(self, direction: str) -> int:
        return len(self._channels[direction].transfers)

    def bytes_moved(self, direction: str) -> float:
        return self._channels[direction].bytes_moved

    def start_transfer(self, nbytes: int, direction: str = "h2d") -> Signal:
        """Begin a transfer; returns a signal fired on completion."""
        if direction not in self._channels:
            raise ValueError(f"unknown PCIe direction {direction!r}")
        if nbytes < 0:
            raise ValueError("transfer size must be >= 0")
        done = Signal(self.sim)
        channel = self._channels[direction]
        if nbytes == 0:
            self.sim.call_later(self.latency, lambda: done.trigger(self.sim.now))
            return done
        transfer = PcieTransfer(nbytes, done, self.sim.now)
        # Setup latency before the transfer occupies the channel.
        self.sim.call_later(self.latency, lambda: channel.add(transfer))
        return done
