"""Baseline GPU-sharing backends evaluated against Orion (paper §6.1)."""

from repro.runtime.direct import DedicatedBackend

from .reef import REEF_QUEUE_SIZE, ReefBackend
from .spatial import MpsBackend, PriorityStreamsBackend, StreamsBackend
from .temporal import TemporalBackend
from .ticktock import TickTockBackend

__all__ = [
    "TemporalBackend",
    "StreamsBackend",
    "PriorityStreamsBackend",
    "MpsBackend",
    "ReefBackend",
    "REEF_QUEUE_SIZE",
    "TickTockBackend",
    "DedicatedBackend",
]
