"""Spatial-sharing baselines built on direct stream submission.

* GPU Streams — every client is a thread of one process submitting to
  its own default-priority stream; launches contend on the Python GIL.
* Priority Streams — GPU Streams plus a high-priority CUDA stream for
  the high-priority job (one rung of the Figure-14 ablation ladder).
* MPS — every client is its own *process* (no shared GIL), all streams
  effectively default priority across processes; full spatial sharing
  with no interference awareness.
"""

from __future__ import annotations

from repro.runtime.direct import DirectStreamBackend

__all__ = ["StreamsBackend", "PriorityStreamsBackend", "MpsBackend"]


class StreamsBackend(DirectStreamBackend):
    """Multi-threaded clients, one default-priority stream each."""

    name = "streams"


class PriorityStreamsBackend(DirectStreamBackend):
    """GPU Streams with a high-priority stream for the HP job."""

    name = "priority-streams"
    use_priorities = True


class MpsBackend(DirectStreamBackend):
    """NVIDIA MPS: process-per-client spatial sharing.

    Cross-process stream priorities are not honoured under MPS
    (see §6.4's note that priorities are unavailable in MPS mode), so
    all streams are default priority; clients avoid GIL contention.
    """

    name = "mps"
    process_per_client = True
