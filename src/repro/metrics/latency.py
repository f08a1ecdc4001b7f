"""Latency digests: the percentile summaries the paper reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.workloads.clients import RequestRecord

__all__ = ["LatencySummary", "summarize_latencies", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy 'linear'), q in [0, 100]."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q out of range: {q}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 + moments for one client's request latencies."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def ratio_to(self, other: "LatencySummary") -> float:
        """p99 inflation over a reference (e.g. the Ideal baseline)."""
        if other.p99 <= 0:
            raise ValueError("reference p99 must be positive")
        return self.p99 / other.p99

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(0, float("nan"), float("nan"), float("nan"),
                   float("nan"), float("nan"))

    @classmethod
    def of(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarize raw latency samples (none: the all-NaN summary)."""
        if not values:
            return cls.empty()
        arr = np.asarray(values, dtype=float)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            max=float(arr.max()),
        )


def summarize_latencies(records: Iterable[RequestRecord],
                        after: float = 0.0) -> LatencySummary:
    """Summarize request latencies for records arriving at/after ``after``."""
    return LatencySummary.of([r.latency for r in records if r.arrival >= after])
