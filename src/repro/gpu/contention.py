"""Interference model for co-resident kernels.

This module is the simulator's substitute for real-silicon contention
and is calibrated against the paper's own Table 2 microbenchmark (see
DESIGN.md §3).  Given the set of kernels currently resident on the
device, it computes each kernel's *progress rate*: 1.0 means the kernel
advances at its solo speed; 0.5 means it takes twice as long.

Model
-----
Each kernel k carries solo demands ``c_k`` (fraction of peak compute
throughput), ``m_k`` (fraction of peak memory bandwidth) and ``s_k``
(SM footprint).  For the resident set, the per-resource totals are

    D_c = sum(c_j),   D_m = sum(m_j),   D_sm = sum(s_j) / num_sms

A kernel's slowdown is the worst of four contention mechanisms:

    slowdown_k = max(1, compute_term, memory_term, sm_term, residency_term)

    compute_term  = (w_c * D'_c)^ALPHA_C        # ALU/issue bandwidth
    memory_term   = (w_m * D'_m)^ALPHA_M        # DRAM bandwidth
    sm_term       = 1 + max(0, D_sm - 1) * GAMMA * similarity_k
    residency_term= prod_j (1 + BETA * similarity_kj * s_j / num_sms)

* compute/memory terms: dependence is weighted by the kernel's own
  profile (``w = demand / dominant demand``) and contention is
  priority-discounted (the hardware issues warps from higher-priority
  streams first).
* sm_term models *thread-block slot timesharing*: when resident kernels
  demand more SMs than exist, their blocks interleave and each kernel
  effectively timeshares the machine (GAMMA = 1 is proportional
  timesharing).  Opposite-profile co-runners hide in each other's
  stall cycles, so the term is scaled by profile similarity — the
  physical effect Orion exploits.  Block slots are not preemptible, so
  stream priority does NOT discount this term.
* residency_term is a co-residency penalty (L2 / DRAM row-buffer /
  scheduler collisions) for similar-profile neighbours even under
  capacity.

Constants are fit to reproduce Table 2 of the paper: Conv2d+Conv2d
1.0x (two machine-filling compute kernels timeshare into sequential-
equivalent time), BN2d+BN2d ~1.1x, Conv2d+BN2d ~1.45x speedup over
sequential execution (pinned by ``tests/test_calibration.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.kernels.kernel import KernelOp

__all__ = ["ContentionModel", "ContentionParams", "profile_similarity"]

#: Resident sets each ContentionModel remembers the rates of; the memo
#: is cleared when it fills (DESIGN.md §6.10).
RATES_MEMO_SIZE = 1024


@dataclass(frozen=True)
class ContentionParams:
    """Tunable constants of the interference model (see module docs)."""

    alpha_compute: float = 1.00
    alpha_memory: float = 1.22
    # Weight of SM block-slot timesharing (1.0 = proportional).
    gamma_sm: float = 1.00
    # Co-residency penalty per similar-profile co-runner (see module docs).
    beta_coresidency: float = 0.15
    # Relative warp-issue weight of a priority step: contention caused
    # by a stream ``p`` levels below is discounted by this base.
    priority_weight_base: float = 4.0

    def __post_init__(self):
        if self.alpha_compute < 1 or self.alpha_memory < 1:
            raise ValueError("contention exponents must be >= 1")
        if self.gamma_sm < 0 or self.beta_coresidency < 0:
            raise ValueError("gamma_sm and beta_coresidency must be >= 0")
        if self.priority_weight_base < 1:
            raise ValueError("priority_weight_base must be >= 1")


def profile_similarity(a: KernelOp, b: KernelOp) -> float:
    """Cosine similarity of two kernels' (compute, memory) demand vectors.

    1.0 for identical profiles (worst SM sharing), near 0 for fully
    opposite profiles (best SM sharing).
    """
    norm_a = math.hypot(a.compute_util, a.memory_util)
    norm_b = math.hypot(b.compute_util, b.memory_util)
    if norm_a == 0 or norm_b == 0:
        return 0.0
    dot = a.compute_util * b.compute_util + a.memory_util * b.memory_util
    return min(1.0, dot / (norm_a * norm_b))


def _pair_similarity(cache: Dict[tuple, float], a: KernelOp, b: KernelOp) -> float:
    """Memoized :func:`profile_similarity` (symmetric) for one rates() call."""
    key = (a.seq, b.seq) if a.seq < b.seq else (b.seq, a.seq)
    sim = cache.get(key)
    if sim is None:
        sim = cache[key] = profile_similarity(a, b)
    return sim


class ContentionModel:
    """Computes progress rates for a resident kernel set."""

    def __init__(self, num_sms: int, params: ContentionParams = ContentionParams()):
        if num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        self.num_sms = num_sms
        self.params = params
        # Rates by position, keyed on the resident set's ordered
        # (compute, memory, sms, priority) tuples: the only inputs of
        # the model, so equal keys give bit-identical rates.
        self._memo: Dict[Tuple, List[float]] = {}

    def rates(
        self, kernels: Sequence[KernelOp], priorities: Dict[int, int]
    ) -> Dict[int, float]:
        """Progress rate per kernel ``seq`` for the resident set.

        ``priorities`` maps kernel ``seq`` to its stream priority
        (larger = more important; 0 = default).  Results are memoized
        per resident set (the device keeps revisiting the same few).
        """
        if not kernels:
            return {}
        key = tuple([(k.compute_util, k.memory_util, k.sm_needed,
                      priorities.get(k.seq, 0)) for k in kernels])
        memo = self._memo
        rates = memo.get(key)
        if rates is None:
            if len(memo) >= RATES_MEMO_SIZE:
                memo.clear()
            rates = memo[key] = self._compute_rates(kernels, priorities)
        return {k.seq: rate for k, rate in zip(kernels, rates)}

    def _compute_rates(self, kernels: Sequence[KernelOp],
                       priorities: Dict[int, int]) -> List[float]:
        """The model itself: one rate per kernel, in ``kernels`` order.

        A co-runner ``j`` of priority ``p_j`` contributes its demand
        scaled by ``2 w_j / (w_k + w_j)`` with ``w = base**p``: equal
        priorities contend fully, a higher-priority kernel sees
        discounted interference and a lower-priority one amplified
        interference, roughly conserving total throughput.
        """
        params = self.params
        alpha_c = params.alpha_compute
        alpha_m = params.alpha_memory
        if len(kernels) == 1:
            # Solo kernel: no co-runners, so the SM and residency terms
            # are identically 1.0 and the pair loops vanish.  The float
            # expressions are verbatim copies of the general path so the
            # result is bit-identical.
            k = kernels[0]
            dominant = max(k.compute_util, k.memory_util, 1e-12)
            w_c = k.compute_util / dominant
            w_m = k.memory_util / dominant
            compute_term = (w_c * k.compute_util) ** alpha_c
            memory_term = (w_m * k.memory_util) ** alpha_m
            slowdown = max(1.0, compute_term, memory_term)
            return [1.0 / slowdown]
        gamma = params.gamma_sm
        beta = params.beta_coresidency
        base = params.priority_weight_base
        num_sms = self.num_sms
        sm_total = sum(k.sm_needed for k in kernels) / num_sms
        sm_excess = max(0.0, sm_total - 1.0)
        # Per-kernel priority weight (base**priority) computed once per
        # kernel instead of twice per ordered pair.
        weights = [base ** priorities.get(k.seq, 0) for k in kernels]
        # profile_similarity is symmetric and appears in both the SM and
        # residency terms; memoize per unordered pair for this call.
        sim_cache: Dict[tuple, float] = {}
        result: List[float] = []
        for i, k in enumerate(kernels):
            w_own = weights[i]
            demand_c = k.compute_util
            demand_m = k.memory_util
            for idx, j in enumerate(kernels):
                if j.seq == k.seq:
                    continue
                w_other = weights[idx]
                factor = 2.0 * w_other / (w_own + w_other)
                demand_c += j.compute_util * factor
                demand_m += j.memory_util * factor
            dominant = max(k.compute_util, k.memory_util, 1e-12)
            w_c = k.compute_util / dominant
            w_m = k.memory_util / dominant
            compute_term = (w_c * demand_c) ** alpha_c
            memory_term = (w_m * demand_m) ** alpha_m
            sm_term = 1.0
            if sm_excess > 0 and gamma > 0:
                sm_weight = sum(j.sm_needed for j in kernels if j.seq != k.seq)
                if sm_weight > 0:
                    similarity = sum(
                        _pair_similarity(sim_cache, k, j) * j.sm_needed
                        for j in kernels
                        if j.seq != k.seq
                    ) / sm_weight
                    sm_term = 1.0 + gamma * sm_excess * similarity
            residency_term = 1.0
            if beta > 0:
                for j in kernels:
                    if j.seq == k.seq:
                        continue
                    share = min(1.0, j.sm_needed / num_sms)
                    residency_term *= 1.0 + (
                        beta * _pair_similarity(sim_cache, k, j) * share
                    )
            slowdown = max(1.0, compute_term, memory_term, sm_term, residency_term)
            result.append(1.0 / slowdown)
        return result

    def device_utilization(
        self, kernels: Sequence[KernelOp], rates: Dict[int, float]
    ) -> tuple[float, float, float]:
        """Instantaneous (compute, memory-bw, sm-busy) device utilization.

        A kernel progressing at rate r consumes its solo resource
        demands scaled by r (it retires FLOPs/bytes proportionally
        slower under contention).
        """
        compute = sum(k.compute_util * rates.get(k.seq, 1.0) for k in kernels)
        memory = sum(k.memory_util * rates.get(k.seq, 1.0) for k in kernels)
        sm_busy = sum(k.sm_needed for k in kernels) / self.num_sms
        return min(1.0, compute), min(1.0, memory), min(1.0, sm_busy)
