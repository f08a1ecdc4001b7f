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
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.kernels.kernel import KernelOp

__all__ = ["ContentionModel", "ContentionParams", "DemandKey", "demand_key",
           "profile_similarity"]

#: ``(compute_util, memory_util, sm_needed, stream priority)`` of one
#: resident kernel.
DemandKey = Tuple[float, float, int, int]

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


def demand_key(op: KernelOp, priority: int = 0) -> DemandKey:
    """The contention model's only inputs for one resident kernel."""
    return (op.compute_util, op.memory_util, op.sm_needed, priority)


def _similarity(c_a: float, m_a: float, c_b: float, m_b: float) -> float:
    norms = math.hypot(c_a, m_a) * math.hypot(c_b, m_b)
    if norms == 0:  # a zero demand vector, or one so small it underflows
        return 0.0
    dot = c_a * c_b + m_a * m_b
    return min(1.0, dot / norms)


def profile_similarity(a: KernelOp, b: KernelOp) -> float:
    """Cosine similarity of two kernels' (compute, memory) demand vectors.

    1.0 for identical profiles (worst SM sharing), near 0 for fully
    opposite profiles (best SM sharing).
    """
    return _similarity(a.compute_util, a.memory_util,
                       b.compute_util, b.memory_util)


class _Resident(NamedTuple):
    """A bare resident record for :meth:`ContentionModel.rates_by_seq`."""

    key: DemandKey


class ContentionModel:
    """Computes progress rates for a resident kernel set."""

    def __init__(self, num_sms: int, params: ContentionParams = ContentionParams()):
        if num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        self.num_sms = num_sms
        self.params = params
        # Rates by position, keyed on the resident set's ordered demand
        # keys: the only inputs of the model, so equal keys give
        # bit-identical rates.
        self._memo: Dict[Tuple[DemandKey, ...], List[float]] = {}

    def rates(self, resident: Iterable) -> List[float]:
        """Progress rate of each resident record, by position.

        Each record carries ``key``, its :func:`demand_key` (stream
        priority: larger = more important; 0 = default).  Results are
        memoized per resident set (the device keeps revisiting the same
        few); the returned list is the memo's own and must not be
        mutated.
        """
        key = tuple([r.key for r in resident])
        if not key:
            return []
        memo = self._memo
        rates = memo.get(key)
        if rates is None:
            if len(memo) >= RATES_MEMO_SIZE:
                memo.clear()
            rates = memo[key] = self._compute_rates(key)
        return rates

    def rates_by_seq(self, kernels: Sequence[KernelOp],
                     priorities: Dict[int, int]) -> Dict[int, float]:
        """:meth:`rates` for bare kernels: rate per kernel ``seq``.

        ``priorities`` maps kernel ``seq`` to its stream priority
        (missing = 0).
        """
        resident = [_Resident(demand_key(k, priorities.get(k.seq, 0)))
                    for k in kernels]
        return {k.seq: rate for k, rate in zip(kernels, self.rates(resident))}

    def _compute_rates(self, keys: Sequence[DemandKey]) -> List[float]:
        """The model itself: one rate per demand key, in ``keys`` order.

        One and two kernels (nearly every resident set) take closed
        forms whose float expressions are copies of
        :meth:`_general_rates`, so their results are bit-identical to
        it; three or more take the general loop.
        """
        params = self.params
        alpha_c = params.alpha_compute
        alpha_m = params.alpha_memory
        if len(keys) == 1:
            # Solo kernel: no co-runners, so the SM and residency terms
            # are identically 1.0 and the pair loops vanish.
            c, m = keys[0][0], keys[0][1]
            dominant = max(c, m, 1e-12)
            w_c = c / dominant
            w_m = m / dominant
            compute_term = (w_c * c) ** alpha_c
            memory_term = (w_m * m) ** alpha_m
            slowdown = max(1.0, compute_term, memory_term)
            return [1.0 / slowdown]
        if len(keys) != 2:
            return self._general_rates(keys)
        # Pair: the loops over co-runners have one term each.
        # _similarity is symmetric, so one call serves both sides; a
        # one-term sum() is ``0 + term`` and the residency product is
        # ``1.0 * term``, which equals ``term``.
        gamma = params.gamma_sm
        beta = params.beta_coresidency
        num_sms = self.num_sms
        a, b = keys
        sm_excess = max(0.0, (0 + a[2] + b[2]) / num_sms - 1.0)
        w_a = params.priority_weight_base ** a[3]
        w_b = params.priority_weight_base ** b[3]
        sim = _similarity(a[0], a[1], b[0], b[1])
        result: List[float] = []
        for (c, m, _, _), w_own, (c_o, m_o, s_o, _), w_other in (
                (a, w_a, b, w_b), (b, w_b, a, w_a)):
            factor = 2.0 * w_other / (w_own + w_other)
            demand_c = c + c_o * factor
            demand_m = m + m_o * factor
            dominant = max(c, m, 1e-12)
            w_c = c / dominant
            w_m = m / dominant
            compute_term = (w_c * demand_c) ** alpha_c
            memory_term = (w_m * demand_m) ** alpha_m
            sm_term = 1.0
            if sm_excess > 0 and gamma > 0 and s_o > 0:
                sm_term = 1.0 + gamma * sm_excess * ((0 + sim * s_o) / s_o)
            residency_term = 1.0
            if beta > 0:
                share = min(1.0, s_o / num_sms)
                residency_term = 1.0 + (beta * sim * share)
            slowdown = max(1.0, compute_term, memory_term, sm_term, residency_term)
            result.append(1.0 / slowdown)
        return result

    def _general_rates(self, keys: Sequence[DemandKey]) -> List[float]:
        """The model for any number of kernels.

        A co-runner ``j`` of priority ``p_j`` contributes its demand
        scaled by ``2 w_j / (w_k + w_j)`` with ``w = base**p``: equal
        priorities contend fully, a higher-priority kernel sees
        discounted interference and a lower-priority one amplified
        interference, roughly conserving total throughput.
        """
        params = self.params
        alpha_c = params.alpha_compute
        alpha_m = params.alpha_memory
        gamma = params.gamma_sm
        beta = params.beta_coresidency
        base = params.priority_weight_base
        num_sms = self.num_sms
        n = len(keys)
        sm_total = sum(key[2] for key in keys) / num_sms
        sm_excess = max(0.0, sm_total - 1.0)
        # Per-kernel priority weight (base**priority) computed once per
        # kernel instead of twice per ordered pair.
        weights = [base ** key[3] for key in keys]
        # Profile similarity of every ordered pair (symmetric, used by
        # both the SM and the residency term).
        sims = [[_similarity(c_i, m_i, c_j, m_j) for c_j, m_j, _, _ in keys]
                for c_i, m_i, _, _ in keys]
        result: List[float] = []
        for i, (c, m, _, _) in enumerate(keys):
            w_own = weights[i]
            demand_c = c
            demand_m = m
            for j in range(n):
                if j == i:
                    continue
                w_other = weights[j]
                factor = 2.0 * w_other / (w_own + w_other)
                demand_c += keys[j][0] * factor
                demand_m += keys[j][1] * factor
            dominant = max(c, m, 1e-12)
            w_c = c / dominant
            w_m = m / dominant
            compute_term = (w_c * demand_c) ** alpha_c
            memory_term = (w_m * demand_m) ** alpha_m
            sm_term = 1.0
            if sm_excess > 0 and gamma > 0:
                sm_weight = sum(keys[j][2] for j in range(n) if j != i)
                if sm_weight > 0:
                    similarity = sum(
                        sims[i][j] * keys[j][2]
                        for j in range(n)
                        if j != i
                    ) / sm_weight
                    sm_term = 1.0 + gamma * sm_excess * similarity
            residency_term = 1.0
            if beta > 0:
                for j in range(n):
                    if j == i:
                        continue
                    share = min(1.0, keys[j][2] / num_sms)
                    residency_term *= 1.0 + (beta * sims[i][j] * share)
            slowdown = max(1.0, compute_term, memory_term, sm_term, residency_term)
            result.append(1.0 / slowdown)
        return result

    def device_utilization(
        self, kernels: Sequence[KernelOp], rates: Sequence[float]
    ) -> tuple[float, float, float]:
        """Instantaneous (compute, memory-bw, sm-busy) device utilization.

        ``rates`` are the kernels' progress rates, by position.  A
        kernel progressing at rate r consumes its solo resource demands
        scaled by r (it retires FLOPs/bytes proportionally slower under
        contention).
        """
        compute = sum(k.compute_util * r for k, r in zip(kernels, rates))
        memory = sum(k.memory_util * r for k, r in zip(kernels, rates))
        sm_busy = sum(k.sm_needed for k in kernels) / self.num_sms
        return min(1.0, compute), min(1.0, memory), min(1.0, sm_busy)
