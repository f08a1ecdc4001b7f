"""LLM continuous-batching serving loop (paper §7, made concrete).

The §7 proposal — collocate memory-bound LLM token generation with
compute-heavy best-effort work under Orion's resource-aware policy —
needs a serving loop around the prefill/decode lowering in
:mod:`repro.workloads.models.llm`.  This module is that loop:

* **Continuous batching.**  Requests arrive concurrently (Poisson
  arrivals; prompt and output lengths drawn per-request from seeded
  streams).  The engine forms a new batch every decode step: waiting
  requests join at prefill boundaries, finished sequences retire
  immediately — no static-batch head-of-line blocking.
* **KV-cache accounting.**  Each sequence's KV cache is allocated in
  fixed token blocks through ``cudaMalloc``, so cache growth competes
  for real device memory and cache pressure surfaces as the existing
  *non-sticky* ``OUT_OF_MEMORY`` status.  Policy ``"evict"`` reacts by
  evicting the youngest sequence (free its blocks, requeue it in
  admission order); ``"block"`` reserves a request's full cache at
  admission so growth never faults and overload shows up as admission
  blocking instead.  Block bytes are exactly conserved: every byte
  granted is eventually released, and the accounting object proves it.
* **Phase hints.**  Every prefill step is bracketed by
  ``phase("prefill")`` so :class:`~repro.core.scheduler.OrionBackend`
  can hold best-effort kernels while the compute-bound prefill runs
  (protecting TTFT), and ``phase("decode")`` re-opens collocation for
  the memory-bound decode steps.

``_run_llm_scenario`` wires the engine to a backend (Orion, temporal
sharing, or the stream baselines), optionally collocates best-effort
training clients, and returns an :class:`LlmServeResult` with the
serving metrics the field cares about: TTFT, per-output-token latency
(TPOT), and decode token goodput.  Fully deterministic under
(seed, arguments); surfaced as ``Scenario(kind="llm")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.frameworks.module import Namer
from repro.frameworks.specbuild import FP32_BYTES
from repro.gpu.errors import CudaErrorCode
from repro.kernels.costmodel import KernelCost, kernel_cost, solo_duration
from repro.kernels.kernel import KernelOp, MemoryOpKind
from repro.metrics.availability import ErrorLedger
from repro.metrics.latency import LatencySummary
from repro.runtime.client import ClientContext
from repro.sim.engine import Simulator
from repro.sim.process import Signal, spawn
from repro.telemetry.metrics import MetricsRegistry

from .arrivals import PoissonArrivals
from .clients import TrainingClient, _BaseClient, arrival_loop
from .models.llm import LlmConfig, _decode_step_specs, _prefill_specs

if TYPE_CHECKING:
    from repro.experiments.params import LlmParams
    from repro.experiments.testbed import Testbed

__all__ = [
    "LlmRequestRecord",
    "KvCacheAccounting",
    "ContinuousBatchingEngine",
    "LlmServeResult",
    "CACHE_POLICIES",
]

#: Valid KV-cache pressure policies.
CACHE_POLICIES = ("evict", "block")

#: The backend counters an LLM serving scenario reports.
LLM_STATS = ("be_kernels_launched", "be_kernels_deferred",
             "prefill_deferrals", "hp_requests_completed",
             "dur_threshold_frac", "protect_prefill")

# A sequence evicted this many times is failed instead of requeued:
# its cache will never fit, and requeueing forever would livelock.
_MAX_EVICTIONS_PER_REQUEST = 8


@dataclass
class LlmRequestRecord:
    """Lifecycle timestamps and token counts of one serving request."""

    req_id: int
    arrival: float
    prompt_tokens: int
    output_tokens: int
    admitted: Optional[float] = None     #: first admission into the batch
    first_token: Optional[float] = None  #: end of (first) prefill
    end: Optional[float] = None          #: last output token produced
    evictions: int = 0
    failed: bool = False

    @property
    def completed(self) -> bool:
        return self.end is not None and not self.failed

    @property
    def ttft(self) -> Optional[float]:
        """Time to first token, measured from arrival (queueing included)."""
        if self.first_token is None:
            return None
        return self.first_token - self.arrival

    @property
    def tpot(self) -> Optional[float]:
        """Mean per-output-token decode latency (output_tokens >= 2)."""
        if self.end is None or self.first_token is None \
                or self.output_tokens < 2:
            return None
        return (self.end - self.first_token) / (self.output_tokens - 1)


class KvCacheAccounting:
    """Block-granular KV-cache bookkeeping with conservation proofs.

    The device's bump allocator holds the actual bytes; this object
    tracks which sequence owns how many blocks and maintains the
    conservation invariant ``granted_bytes == released_bytes +
    in_use_bytes`` that the eviction tests assert.
    """

    def __init__(self, block_bytes: int):
        if block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        self.block_bytes = block_bytes
        self.granted_bytes = 0
        self.released_bytes = 0
        self.peak_bytes = 0
        self.evictions = 0
        self.oom_events = 0
        self.admission_blocks = 0
        self._blocks: Dict[int, int] = {}

    @property
    def in_use_bytes(self) -> int:
        return sum(self._blocks.values()) * self.block_bytes

    @property
    def conserved(self) -> bool:
        return self.granted_bytes == self.released_bytes + self.in_use_bytes

    def blocks_of(self, req_id: int) -> int:
        return self._blocks.get(req_id, 0)

    def grant(self, req_id: int, blocks: int = 1) -> None:
        self._blocks[req_id] = self._blocks.get(req_id, 0) + blocks
        self.granted_bytes += blocks * self.block_bytes
        self.peak_bytes = max(self.peak_bytes, self.in_use_bytes)

    def release(self, req_id: int) -> int:
        """Drop every block of ``req_id``; returns the block count."""
        blocks = self._blocks.pop(req_id, 0)
        self.released_bytes += blocks * self.block_bytes
        return blocks

    def snapshot(self) -> Dict:
        return {
            "block_bytes": self.block_bytes,
            "granted_bytes": self.granted_bytes,
            "released_bytes": self.released_bytes,
            "in_use_bytes": self.in_use_bytes,
            "peak_bytes": self.peak_bytes,
            "evictions": self.evictions,
            "oom_events": self.oom_events,
            "admission_blocks": self.admission_blocks,
            "conserved": self.conserved,
        }


class _Sequence:
    """One in-flight request's decoding state."""

    __slots__ = ("record", "generated")

    def __init__(self, record: LlmRequestRecord):
        self.record = record
        self.generated = 0  # output tokens produced so far

    @property
    def req_id(self) -> int:
        return self.record.req_id

    @property
    def cached_tokens(self) -> int:
        return self.record.prompt_tokens + self.generated

    @property
    def finished(self) -> bool:
        return self.generated >= self.record.output_tokens


def _bucket(tokens: int) -> int:
    """Power-of-two bucket (kernel-spec reuse, as in llm_generation_plan)."""
    return 2 ** int(math.ceil(math.log2(max(tokens, 1))))


class ContinuousBatchingEngine(_BaseClient):
    """The serving loop: admit, prefill, decode, retire — forever.

    One engine is the scenario's single high-priority client, named
    ``"llm"``, on the same client lifecycle as the DNN clients.  Each
    prefill/decode step runs inside a ``begin_request``/``end_request``
    window (so temporal sharing's slice lock works unchanged) and is
    announced with a phase marker (so Orion's phase hints work).
    """

    def __init__(self, sim: Simulator, ctx: ClientContext,
                 config: LlmConfig, device_spec, arrivals,
                 prompt_rng: np.random.Generator,
                 output_rng: np.random.Generator,
                 horizon: float,
                 max_batch: int = 8,
                 prompt_mean: float = 64.0, prompt_cap: int = 256,
                 output_mean: float = 8.0, output_cap: int = 64,
                 kv_block_tokens: int = 16,
                 cache_policy: str = "evict",
                 warmup: float = 0.0,
                 ledger: Optional[ErrorLedger] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if kv_block_tokens < 1:
            raise ValueError("kv_block_tokens must be >= 1")
        if cache_policy not in CACHE_POLICIES:
            raise ValueError(f"cache_policy must be one of {CACHE_POLICIES}, "
                             f"got {cache_policy!r}")
        if min(prompt_mean, output_mean) < 1:
            raise ValueError("prompt_mean and output_mean must be >= 1")
        super().__init__(sim, ctx, "llm", "inference", horizon, ledger=ledger)
        self.config = config
        self.device_spec = device_spec
        self.arrivals = arrivals
        self.prompt_rng = prompt_rng
        self.output_rng = output_rng
        self.max_batch = max_batch
        self.prompt_mean = prompt_mean
        self.prompt_cap = prompt_cap
        self.output_mean = output_mean
        self.output_cap = output_cap
        self.cache_policy = cache_policy
        self.warmup = warmup
        self.block_bytes = config.kv_cache_bytes(1, kv_block_tokens)
        self.kv_block_tokens = kv_block_tokens
        self.weights_bytes = FP32_BYTES * config.params
        self.kv = KvCacheAccounting(self.block_bytes)
        # Request state.
        self.records: List[LlmRequestRecord] = []
        self._waiting: List[LlmRequestRecord] = []  # kept in req_id order
        self._pending_prefill: List[_Sequence] = []
        self._active: List[_Sequence] = []
        self.admission_log: List[int] = []
        # Token goodput accounting (tokens produced at/after warmup).
        self.decode_tokens = 0
        self.prefill_tokens = 0
        self.requests_completed = 0
        # Bound kernel costs per shape bucket, like a real deployment's
        # one-time per-shape profiles; they live as long as the engine.
        self._decode_costs: Dict[tuple, List[KernelCost]] = {}
        self._prefill_costs: Dict[int, List[KernelCost]] = {}
        self._work = Signal(sim)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        spawn(self.sim, arrival_loop(self.arrivals, self.horizon, self._arrive),
              f"{self.name}-arrivals")
        super().start()

    @property
    def batch_size(self) -> int:
        return len(self._active) + len(self._pending_prefill)

    def _wake(self) -> None:
        if not self._work.triggered:
            self._work.trigger()

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _draw_length(self, rng: np.random.Generator, mean: float,
                     cap: int) -> int:
        # 1 + exponential tail: most requests short, a heavy-ish tail,
        # hard-capped so one request can't exceed the cache by itself.
        return min(cap, 1 + int(rng.exponential(max(mean - 1.0, 1e-9))))

    def _arrive(self, _t: float) -> None:
        record = LlmRequestRecord(
            req_id=len(self.records),
            arrival=self.sim.now,
            prompt_tokens=self._draw_length(
                self.prompt_rng, self.prompt_mean, self.prompt_cap),
            output_tokens=self._draw_length(
                self.output_rng, self.output_mean, self.output_cap),
        )
        self.records.append(record)
        self._waiting.append(record)
        self._wake()

    # ------------------------------------------------------------------
    # KV block allocation through the CUDA runtime
    # ------------------------------------------------------------------
    def _blocks_for(self, tokens: int) -> int:
        return max(1, -(-tokens // self.kv_block_tokens))

    def _free_blocks(self, blocks: int):
        for _ in range(blocks):
            yield from self.ctx.free(self.block_bytes)

    def _evict(self, seq: _Sequence):
        """Evict ``seq``: free its cache, requeue it in admission order.

        Generation restarts from the prompt on re-admission (the cache
        is gone), so eviction trades completed work for survival —
        exactly the soft-OOM behaviour the paper's §3 motivates.
        """
        blocks = self.kv.release(seq.req_id)
        self._active.remove(seq)
        yield from self._free_blocks(blocks)
        self.kv.evictions += 1
        seq.record.evictions += 1
        if seq.record.evictions > _MAX_EVICTIONS_PER_REQUEST:
            self._fail_request(seq.record)
            return
        # Reinsert preserving req_id (= admission) order.
        self._waiting.append(seq.record)
        self._waiting.sort(key=lambda r: r.req_id)

    def _fail_request(self, record: LlmRequestRecord) -> None:
        record.failed = True
        self._record_failed()

    def _alloc_admission(self, record: LlmRequestRecord):
        """Reserve a new request's cache; False (with rollback) on OOM."""
        tokens = record.prompt_tokens
        if self.cache_policy == "block":
            # Full reservation: growth during decode can never fault.
            tokens += record.output_tokens
        blocks = self._blocks_for(tokens)
        got = 0
        for _ in range(blocks):
            done = yield from self.ctx.malloc(self.block_bytes)
            if done.error is None:
                got += 1
                continue
            if done.error.code is CudaErrorCode.OUT_OF_MEMORY:
                self.kv.oom_events += 1
            # Roll back the partial reservation and report no room.
            for _ in range(got):
                yield from self.ctx.free(self.block_bytes)
            return False
        self.kv.grant(record.req_id, blocks)
        return True

    def _grow_for(self, seq: _Sequence):
        """Ensure ``seq`` has cache room for one more token.

        Under ``"evict"``, an OOM evicts the *youngest* active sequence
        (FIFO service order is preserved: the oldest admitted work is
        the last to lose its cache) and retries; evicting ``seq`` itself
        is the last resort.  Returns False when ``seq`` was evicted.
        """
        while self.kv.blocks_of(seq.req_id) * self.kv_block_tokens \
                < seq.cached_tokens + 1:
            done = yield from self.ctx.malloc(self.block_bytes)
            if done.error is None:
                self.kv.grant(seq.req_id, 1)
                continue
            if done.error.code is not CudaErrorCode.OUT_OF_MEMORY:
                return False  # sticky error; serve loop will stop
            self.kv.oom_events += 1
            victims = [s for s in self._active if s is not seq]
            victim = max(victims, key=lambda s: s.req_id) if victims else seq
            yield from self._evict(victim)
            if victim is seq:
                return False
        return True

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def _body(self):
        ok = yield from self._startup(self.weights_bytes)
        if not ok:
            return
        while self._healthy():
            yield from self._admit_waiting()
            if self._pending_prefill:
                yield from self._prefill_step()
            elif self._active:
                yield from self._decode_step()
            else:
                self._work = Signal(self.sim)
                yield self._work
            self._flush_errors()

    def _admit_waiting(self):
        """Join waiting requests at the prefill boundary, FIFO."""
        while self._waiting and self.batch_size < self.max_batch:
            record = self._waiting[0]
            ok = yield from self._alloc_admission(record)
            if not ok:
                self.kv.admission_blocks += 1
                if not self._active and not self._pending_prefill:
                    # Nothing in flight will ever release cache: this
                    # request can never fit.  Fail it instead of
                    # spinning forever.
                    self._waiting.pop(0)
                    self._fail_request(record)
                    continue
                break
            self._waiting.pop(0)
            if record.admitted is None:
                record.admitted = self.sim.now
            self.admission_log.append(record.req_id)
            self._pending_prefill.append(_Sequence(record))

    def _prefill_kernels(self, prompt_bucket: int) -> List[KernelOp]:
        costs = self._prefill_costs.get(prompt_bucket)
        if costs is None:
            namer = Namer(f"{self.config.name}-serve/prefill{prompt_bucket}")
            costs = self._prefill_costs[prompt_bucket] = [
                kernel_cost(spec, self.device_spec)
                for spec in _prefill_specs(self.config, 1, prompt_bucket, namer)]
        client_id = self.ctx.client_id
        return [cost.launch(client_id, "prefill") for cost in costs]

    def _decode_kernels(self, batch: int, cache_bucket: int) -> List[KernelOp]:
        key = (batch, cache_bucket)
        costs = self._decode_costs.get(key)
        if costs is None:
            namer = Namer(
                f"{self.config.name}-serve/b{batch}/cache{cache_bucket}")
            costs = self._decode_costs[key] = [
                kernel_cost(spec, self.device_spec)
                for spec in _decode_step_specs(self.config, batch,
                                               cache_bucket, namer)]
        client_id = self.ctx.client_id
        return [cost.launch(client_id, "decode") for cost in costs]

    def _prefill_step(self):
        """Run prefill for every newly joined request (one per request —
        prompts are ragged), producing each one's first token."""
        joined, self._pending_prefill = self._pending_prefill, []
        yield from self.ctx.begin_request()
        yield from self.ctx.phase("prefill")
        for seq in joined:
            yield from self.ctx.memcpy(
                FP32_BYTES * seq.record.prompt_tokens,
                MemoryOpKind.MEMCPY_H2D, blocking=False)
            for op in self._prefill_kernels(_bucket(seq.record.prompt_tokens)):
                yield from self.ctx.launch_kernel(op)
        yield from self.ctx.synchronize()
        self.ctx.end_request()
        if not self._healthy():
            return
        now = self.sim.now
        for seq in joined:
            seq.generated = 1  # prefill emits the first token
            if seq.record.first_token is None:
                seq.record.first_token = now
            if now >= self.warmup:
                self.prefill_tokens += 1
            self._active.append(seq)
        yield from self._retire_finished()

    def _decode_step(self):
        """One continuous-batching decode step over the active batch."""
        yield from self.ctx.begin_request()
        yield from self.ctx.phase("decode")
        # Grow each sequence's cache first: allocation is device-
        # synchronizing, and a real engine reserves pages before the
        # step.  Growth may evict (policy "evict") — re-check liveness.
        for seq in list(self._active):
            if seq in self._active:
                yield from self._grow_for(seq)
        if not self._active or not self._healthy():
            self.ctx.end_request()
            return
        batch = len(self._active)
        cache_bucket = _bucket(max(s.cached_tokens for s in self._active))
        for op in self._decode_kernels(batch, cache_bucket):
            yield from self.ctx.launch_kernel(op)
        yield from self.ctx.synchronize()
        # Stream the batch's new tokens out (one fp32 logit id each).
        yield from self.ctx.memcpy(FP32_BYTES * batch,
                                   MemoryOpKind.MEMCPY_D2H, blocking=True)
        self.ctx.end_request()
        if not self._healthy():
            return
        now = self.sim.now
        for seq in self._active:
            seq.generated += 1
        if now >= self.warmup:
            self.decode_tokens += batch
        yield from self._retire_finished()

    def _retire_finished(self):
        finished = [s for s in self._active if s.finished]
        for seq in finished:
            self._active.remove(seq)
            blocks = self.kv.release(seq.req_id)
            yield from self._free_blocks(blocks)
            seq.record.end = self.sim.now
            self.requests_completed += 1
            self._record_served()


# ---------------------------------------------------------------------------
# The scenario around the engine.


@dataclass
class LlmServeResult:
    """Everything one LLM serving scenario produced."""

    model: str
    backend: str
    ttft: LatencySummary
    tpot: LatencySummary
    decode_tokens_per_sec: float
    total_tokens: int
    ttft_slo: float                      #: seconds (ttft_slo_mult x solo prefill)
    prefill_reference: float             #: solo prefill latency estimate (s)
    requests_arrived: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    records: List[LlmRequestRecord] = field(default_factory=list)
    admission_log: List[int] = field(default_factory=list)
    kv: Dict = field(default_factory=dict)
    jobs: Dict = field(default_factory=dict)   #: best-effort ClientStats
    backend_stats: Dict = field(default_factory=dict)
    ledger: ErrorLedger = field(default_factory=ErrorLedger)
    # The backend's metrics registry and any utilization segments the
    # device recorded (only when tracing, for the trace's counters).
    metrics: Optional[MetricsRegistry] = None
    utilization_segments: List = field(default_factory=list)

    def be_iterations(self, warmup: float = 0.0) -> int:
        """Completed best-effort training iterations past warmup."""
        return sum(len(stats.completed(after=warmup))
                   for stats in self.jobs.values())


def _run_llm_scenario(params: LlmParams, testbed: Testbed) -> LlmServeResult:
    """Run the continuous-batching LLM serving scenario.

    One high-priority :class:`ContinuousBatchingEngine` serves Poisson
    request arrivals at ``request_rate`` req/s; ``be_clients``
    best-effort training clients (``be_model``) run closed-loop
    alongside it.  ``kv_budget_mb`` (None = whatever the device leaves
    free) caps the KV cache headroom by pre-reserving the rest of
    device memory, so exceeding it produces genuine ``cudaMalloc`` OOM
    statuses for the ``cache_policy`` machinery to absorb.  The TTFT
    SLO reported (and asserted by the benchmark) is ``ttft_slo_mult``
    x the solo prefill latency estimate at the mean prompt length.
    """
    from repro.core import OrionConfig
    from repro.experiments.runner import get_profile
    from repro.experiments.testbed import report_stats
    from repro.workloads.registry import build_plan, get_workload

    duration, model = params.duration, params.model
    be_clients = params.be_clients
    workload = get_workload(model)
    config: LlmConfig = getattr(workload, "config", None)
    if config is None:
        raise ValueError(f"workload {model!r} is not an LLM workload; "
                         "kind='llm' scenarios need one (e.g. 'llm-small')")

    sim, device_spec, rng_factory = testbed.sim, testbed.device_spec, testbed.rng
    ledger = ErrorLedger()

    # Reference latencies from the lowering, used for the Orion duration
    # budget and the TTFT SLO — profiled estimates, not ground truth.
    # The SLO reference is the solo prefill latency of the *largest
    # admissible* prompt (cap bucket): TTFT includes queueing, so the
    # bound must cover a worst-case prompt arriving behind a step.
    prefill_ref = sum(
        solo_duration(s, device_spec)
        for s in _prefill_specs(config, 1, _bucket(params.prompt_cap),
                                Namer(f"{config.name}-ref/prefill")))
    decode_ref = sum(
        solo_duration(s, device_spec)
        for s in _decode_step_specs(config, 1, _bucket(int(params.prompt_mean)),
                                    Namer(f"{config.name}-ref/decode")))
    ttft_slo = params.ttft_slo_mult * prefill_ref

    be_plan = None
    if be_clients:
        testbed.store.add(get_profile(params.be_model, "training",
                                      device_spec))
        be_plan = build_plan(params.be_model, "training")

    stack = testbed.gpu(params.backend, OrionConfig(
        fallback_hp_latency=decode_ref,
        protect_prefill=params.protect_prefill,
    ))
    gpu, be_backend = stack.device, stack.backend

    # Enforce the KV budget with real memory: reserve everything beyond
    # (weights + best-effort state + budget), so cache growth past the
    # budget faults through the ordinary cudaMalloc OOM path.
    if params.kv_budget_mb is not None:
        budget = int(params.kv_budget_mb * 2**20)
        resident = FP32_BYTES * config.params
        if be_plan is not None:
            resident += be_clients * be_plan.state_bytes
        blocker = gpu.memory.free - resident - budget
        if blocker > 0:
            gpu.memory.malloc(blocker, client_id="kv-budget-reserve")

    engine = ContinuousBatchingEngine(
        sim, stack.ctx("llm", True, "inference"), config, device_spec,
        PoissonArrivals(params.request_rate, rng_factory.stream("llm:arrivals")),
        prompt_rng=rng_factory.stream("llm:prompts"),
        output_rng=rng_factory.stream("llm:outputs"),
        horizon=duration, max_batch=params.max_batch,
        prompt_mean=params.prompt_mean, prompt_cap=params.prompt_cap,
        output_mean=params.output_mean, output_cap=params.output_cap,
        kv_block_tokens=params.kv_block_tokens,
        cache_policy=params.cache_policy, warmup=params.warmup,
        ledger=ledger,
    )

    be_jobs: List[TrainingClient] = []
    for i in range(be_clients):
        name = f"be-{i}"
        be_jobs.append(TrainingClient(
            sim, stack.ctx(name, False, "training"), be_plan, device_spec,
            name, horizon=duration, ledger=ledger))

    be_backend.start()
    # Best-effort clients start first so their resident state lands
    # before the KV cache can grow into it (allocation order at t=0 is
    # spawn order; deterministic either way).
    for job in be_jobs:
        job.start()
    engine.start()
    sim.run(until=duration)
    ledger.finalize(duration)

    after = params.warmup
    ttfts = [r.ttft for r in engine.records
             if r.ttft is not None and r.arrival >= after]
    tpots = [r.tpot for r in engine.records
             if r.tpot is not None and r.arrival >= after]
    span = max(sim.now - after, 1e-12)
    total_tokens = engine.decode_tokens + engine.prefill_tokens

    return LlmServeResult(
        model=model,
        backend=params.backend,
        ttft=LatencySummary.of(ttfts),
        tpot=LatencySummary.of(tpots),
        decode_tokens_per_sec=engine.decode_tokens / span,
        total_tokens=total_tokens,
        ttft_slo=ttft_slo,
        prefill_reference=prefill_ref,
        requests_arrived=len(engine.records),
        requests_completed=engine.requests_completed,
        requests_failed=engine.stats.failed,
        records=list(engine.records),
        admission_log=list(engine.admission_log),
        kv=engine.kv.snapshot(),
        jobs={job.name: job.stats for job in be_jobs},
        backend_stats=report_stats(be_backend, LLM_STATS),
        ledger=ledger,
        metrics=be_backend.metrics,
        utilization_segments=list(gpu.utilization_segments),
    )
