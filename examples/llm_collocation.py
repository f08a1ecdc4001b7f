#!/usr/bin/env python3
"""§7 extension: collocating LLM token generation with compute-bound work.

The paper's discussion section argues that LLM decode is memory-bound
(it streams the full weights per token) and therefore a good partner
for compute-intensive jobs under Orion's resource-aware policy.  This
example serves a small LLM as the high-priority job while a best-effort
BERT training job harvests the idle compute throughput.

Run:  python examples/llm_collocation.py
"""

from repro.core import OrionConfig
from repro.experiments.runner import get_profile
from repro.experiments.tables import format_table
from repro.experiments.testbed import Testbed
from repro.metrics.latency import summarize_latencies
from repro.metrics.throughput import throughput
from repro.profiler.nsight import profile_plan
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.clients import InferenceClient, TrainingClient
from repro.workloads.models.llm import LLM_SMALL, llm_generation_plan
from repro.workloads.registry import build_plan

import numpy as np

DURATION, WARMUP = 4.0, 0.5
LLM_RPS = 8.0
BE_MODEL = "bert"


def run(backend_name: str):
    testbed = Testbed.build("V100-16GB", seed=0)
    sim, device_spec = testbed.sim, testbed.device_spec
    llm_plan = llm_generation_plan(LLM_SMALL, batch=1, prompt_len=128,
                                   gen_tokens=16)
    llm_profile = profile_plan(llm_plan, device_spec)
    testbed.store.add(llm_profile)
    testbed.store.add(get_profile(BE_MODEL, "training", device_spec))
    gpu = testbed.gpu(backend_name, OrionConfig(
        hp_request_latency=llm_profile.request_latency))

    llm_client = InferenceClient(
        sim, gpu.ctx("llm-serving", True, "inference"), llm_plan, device_spec,
        PoissonArrivals(LLM_RPS, np.random.default_rng(0)),
        "llm-serving", horizon=DURATION,
    )
    be_client = TrainingClient(sim, gpu.ctx("bert-train", False, "training"),
                               build_plan(BE_MODEL, "training"), device_spec,
                               "bert-train", horizon=DURATION)
    gpu.backend.start()
    llm_client.start()
    be_client.start()
    sim.run(until=DURATION)
    return llm_client, be_client


def main() -> None:
    rows = []
    for backend in ("ideal", "orion"):
        print(f"running {backend} ...")
        llm_client, be_client = run(backend)
        latency = summarize_latencies(llm_client.stats.records, after=WARMUP)
        tokens_per_s = latency.count * 16 / (DURATION - WARMUP)
        be_tput = throughput(be_client.stats.records, WARMUP, DURATION)
        rows.append([backend, f"{latency.p50*1e3:.1f}", f"{latency.p99*1e3:.1f}",
                     f"{tokens_per_s:.0f}", f"{be_tput:.2f}"])
    print()
    print("HP = LLM generation (128-token prompt, 16 new tokens, Poisson 8 rps)")
    print(format_table(
        ["backend", "p50 (ms)", "p99 (ms)", "tokens/s", "BERT it/s"],
        rows,
    ))
    print()
    print("Reading: decode kernels are memory-bound, so Orion schedules the "
          "compute-bound BERT training kernels opposite them; generation "
          "latency stays near dedicated while the trainer rides along — "
          "the collocation §7 of the paper proposes.")


if __name__ == "__main__":
    main()
