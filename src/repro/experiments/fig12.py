"""Figure 12: multi-token attention kernel microbenchmark.

Latency of the attention operator for a batch of 32 requests, each with 8
query tokens, against growing numbers of past KV-tokens in non-contiguous
memory, across four implementations:

- ``ideal``: past KV-tokens in contiguous memory (hypothetical best case);
- ``pensieve``: the paper's multi-token paged kernel;
- ``copyout``: copy scattered KV out to contiguous memory, then attend;
- ``multiround``: one single-token PagedAttention round per query token.

Two modes are provided: the **cost-model** mode reproduces the paper's
figure at A100 scale, and the **measured** mode actually times the numpy
kernels of :mod:`repro.kernels` on a small model, demonstrating the same
ordering with real executions.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.gpu.costmodel import BatchShape, CostModel, KernelVariant
from repro.gpu.device import A100_80GB, GpuSpec
from repro.kernels import (  # repro: ignore[RPR006] -- Figure 12 compares the straw-man kernels themselves; AttentionDispatch does not carry them
    AttentionRequest,
    copyout_attention,
    multi_token_attention,
    multiround_attention,
)
from repro.model.config import OPT_13B, ModelConfig, tiny_opt_config

DEFAULT_CONTEXT_SIZES = (0, 512, 1024, 2048, 4096, 8192, 16384)

_VARIANTS = (
    ("ideal", KernelVariant.IDEAL_CONTIGUOUS),
    ("pensieve", KernelVariant.PENSIEVE_PAGED),
    ("copyout", KernelVariant.COPYOUT),
    ("multiround", KernelVariant.MULTIROUND_PAGED),
)


def run_fig12(
    config: ModelConfig = OPT_13B,
    spec: GpuSpec = A100_80GB,
    batch_size: int = 32,
    query_tokens: int = 8,
    context_sizes: Sequence[int] = DEFAULT_CONTEXT_SIZES,
) -> List[Dict[str, float]]:
    """Cost-model reproduction of Figure 12 (A100-scale latencies)."""
    cm = CostModel(config, spec)
    rows: List[Dict[str, float]] = []
    for past in context_sizes:
        shape = BatchShape.uniform(batch_size, query_tokens, past + query_tokens)
        row: Dict[str, float] = {"past_kv_tokens": past}
        for name, variant in _VARIANTS:
            row[name + "_s"] = cm.attention_time(shape, variant)
        rows.append(row)
    return rows


def run_fig12_measured(
    batch_size: int = 8,
    query_tokens: int = 8,
    context_sizes: Sequence[int] = (64, 256, 1024),
    repeats: int = 3,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Wall-clock measurement of the numpy kernels (small scale).

    The absolute numbers are numpy's, not a GPU's; the *ordering* —
    pensieve tracks ideal-contiguous while multiround pays per-token
    rounds and copyout pays the copy — is the Figure 12 claim being
    demonstrated.
    """
    config = tiny_opt_config(num_layers=1, hidden_size=64, num_heads=8)
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, float]] = []
    for past in context_sizes:
        ctx = past + query_tokens
        num_slots = ctx * 2
        k_cache = rng.standard_normal(
            (num_slots, config.num_kv_heads, config.head_dim)
        )
        v_cache = rng.standard_normal(
            (num_slots, config.num_kv_heads, config.head_dim)
        )
        requests = []
        for _ in range(batch_size):
            slots = list(rng.permutation(num_slots)[:ctx])
            query = rng.standard_normal(
                (query_tokens, config.num_heads, config.head_dim)
            )
            requests.append(AttentionRequest(query=query, slots=slots))
        contiguous = [
            AttentionRequest(query=r.query, slots=list(range(ctx)))
            for r in requests
        ]

        def timed(fn, reqs) -> float:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn(reqs, k_cache, v_cache)
                best = min(best, time.perf_counter() - start)
            return best

        rows.append(
            {
                "past_kv_tokens": past,
                "ideal_s": timed(multi_token_attention, contiguous),
                "pensieve_s": timed(multi_token_attention, requests),
                "copyout_s": timed(copyout_attention, requests),
                "multiround_s": timed(multiround_attention, requests),
            }
        )
    return rows


def format_fig12(rows: List[Dict[str, float]]) -> str:
    lines = [
        "Figure 12 — attention operator latency, batch 32, query size 8",
        f"{'past KV':>8} {'ideal':>10} {'pensieve':>10} {'copyout':>10} "
        f"{'multiround':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row['past_kv_tokens']:>8d} "
            f"{row['ideal_s'] * 1e3:>9.2f}ms {row['pensieve_s'] * 1e3:>9.2f}ms "
            f"{row['copyout_s'] * 1e3:>9.2f}ms {row['multiround_s'] * 1e3:>10.2f}ms"
        )
    return "\n".join(lines)
