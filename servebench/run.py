"""Serving benchmark for both executable halves of the reproduction.

Usage (from the repository root)::

    python3 servebench/run.py --workload chat-tiered --seed 1 --seconds 30 --trace 0

Workloads (see ``servebench/README.md`` for why each exists):

- ``chat-resident`` / ``chat-tiered`` drive ``StatefulChatServer.chat_batch``
  on a 4-layer, hidden-512 GQA llama in closed-loop rounds;
- ``sim-sharegpt`` drives ``PensieveEngine`` through ``run_serving_once``.

``--seconds`` sets how much seeded traffic a run serves: as many rounds
(or simulated passes) as the reference machine serves in that time.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
serves the same traffic twice, untraced and then traced, and prints the
per-layer metrics, writing the spans to ``.bench_out/``.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Setups per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 9
#: Simulated seconds of the untimed warm-up pass before a sim run.
SIM_WARMUP_S = 60.0
#: Conversations replayed on an ample-memory server per chat run.
REPLAY_SAMPLE = {"chat-resident": 3, "chat-tiered": 8}

#: End-to-end metrics: name -> unit.  Every workload reports each one.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "output_tokens_per_s": "tok/s",
    "norm_latency_p50_ms": "ms",
    "norm_latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "completed_turn_ratio": "ratio",
    "peak_rss_mb": "MB",
}

_CHAT = ("chat-resident", "chat-tiered")
_SIM = ("sim-sharegpt",)
_ALL = _CHAT + _SIM

#: Per-layer metrics: name -> (unit, workloads where the layer does work).
#: Elsewhere the layer does nothing and the metric reads 0.
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "trace.overhead_ratio": ("ratio", _ALL),
    "trace.wall_s": ("s", _ALL),
    "trace.spans": ("count", _ALL),
    "server.self_s": ("s", _CHAT),
    "admit.batch_turns_mean": ("count", _CHAT),
    "admit.deferred_turns": ("count", _CHAT),
    "model.decode_s": ("s", _CHAT),
    "model.decode_share": ("ratio", _CHAT),
    "model.decode_step_ms_p50": ("ms", _CHAT),
    "model.decode_step_ms_p90": ("ms", _CHAT),
    "model.prefill_s": ("s", _CHAT),
    "model.prefill_share": ("ratio", _CHAT),
    "model.prefill_ms_p50": ("ms", _CHAT),
    "model.recompute_share": ("ratio", _CHAT),
    "model.self_s": ("s", _CHAT),
    "kernels.decode_attn_s": ("s", _CHAT),
    "kernels.decode_attn_gbps": ("GB/s", _CHAT),
    "kernels.pack_extend_ratio": ("ratio", _CHAT),
    "kernels.prefill_attn_s": ("s", _CHAT),
    "kernels.prefill_attn_gflops": ("GFLOP/s", _CHAT),
    "kvcache.share": ("ratio", _ALL),
    "kvcache.restore_s": ("s", _ALL),
    "kvcache.ensure_capacity_s": ("s", _ALL),
    "kvcache.reclaim_s": ("s", _ALL),
    "kvcache.swap_out_s": ("s", _ALL),
    "kvcache.append_s": ("s", _ALL),
    "kvcache.observer_s": ("s", _ALL),
    "kvcache.d2h_s": ("s", _CHAT),
    "kvcache.d2h_bytes": ("bytes", _CHAT),
    "kvcache.h2d_s": ("s", _CHAT),
    "kvcache.h2d_bytes": ("bytes", _CHAT),
    "kvcache.demote_s": ("s", _CHAT),
    "kvcache.lookup_tokens": ("tokens", _ALL),
    "kvcache.gpu_hit_ratio": ("ratio", _ALL),
    "kvcache.cpu_hit_ratio": ("ratio", _ALL),
    "kvcache.disk_hit_ratio": ("ratio", _ALL),
    "kvcache.recompute_ratio": ("ratio", _ALL),
    "kvcache.copy_useful_ratio": ("ratio", _ALL),
    "kvcache.swapped_out_tokens": ("tokens", _ALL),
    "kvcache.demoted_tokens": ("tokens", _ALL),
    "kvcache.dropped_tokens": ("tokens", _ALL),
    "kvcache.gpu_occupancy_p50": ("ratio", _ALL),
    "kvcache.fragmentation_tokens_max": ("tokens", _ALL),
    "sim.wall_tokens_per_s": ("tok/s", _SIM),
    "sim.manager_s": ("s", _SIM),
    "sim.manager_share": ("ratio", _SIM),
    "sim.swap_out_us_p50": ("us", _SIM),
    "sim.cost_model_s": ("s", _SIM),
    "sim.engine_self_s": ("s", _SIM),
    "sim.event_us": ("us", _SIM),
    "sim.events": ("count", _SIM),
    "sim.iterations": ("count", _SIM),
    "sim.batch_requests_mean": ("count", _SIM),
    "sim.suspensions": ("count", _SIM),
}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def _pin_threads() -> int:
    """One process, at most ``nproc`` BLAS threads: must run before the
    first numpy import."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def fingerprint(seed: int, nproc: int) -> Dict[str, Any]:
    import numpy

    blas: Dict[str, Any] = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Functional server (chat-*)
# ----------------------------------------------------------------------


def bench_model():
    """The llama-arch shape the functional workloads serve."""
    from repro.model.config import ModelConfig

    return ModelConfig(
        name="bench-llama-4x512",
        arch="llama",
        num_layers=4,
        hidden_size=512,
        num_heads=8,
        num_kv_heads=2,
        head_dim=64,
        intermediate_size=1536,
        vocab_size=4096,
        max_position=4096,
    )


def build_server(spec, plan, gpu_tokens: Optional[int] = None):
    """A server with the workload's tiers; the server's default dtypes
    (float64 activations over float32 KV) are kept."""
    from repro.core.server import StatefulChatServer
    from workloads import CHUNK_SIZE, PAGE_SIZE

    return StatefulChatServer(
        bench_model(),
        gpu_capacity_tokens=gpu_tokens or plan.budget,
        cpu_capacity_tokens=spec.cpu_tokens,
        disk_capacity_tokens=spec.disk_tokens,
        chunk_size=CHUNK_SIZE,
        page_size=PAGE_SIZE,
        max_conversations=plan.conversations + 1,
        seed=0,
        backend="paged",
    )


class ChatRun:
    """What one pass over a chat plan produced."""

    def __init__(self) -> None:
        self.transcripts: Dict[Tuple[int, int], List[int]] = {}
        #: Wall time of each round's ``chat_batch`` call (0 when idle).
        self.durations: List[float] = []
        self.failed = 0
        self.errors: List[str] = []
        self.stats: Dict[str, int] = {}


def serve_chat(plan, server, rec=None) -> ChatRun:
    """Serve every round of the plan, one ``chat_batch`` call per round."""
    from repro.kvcache.manager import CacheCapacityError
    from repro.kvcache.pages import PagePoolExhausted

    reply = plan.spec.reply
    run = ChatRun()
    manager = server.manager
    for r, batch in enumerate(plan.rounds):
        if not batch:
            run.durations.append(0.0)
            continue
        if rec is not None:
            rec.context = r
        start = time.perf_counter()
        try:
            out = server.chat_batch(
                [(t.conv, t.prompt) for t in batch], max_new_tokens=reply
            )
        except (CacheCapacityError, PagePoolExhausted) as exc:
            run.durations.append(time.perf_counter() - start)
            run.failed += len(batch)
            run.errors.append(f"round {r}: {exc!r}")
            continue
        run.durations.append(time.perf_counter() - start)
        for turn in batch:
            tokens = out.get(turn.conv)
            if tokens is None or len(tokens) != reply:
                run.failed += 1
                continue
            run.transcripts[(turn.conv, turn.index)] = tokens
        if rec is not None:
            rec.samples["occupancy"].append(
                manager.gpu_resident_tokens / manager.gpu_capacity_tokens
            )
            rec.samples["fragmentation"].append(manager.fragmentation_tokens())
    run.stats = dict(manager.stats)
    return run


def chat_timeline(plan, run: ChatRun) -> Tuple[float, List[float]]:
    """Serving wall time and per-turn normalized latency: a turn waits
    from the start of the round it fell due in to the return of the call
    that served it, per reply token."""
    start = [0.0]
    for d in run.durations:
        start.append(start[-1] + d)
    reply = plan.spec.reply
    latencies = [
        (start[t.served + 1] - start[t.due]) / reply
        for t in plan.turns
        if (t.conv, t.index) in run.transcripts
    ]
    return start[-1], latencies


def replay_ample(plan, transcripts, sample: List[int]) -> Tuple[int, int]:
    """Serve the sampled conversations' turns again on a server whose GPU
    tier holds everything, batching turn ``k`` of every sampled
    conversation together; returns ``(turns checked, mismatches)``."""
    from workloads import PAGE_SIZE

    chosen = [
        t for t in plan.turns if t.conv in sample and (t.conv, t.index) in transcripts
    ]
    if not chosen:
        return 0, 0
    reply = plan.spec.reply
    last: Dict[int, int] = {}
    for t in chosen:
        last[t.conv] = max(last.get(t.conv, 0), t.tokens(reply))
    gpu = -(-sum(last.values()) // PAGE_SIZE) * PAGE_SIZE
    server = build_server(plan.spec, plan, gpu_tokens=gpu)
    by_index: Dict[int, list] = {}
    for t in chosen:
        by_index.setdefault(t.index, []).append(t)
    mismatches = 0
    for index in sorted(by_index):
        turns = by_index[index]
        out = server.chat_batch([(t.conv, t.prompt) for t in turns], max_new_tokens=reply)
        mismatches += sum(
            out.get(t.conv) != transcripts[(t.conv, t.index)] for t in turns
        )
    return len(chosen), mismatches


def lookup_identity(stats: Dict[str, int]) -> bool:
    """Every looked-up token is a GPU, CPU or disk hit or recomputed."""
    return stats["lookup_tokens"] == (
        stats["gpu_hit_tokens"]
        + stats["cpu_hit_tokens"]
        + stats["disk_hit_tokens"]
        + stats["recomputed_tokens"]
    )


def _chat_setup(spec, seed: int, seconds: float) -> Tuple[Any, Any, List[float]]:
    """Plan + server build, repeated; the first server is warmed up
    (BLAS start-up, first-call allocations) and thrown away."""
    from workloads import chat_rounds, plan_chat

    model = bench_model()
    times = []
    plan = server = None
    for i in range(SETUP_REPEATS):
        server = None
        gc.collect()
        start = time.perf_counter()
        plan = plan_chat(spec, seed, chat_rounds(spec, seconds), model.vocab_size)
        server = build_server(spec, plan)
        times.append(time.perf_counter() - start)
        if i == 0:
            server.chat_batch([(0, list(range(1, 33)))], max_new_tokens=4)
    return plan, server, times


def chat_metrics(plan, run: ChatRun, setup: List[float]) -> Dict[str, float]:
    wall, latencies = chat_timeline(plan, run)
    served = len(run.transcripts)
    attempted = len(plan.turns)
    return {
        "setup_s": statistics.median(setup),
        "output_tokens_per_s": _ratio(served * plan.spec.reply, wall),
        "norm_latency_p50_ms": _percentile(latencies, 50) * 1e3,
        "norm_latency_p90_ms": _percentile(latencies, 90) * 1e3,
        "throughput_rps": _ratio(served, wall),
        "completed_turn_ratio": _ratio(served, attempted),
        "peak_rss_mb": peak_rss_mb(),
    }


def cache_ratios(stats: Dict[str, int], counts: Dict[str, float]) -> Dict[str, float]:
    lookup = stats["lookup_tokens"]
    return {
        "kvcache.lookup_tokens": float(lookup),
        "kvcache.gpu_hit_ratio": _ratio(stats["gpu_hit_tokens"], lookup),
        "kvcache.cpu_hit_ratio": _ratio(stats["cpu_hit_tokens"], lookup),
        "kvcache.disk_hit_ratio": _ratio(stats["disk_hit_tokens"], lookup),
        "kvcache.recompute_ratio": _ratio(stats["recomputed_tokens"], lookup),
        "kvcache.copy_useful_ratio": _ratio(
            counts["aot_reclaimed_tokens"], counts["aot_copied_tokens"]
        ),
        "kvcache.swapped_out_tokens": float(stats["swapped_out_tokens"]),
        "kvcache.demoted_tokens": float(stats["demoted_tokens"]),
        "kvcache.dropped_tokens": float(stats["dropped_tokens"]),
    }


def manager_times(rec) -> Dict[str, float]:
    return {
        "kvcache.restore_s": rec.total(
            "kvcache.manager.plan_restore", "kvcache.manager.commit_restore"
        ),
        "kvcache.ensure_capacity_s": rec.total("kvcache.manager.ensure_capacity"),
        "kvcache.reclaim_s": rec.total("kvcache.manager.reclaim"),
        "kvcache.swap_out_s": rec.total("kvcache.manager.swap_out"),
        "kvcache.append_s": rec.total("kvcache.manager.append_tokens"),
        "kvcache.observer_s": rec.total("kvcache.observer"),
    }


def chat_layers(plan, server, rec, traced: ChatRun, untraced_wall: float) -> Dict[str, float]:
    own = rec.self_times()
    decode = rec.durations("model.forward.decode")
    prefill = rec.durations("model.forward.prefill")
    decode_attn = rec.total("kernels.decode_attn")
    prefill_attn = rec.total("kernels.prefill_attn")
    pack = {
        k: server.model.decode_cache.stats[k]
        for k in ("extended_rows", "reused_rows", "repaired_rows", "rebuilt_rows")
    }
    batches = [len(b) for b in plan.rounds if b]
    wall = sum(traced.durations)
    out = {
        "trace.overhead_ratio": _ratio(wall, untraced_wall) - 1.0,
        "trace.wall_s": wall,
        "trace.spans": float(len(rec)),
        "server.self_s": own.get("server.chat_batch", 0.0),
        "admit.batch_turns_mean": _ratio(sum(batches), len(batches)),
        "admit.deferred_turns": float(plan.deferrals),
        "model.decode_s": float(decode.sum()),
        "model.decode_share": _ratio(float(decode.sum()), wall),
        "model.decode_step_ms_p50": _percentile(decode, 50) * 1e3,
        "model.decode_step_ms_p90": _percentile(decode, 90) * 1e3,
        "model.prefill_s": float(prefill.sum()),
        "model.prefill_share": _ratio(float(prefill.sum()), wall),
        "model.prefill_ms_p50": _percentile(prefill, 50) * 1e3,
        "model.recompute_share": _ratio(
            rec.counts["recompute_tokens"], rec.counts["prefill_tokens"]
        ),
        "model.self_s": own.get("model.forward.decode", 0.0)
        + own.get("model.forward.prefill", 0.0),
        "kernels.decode_attn_s": decode_attn,
        "kernels.decode_attn_gbps": _ratio(rec.counts["decode_attn_bytes"], decode_attn) / 1e9,
        "kernels.pack_extend_ratio": _ratio(pack["extended_rows"], sum(pack.values())),
        "kernels.prefill_attn_s": prefill_attn,
        "kernels.prefill_attn_gflops": _ratio(rec.counts["prefill_attn_flops"], prefill_attn) / 1e9,
        "kvcache.d2h_s": rec.total(
            "kvcache.storage.d2h_gather", "kvcache.storage.cpu_put"
        ),
        "kvcache.d2h_bytes": rec.counts["d2h_bytes"],
        "kvcache.h2d_s": rec.total(
            "kvcache.storage.cpu_pop",
            "kvcache.storage.disk_pop",
            "kvcache.storage.h2d_scatter",
        ),
        "kvcache.h2d_bytes": rec.counts["h2d_bytes"],
        "kvcache.demote_s": rec.total("kvcache.storage.cpu_demote"),
        "kvcache.gpu_occupancy_p50": _percentile(rec.samples["occupancy"], 50),
        "kvcache.fragmentation_tokens_max": float(max(rec.samples["fragmentation"], default=0)),
    }
    out["kvcache.share"] = _ratio(rec.layer_self("kvcache."), wall)
    out.update(manager_times(rec))
    out.update(cache_ratios(server.manager.stats, rec.counts))
    return out


def run_chat(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from spans import SpanRecorder, watch_server
    from workloads import CHAT_SPECS, replay_sample

    spec = CHAT_SPECS[workload]
    plan, server, setup = _chat_setup(spec, seed, seconds)
    run = serve_chat(plan, server)
    server = None
    gc.collect()
    checks: Dict[str, Any] = {"lookup_identity": lookup_identity(run.stats)}
    metrics: Dict[str, float]
    if trace:
        server = build_server(spec, plan)
        rec = SpanRecorder()
        watch_server(rec, server)
        try:
            traced = serve_chat(plan, server, rec)
        finally:
            checks["wrappers_restored"] = rec.restore()
        checks["traced_equals_untraced"] = traced.transcripts == run.transcripts
        checks["lookup_identity_traced"] = lookup_identity(traced.stats)
        metrics = chat_layers(plan, server, rec, traced, sum(run.durations))
        checks["trace_file"] = write_trace(rec, workload, seed)
        server = None
        gc.collect()
    else:
        metrics = chat_metrics(plan, run, setup)
    sample = replay_sample(plan, seed, REPLAY_SAMPLE[workload])
    checked, mismatches = replay_ample(plan, run.transcripts, sample)
    checks["ample_replay_turns"] = checked
    checks["ample_replay_identical"] = checked > 0 and mismatches == 0
    served = len(run.transcripts)
    traffic = plan.summary()
    traffic.update(
        turns_completed=served,
        swapped_out_tokens=run.stats["swapped_out_tokens"],
        dropped_tokens=run.stats["dropped_tokens"],
    )
    return {
        "metrics": metrics,
        "attempted": len(plan.turns),
        "failed": run.failed,
        "checks": checks,
        "traffic": traffic,
        "errors": run.errors,
    }


# ----------------------------------------------------------------------
# Simulator (sim-sharegpt)
# ----------------------------------------------------------------------


class SimPass:
    """What one simulated pass produced."""

    def __init__(self) -> None:
        self.wall = 0.0
        #: Whether the trace wrappers came off again (traced passes).
        self.restored = True
        self.output_tokens = 0
        self.window_latencies: List[float] = []
        self.window_requests = 0
        self.window_output_tokens = 0
        self.window_duration = 0.0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.accounted = False
        self.lookup_ok = False
        self.events = 0
        self.iterations = 0
        self.suspensions = 0
        self.stats: Dict[str, int] = {}
        self.digest = ""


def sim_pass(spec, conversations, rec=None, index: int = 0) -> SimPass:
    """Serve one scripted ShareGPT workload through ``run_serving_once``."""
    from repro.core.engine import PensieveEngine
    from repro.experiments.common import run_serving_once
    from repro.gpu.device import A100_80GB
    from repro.model.config import OPT_13B
    from spans import watch_engine

    result = SimPass()

    def factory(loop):
        engine = PensieveEngine(loop, OPT_13B, A100_80GB)
        submit = engine.submit

        def counted(request):
            result.submitted += 1
            submit(request)

        engine.submit = counted
        if rec is not None:
            watch_engine(rec, engine)
        return engine

    gc.collect()
    if rec is not None:
        rec.context = index
        span = rec.open("sim.pass")
    start = time.perf_counter()
    try:
        engine, stats = run_serving_once(
            factory, conversations, until=spec.duration, warmup=spec.warmup
        )
    finally:
        result.wall = time.perf_counter() - start
        if rec is not None:
            rec.close(span)
            result.restored = rec.restore()
    records = engine.metrics.records
    result.output_tokens = sum(r.output_tokens for r in records)
    window = [r for r in records if spec.warmup < r.finish_time <= spec.duration]
    result.window_latencies = [r.normalized_latency for r in window]
    result.window_requests = stats.num_requests
    result.window_output_tokens = stats.total_output_tokens
    result.window_duration = stats.duration
    result.completed = len(records)
    result.failed = engine.num_failed
    result.accounted = result.submitted == (
        result.completed + result.failed + engine.num_running + engine.num_waiting
    )
    result.stats = dict(engine.manager.stats)
    result.lookup_ok = lookup_identity(result.stats)
    result.events = engine.loop.dispatched
    result.iterations = engine.iterations
    result.suspensions = engine.suspensions
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.request_id}:{r.finish_time!r}:{r.output_tokens};".encode())
    result.digest = h.hexdigest()[:16]
    return result


def _sim_workloads(spec, seeds: List[int]):
    from repro.workload.dataset import SHAREGPT, generate_workload

    return [
        generate_workload(
            SHAREGPT,
            request_rate=spec.request_rate,
            duration=spec.duration,
            think_time_mean=spec.think_time,
            seed=s,
        )
        for s in seeds
    ]


def _sim_setup(spec, seeds: List[int]) -> Tuple[list, List[float]]:
    """Workload generation for every pass plus one engine build, repeated."""
    from repro.core.engine import PensieveEngine
    from repro.gpu.device import A100_80GB
    from repro.model.config import OPT_13B
    from repro.sim.events import EventLoop

    times = []
    workloads: list = []
    for _ in range(SETUP_REPEATS):
        workloads = []
        gc.collect()
        start = time.perf_counter()
        workloads = _sim_workloads(spec, seeds)
        PensieveEngine(EventLoop(), OPT_13B, A100_80GB)
        times.append(time.perf_counter() - start)
    return workloads, times


def sim_metrics(passes: List[SimPass], setup: List[float]) -> Dict[str, float]:
    """Every metric but ``setup_s`` and ``peak_rss_mb`` is a simulated
    result.  The simulator's own speed is ``sim.wall_tokens_per_s`` in the
    traced run: on a shared machine it swings too far to gate (README)."""
    latencies = [x for p in passes for x in p.window_latencies]
    simulated = sum(p.window_duration for p in passes)
    completed = sum(p.completed for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "output_tokens_per_s": _ratio(sum(p.window_output_tokens for p in passes), simulated),
        "norm_latency_p50_ms": _percentile(latencies, 50) * 1e3,
        "norm_latency_p90_ms": _percentile(latencies, 90) * 1e3,
        "throughput_rps": _ratio(sum(p.window_requests for p in passes), simulated),
        "completed_turn_ratio": _ratio(completed, completed + failed),
        "peak_rss_mb": peak_rss_mb(),
    }


def sim_layers(rec, traced: List[SimPass], untraced: List[SimPass]) -> Dict[str, float]:
    traced_wall = rec.total("sim.pass")
    untraced_wall = sum(p.wall for p in untraced)
    own = rec.self_times()
    manager = rec.layer_self("kvcache.")
    swap_out = rec.durations("kvcache.manager.swap_out")
    events = sum(p.events for p in untraced)
    stats: Dict[str, int] = {}
    for p in traced:
        for key, value in p.stats.items():
            stats[key] = stats.get(key, 0) + value
    out = {
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.wall_s": traced_wall,
        "trace.spans": float(len(rec)),
        "kvcache.share": _ratio(manager, traced_wall),
        "kvcache.gpu_occupancy_p50": _percentile(rec.samples["occupancy"], 50),
        "kvcache.fragmentation_tokens_max": float(max(rec.samples["fragmentation"], default=0)),
        "sim.wall_tokens_per_s": _ratio(sum(p.output_tokens for p in untraced), untraced_wall),
        "sim.manager_s": manager,
        "sim.manager_share": _ratio(manager, traced_wall),
        "sim.swap_out_us_p50": _percentile(swap_out, 50) * 1e6,
        "sim.cost_model_s": rec.total("gpu.iteration_time"),
        "sim.engine_self_s": own.get("sim.pass", 0.0),
        "sim.event_us": _ratio(untraced_wall, events) * 1e6,
        "sim.events": float(events),
        "sim.iterations": float(sum(p.iterations for p in untraced)),
        "sim.batch_requests_mean": _ratio(
            rec.counts["batch_items"], rec.counts["iterations_priced"]
        ),
        "sim.suspensions": float(sum(p.suspensions for p in untraced)),
    }
    out.update(manager_times(rec))
    out.update(cache_ratios(stats, rec.counts))
    return out


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from spans import SpanRecorder
    from workloads import SIM_SHAREGPT, sim_passes, sim_seeds

    spec = SIM_SHAREGPT
    seeds = sim_seeds(spec, seed, sim_passes(spec, seconds))
    workloads, setup = _sim_setup(spec, seeds)
    # Untimed warm-up: the first pass in a process runs about 10 % slower
    # while the heap grows.
    sim_pass(dataclasses.replace(spec, duration=SIM_WARMUP_S, warmup=0.0), workloads[0])
    passes = [sim_pass(spec, convs) for convs in workloads]
    checks: Dict[str, Any] = {
        "requests_accounted": all(p.accounted for p in passes),
        "lookup_identity": all(p.lookup_ok for p in passes),
    }
    if trace:
        rec = SpanRecorder()
        traced = [sim_pass(spec, convs, rec, i) for i, convs in enumerate(workloads)]
        checks["wrappers_restored"] = all(p.restored for p in traced)
        checks["traced_equals_untraced"] = [p.digest for p in traced] == [
            p.digest for p in passes
        ]
        metrics = sim_layers(rec, traced, passes)
        checks["trace_file"] = write_trace(rec, workload, seed)
    else:
        metrics = sim_metrics(passes, setup)
    traffic = {
        "passes": len(seeds),
        "pass_seeds": seeds,
        "request_rate": spec.request_rate,
        "simulated_s": spec.duration,
        "think_time_s": spec.think_time,
        "conversations": sum(len(w) for w in workloads),
        "requests_submitted": sum(p.submitted for p in passes),
        "scripted_prompt_tokens": sum(
            t.prompt_tokens for w in workloads for c in w for t in c.turns
        ),
        "simulated_output_tokens": sum(p.output_tokens for p in passes),
        "digest": hashlib.sha256(
            ",".join(p.digest for p in passes).encode()
        ).hexdigest()[:16],
    }
    return {
        "metrics": metrics,
        "attempted": sum(p.submitted for p in passes),
        "failed": sum(p.failed for p in passes),
        "checks": checks,
        "traffic": traffic,
        "errors": [],
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def write_trace(rec, workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
    rec.write_chrome(path)
    return path


def declared(trace: bool, workload: str, metrics: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every declared metric with its unit, 0 where the layer is idle."""
    if not trace:
        return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {}
    for name, (unit, workloads) in PER_LAYER.items():
        value = metrics.get(name, 0.0) if workload in workloads else 0.0
        result[name] = {"value": float(value), "unit": unit}
    return result


def _passed(checks: Dict[str, Any]) -> bool:
    return all(v for v in checks.values() if isinstance(v, bool))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    nproc = _pin_threads()
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    runner: Callable[..., Dict[str, Any]] = run_sim if args.workload == "sim-sharegpt" else run_chat
    result = runner(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = declared(bool(args.trace), args.workload, result["metrics"])
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print("fingerprint " + json.dumps(fingerprint(args.seed, nproc), sort_keys=True))
    print("traffic " + json.dumps(result["traffic"], sort_keys=True))
    print("checks " + json.dumps(result["checks"], sort_keys=True))
    for error in result["errors"][:5]:
        print("error " + error)
    print(
        json.dumps(
            {
                "correct": _passed(result["checks"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
