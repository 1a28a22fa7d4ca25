"""Spans recorded around the program's public calls, from outside it.

:class:`SpanRecorder` replaces bound methods on live objects with timing
wrappers (instance attributes shadowing the class methods) and puts the
originals back in :meth:`SpanRecorder.restore`.  Spans are kept in memory
in compact columns — name, start, end, parent, context id (round or pass)
— so the simulator's few hundred thousand manager calls per pass cost a
few megabytes.  :meth:`SpanRecorder.write_chrome` writes them at exit
through the repository's own Chrome-trace exporter.

Span names start with their layer (``server.``, ``model.``, ``kernels.``,
``kvcache.``, ``gpu.``, ``sim.``); a layer's self time is its spans'
durations minus the parts their child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Spans beyond this many are kept for the metrics but not written out,
#: which bounds the trace file of a simulator run to a few tens of MB.
EXPORT_LIMIT = 50_000

#: Priced iterations per fragmentation sample in the simulator.
FRAG_EVERY = 16

#: Public manager calls made by the server and the simulated engine.
MANAGER_CALLS = (
    "open",
    "close",
    "plan_restore",
    "commit_restore",
    "ensure_capacity",
    "reclaim",
    "swap_out",
    "append_tokens",
    "drop_from_cpu",
    "drop_from_disk",
    "release_conversation_gpu",
    "invalidate_cpu_prefix",
    "invalidate_disk_prefix",
)

#: Transitions that start and consume an ahead-of-time copy (§4.3.2).
_AOT_COPY = ("gpu", "gpu_cpu")
_AOT_USED = ("gpu_cpu", "cpu")


class SpanRecorder:
    """In-memory span store plus the method wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.ctx = array("i")
        self._stack: List[int] = [-1]
        #: Round (chat) or pass (simulator) the next spans belong to.
        self.context = -1
        #: Counts gathered at the wrapped boundaries (bytes, FLOPs, tokens).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Gauges sampled at the wrapped boundaries (occupancy, ...).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._patches: List[Tuple[object, str, Any, Any]] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.t1)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.ctx.append(self.context)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        before: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``before`` sees the call's arguments first; it may record counts
        and may return a different span name for this call.
        """
        original = getattr(obj, attr)
        own = vars(obj)
        fixed = self._name_id(name)
        # Hot path (hundreds of thousands of calls per simulated pass):
        # the bookkeeping of open()/close() inlined on prebound methods.
        recorder, stack, t1 = self, self._stack, self.t1
        push_name, push_parent, push_ctx = (
            self.name.append, self.parent.append, self.ctx.append
        )
        push_t0, push_t1, perf = self.t0.append, self.t1.append, time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            nid = fixed
            if before is not None:
                other = before(*args, **kwargs)
                if other is not None:
                    nid = recorder._name_id(other)
            idx = len(t1)
            push_name(nid)
            push_parent(stack[-1])
            push_ctx(recorder.context)
            push_t1(0.0)
            stack.append(idx)
            push_t0(perf())
            try:
                return original(*args, **kwargs)
            finally:
                t1[idx] = perf()
                stack.pop()

        self._patches.append((obj, attr, own.get(attr), timed))
        setattr(obj, attr, timed)

    def restore(self) -> bool:
        """Put back every wrapped method, newest first; True when no
        wrapper is reachable afterwards."""
        undone = []
        while self._patches:
            obj, attr, previous, timed = self._patches.pop()
            if previous is not None:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)
            undone.append((obj, attr, timed))
        return all(getattr(obj, attr) is not timed for obj, attr, timed in undone)

    def __len__(self) -> int:
        return len(self.t1)

    # -- analysis ------------------------------------------------------

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(
            self.t0, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return names, dur, parent

    def durations(self, name: str) -> np.ndarray:
        """Durations (s) of every span called ``name``."""
        nid = self._name_ids.get(name)
        if nid is None or not len(self):
            return np.empty(0)
        names, dur, _ = self._columns()
        return dur[names == nid]

    def total(self, *names: str) -> float:
        """Summed inclusive time (s) of the spans called ``names``."""
        return float(sum(self.durations(n).sum() for n in names))

    def self_times(self) -> Dict[str, float]:
        """Self time (s) per span name: duration minus child durations."""
        if not len(self):
            return {}
        names, dur, parent = self._columns()
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        sums = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: float(sums[i]) for i, n in enumerate(self.names)}

    def layer_self(self, prefix: str) -> float:
        """Self time (s) of every span whose name starts with ``prefix``."""
        return sum(v for k, v in self.self_times().items() if k.startswith(prefix))

    # -- export ----------------------------------------------------------

    def write_chrome(self, path: str) -> int:
        """Write the spans as a Chrome trace (``chrome://tracing`` or
        Perfetto) through :func:`repro.obs.to_chrome_trace`; returns the
        number of spans written."""
        from repro.obs import Tracer, to_chrome_trace

        tracer = Tracer()
        n = min(len(self), EXPORT_LIMIT)
        for i in range(n):
            parent = self.parent[i]
            name = self.names[self.name[i]]
            tracer.complete(
                name,
                self.t0[i] - self._origin,
                self.t1[i] - self._origin,
                parent=parent + 1 if parent >= 0 else None,
                track=name.split(".", 1)[0],
                ctx=self.ctx[i],
            )
        if len(self) > n:
            tracer.count("spans_not_written", len(self) - n)
        to_chrome_trace(tracer, path, time_axis="sim")
        return n


# ----------------------------------------------------------------------
# Wrappers for each half
# ----------------------------------------------------------------------


def watch_transitions(rec: SpanRecorder, manager: Any) -> None:
    """Time the manager's tier-transition observer and count the
    ahead-of-time copies it starts and the ones later reclaimed."""

    def before(cache: Any, chunk: Any, old: Any, new: Any) -> None:
        move = (old.value, new.value)
        if move == _AOT_COPY:
            rec.counts["aot_copied_tokens"] += chunk.num_tokens
        elif move == _AOT_USED:
            rec.counts["aot_reclaimed_tokens"] += chunk.num_tokens

    rec.wrap(manager, "observer", "kvcache.observer", before)


def watch_manager(rec: SpanRecorder, manager: Any) -> None:
    for call in MANAGER_CALLS:
        rec.wrap(manager, call, f"kvcache.manager.{call}")
    watch_transitions(rec, manager)


def watch_server(rec: SpanRecorder, server: Any) -> None:
    """Wrap the functional server's layers: ``chat_batch``, the model's
    forward pass, the backend's attention kernels, the cache manager and
    the KV stores."""
    cfg = server.config
    model = server.model
    rec.wrap(server, "chat_batch", "server.chat_batch")

    def forward(batch: Any) -> str:
        if all(r.num_new_tokens == 1 and r.dropped == 0 for r in batch):
            return "model.forward.decode"
        rec.counts["prefill_tokens"] += sum(r.num_new_tokens for r in batch)
        rec.counts["recompute_tokens"] += sum(r.dropped for r in batch)
        return "model.forward.prefill"

    rec.wrap(model, "forward", "model.forward", forward)

    def decode_attention(queries: Any, batch: Any, layer: Any, k: Any, v: Any, *a: Any) -> None:
        # K and V rows of every context token, from the call shapes.
        row = k.shape[1] * k.shape[2] * k.itemsize
        rec.counts["decode_attn_bytes"] += 2.0 * row * float(batch.lengths.sum())

    def prefill_attention(requests: Any, k: Any, v: Any, *a: Any) -> None:
        flops = 0.0
        for r in requests:
            n, heads, dim = r.query.shape
            # Query i attends to positions 0..query_offset+i (causal).
            keys = n * (r.query_offset + 1) + n * (n - 1) / 2
            flops += 4.0 * heads * dim * keys
        rec.counts["prefill_attn_flops"] += flops

    backend = model.backend
    rec.wrap(backend, "decode_attention", "kernels.decode_attn", decode_attention)
    rec.wrap(backend, "batched_decode_attention", "kernels.decode_attn")
    rec.wrap(backend, "ragged_attention", "kernels.prefill_attn", prefill_attention)
    rec.wrap(backend, "multi_token_attention", "kernels.prefill_attn", prefill_attention)

    watch_manager(rec, server.manager)

    storage = server.storage

    def stacked_read(groups: Any) -> None:
        tokens = sum(len(g) for g in groups)
        rec.counts["d2h_bytes"] += tokens * cfg.num_layers * 2 * cfg.kv_dim * storage.k.itemsize

    def single_read(slots: Any) -> None:
        stacked_read([slots])

    def stacked_write(groups: Any, kvs: Any) -> None:
        rec.counts["h2d_bytes"] += sum(k.nbytes + v.nbytes for k, v in kvs)

    rec.wrap(storage, "read_slots_stacked", "kvcache.storage.d2h_gather", stacked_read)
    rec.wrap(storage, "read_all_layers", "kvcache.storage.d2h_gather", single_read)
    rec.wrap(storage, "write_slots_stacked", "kvcache.storage.h2d_scatter", stacked_write)
    for store, tier in ((server.cpu_store, "cpu"), (server.disk_store, "disk")):
        rec.wrap(store, "put", f"kvcache.storage.{tier}_put")
        rec.wrap(store, "put_many", f"kvcache.storage.{tier}_put")
        rec.wrap(store, "pop_many", f"kvcache.storage.{tier}_pop")
        rec.wrap(store, "transfer_to", f"kvcache.storage.{tier}_demote")
        rec.wrap(store, "drop", f"kvcache.storage.{tier}_drop")


def watch_engine(rec: SpanRecorder, engine: Any) -> None:
    """Wrap the simulated engine's cache manager and cost model.

    Each priced iteration also samples GPU-tier occupancy, and every
    :data:`FRAG_EVERY`-th one the manager's O(conversations)
    fragmentation scan.
    """
    manager = engine.manager

    def iteration(shape: Any, *a: Any, **kw: Any) -> None:
        n = rec.counts["iterations_priced"]
        rec.counts["iterations_priced"] = n + 1
        rec.counts["batch_items"] += len(shape)
        occupancy.append(manager.gpu_resident_tokens / manager.gpu_capacity_tokens)
        if int(n) % FRAG_EVERY == 0:
            fragmentation.append(manager.fragmentation_tokens())

    occupancy = rec.samples["occupancy"]
    fragmentation = rec.samples["fragmentation"]
    rec.wrap(engine.cost_model, "iteration_time", "gpu.iteration_time", iteration)
    watch_manager(rec, manager)
