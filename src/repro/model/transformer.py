"""A paged-KV-cache transformer in numpy.

:class:`PagedTransformer` runs real forward passes for batches of requests
whose KV caches live at arbitrary physical slots of a
:class:`~repro.kvcache.storage.KVStorage`.  It supports both paper
architectures (OPT and Llama 2) and the full Pensieve request shape:

- unified batches mixing prefill (multi-token) and generation
  (single-token) requests (§4.2);
- contexts scattered over non-contiguous pages (Figure 6);
- requests whose input tokens cover two disconnected context ranges —
  recomputed dropped prefix + new prompt — via Figure 8(d) sub-request
  splitting.

The model is intentionally small-scale (tests use 2-4 layers, hidden 32)
but architecturally faithful; it exists to prove the serving machinery
end-to-end: a conversation served over many turns with arbitrary
swap-out/swap-in/drop traffic must produce *identical* logits to a
stateless from-scratch run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.kernels import (
    AttentionDispatch,
    AttentionRequest,
    disjoint_query_spans,
    split_disjoint_query,
)
from repro.kernels.packed_cache import (
    DecodeSlotSource,
    PackedBatch,
    PackedDecodeCache,
)
from repro.kvcache.storage import KVStorage
from repro.model.config import ModelConfig
from repro.model.layers import LayerNorm, Linear, OptMlp, RMSNorm, SwiGluMlp
from repro.model.rope import apply_rope

#: Declared absolute tolerance of a float32 model's logits against the
#: float64 oracle built from the same seed, whose weights are the exact
#: upcast of the float32 ones.  The worst measured gap on the tiny OPT and
#: Llama presets, over 8 seeds of two prefills plus 30 decode steps, was
#: 4.6e-7 (ARCHITECTURE.md §16); the bound leaves about 4x headroom.
FLOAT32_LOGIT_ATOL = 2e-6


@dataclass
class ForwardRequest:
    """One request's share of a batched forward pass.

    Attributes:
        input_ids: ``[n_new]`` raw token ids to process this step: for a
            prefill request the (possibly recompute-prefixed) prompt, for a
            generation request the single last-output token.
        context_slots: physical slots of the **entire** context in logical
            order, length ``total_context``.  Includes the slots the new
            tokens will be written to.
        positions: ``[n_new]`` logical positions of the input tokens within
            the context.  Defaults to the trailing positions.
        dropped: number of leading input tokens that are a recomputed
            dropped prefix (positions ``[shared_prefix, shared_prefix +
            dropped)``); the rest are the new prompt at the trailing
            positions.
        shared_prefix: tokens of always-resident shared context (e.g. a
            common system prompt) at the very front of ``context_slots``;
            they are never recomputed and never written by this request.
        slot_view: optional :class:`~repro.kernels.packed_cache.DecodeSlotSource`
            describing the context *by reference* (block table + shared
            prefix slots) instead of as a materialised array.  When given,
            ``context_slots`` may be ``None``: the packed decode path
            reads the table incrementally and the full array is only
            materialised on demand for fallback kernels.  Requires
            ``dropped == 0`` (a recompute split has no single table).
    """

    input_ids: np.ndarray
    context_slots: Optional[Sequence[int]]
    positions: Optional[np.ndarray] = None
    dropped: int = 0
    shared_prefix: int = 0
    slot_view: Optional[DecodeSlotSource] = None

    def __post_init__(self) -> None:
        self.input_ids = np.asarray(self.input_ids, dtype=np.int64)
        n_new = self.input_ids.shape[0]
        if self.context_slots is None:
            if self.slot_view is None:
                raise ValueError(
                    "context_slots may only be omitted with a slot_view"
                )
            if self.dropped != 0:
                raise ValueError(
                    "slot_view-backed requests cannot carry a recompute split"
                )
            total = self.slot_view.total_len
        else:
            total = len(self.context_slots)
        self.total_context = total
        if self.dropped < 0 or self.dropped > n_new:
            raise ValueError(f"invalid dropped count {self.dropped}")
        if self.shared_prefix < 0 or self.shared_prefix + n_new > total:
            raise ValueError(
                f"{n_new} input tokens plus shared prefix "
                f"{self.shared_prefix} exceed context of {total} slots"
            )
        if self.positions is None:
            prompt = n_new - self.dropped
            lead = self.shared_prefix + np.arange(self.dropped)
            tail = np.arange(total - prompt, total)
            self.positions = np.concatenate([lead, tail])
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.positions.shape[0] != n_new:
            raise ValueError("positions must match input token count")

    @property
    def num_new_tokens(self) -> int:
        return int(self.input_ids.shape[0])

    def full_context_slots(self) -> np.ndarray:
        """The entire context's physical slots in logical order,
        materialising from the slot view when ``context_slots`` is
        omitted."""
        if self.context_slots is not None:
            return np.asarray(self.context_slots, dtype=np.int64)
        view = self.slot_view
        table_slots = view.table.slots_array(0, view.table.length)
        if len(view.prefix) == 0:
            return table_slots
        return np.concatenate(
            [np.asarray(view.prefix, dtype=np.int64), table_slots]
        )

    def write_slots(self) -> np.ndarray:
        """Physical slots the new tokens' KV rows are written to."""
        if self.context_slots is not None:
            return np.asarray(self.context_slots, dtype=np.int64)[self.positions]
        view = self.slot_view
        prefix_len = len(view.prefix)
        # New tokens always live past the shared prefix, so their slots
        # come straight from the block table — no full materialisation.
        return np.fromiter(
            (view.table.slot(int(p) - prefix_len) for p in self.positions),
            dtype=np.int64,
            count=self.num_new_tokens,
        )


@dataclass
class _RequestPlan:
    """Per-batch precomputation for one request (layer-invariant).

    Everything here depends only on the request's *shape* — slot lists,
    sub-request spans, write targets — so it is computed once per forward
    pass instead of once per layer (the seed implementation re-derived all
    of it ``num_layers`` times).
    """

    write_slots: np.ndarray
    #: ``(q_lo, q_hi, slots, query_offset)`` per Figure 8(d) sub-request.
    #: ``None`` for slot_view-backed requests until a fallback kernel
    #: needs them (the packed decode path never does).
    spans: Optional[List[tuple]]
    #: True iff this request is a pure generation step (one trailing query
    #: token, no recompute split) — eligible for the batched decode kernel.
    decode_shaped: bool

    @staticmethod
    def build(request: "ForwardRequest") -> "_RequestPlan":
        decode_shaped = request.num_new_tokens == 1 and request.dropped == 0
        if request.context_slots is None:
            # Slot-view request: defer span materialisation; the packed
            # decode path reads the block table incrementally instead.
            return _RequestPlan(request.write_slots(), None, decode_shaped)
        return _RequestPlan(
            request.write_slots(),
            _RequestPlan._build_spans(request),
            decode_shaped,
        )

    @staticmethod
    def _build_spans(request: "ForwardRequest") -> List[tuple]:
        # One int64 conversion per request; span slot lists are zero-copy
        # views into it.
        slots = request.full_context_slots()
        return [
            (q_lo, q_hi, slots[:context_end], query_offset)
            for q_lo, q_hi, context_end, query_offset in disjoint_query_spans(
                request.num_new_tokens,
                len(slots),
                request.dropped,
                shared_prefix=request.shared_prefix,
            )
        ]

    def ensure_spans(self, request: "ForwardRequest") -> List[tuple]:
        if self.spans is None:
            self.spans = _RequestPlan._build_spans(request)
        return self.spans


@dataclass
class _LayerWeights:
    attn_norm: object
    q_proj: Linear
    k_proj: Linear
    v_proj: Linear
    o_proj: Linear
    mlp_norm: object
    mlp: object


class PagedTransformer:
    """Decoder-only transformer executing over a paged KV storage.

    The model computes in its storage's dtype (``storage.k.dtype``):
    weights, embeddings, activations, RoPE tables and attention all take
    it, so no product mixes precisions.  The server's float32 default
    mirrors Pensieve serving one reduced-precision dtype end to end; a
    float64 storage gives the oracle model, whose weights are the exact
    upcast of the float32 model's for the same seed (both are drawn in
    float32).  ARCHITECTURE.md §16 records the rule and the declared
    float32 tolerance.

    Args:
        config: model hyper-parameters (use the tiny presets for tests).
        storage: slot-indexed K/V arrays shared with the cache manager.
        seed: weight initialisation seed (deterministic).
        use_fast_paths: dispatch to the vectorized kernel layer
            (:mod:`repro.kernels.batched`) with per-batch hoisting of the
            sub-request split and write-slot computation.  ``False`` runs
            the original per-layer, per-request tiled path — kept as the
            end-to-end baseline the benchmark harness measures against.
        packing_cache: keep a :class:`PackedDecodeCache` so all-decode
            batches of slot_view-backed requests reuse their packed slot
            table and gathered-KV staging buffers across iterations
            instead of rebuilding both every step.  Requires
            ``use_fast_paths``; numerically transparent either way.
    """

    def __init__(
        self,
        config: ModelConfig,
        storage: KVStorage,
        seed: int = 0,
        use_fast_paths: bool = True,
        packing_cache: bool = True,
    ) -> None:
        if storage.config is not config and (
            storage.config.num_layers != config.num_layers
            or storage.config.num_kv_heads != config.num_kv_heads
            or storage.config.head_dim != config.head_dim
        ):
            raise ValueError("storage shape does not match model config")
        self.config = config
        self.storage = storage
        self.use_fast_paths = use_fast_paths
        # Every attention kernel is called through this object (RPR006),
        # so tracing can wrap its methods per instance.
        self.backend = AttentionDispatch()
        self.decode_cache: Optional[PackedDecodeCache] = (
            PackedDecodeCache() if (packing_cache and use_fast_paths) else None
        )
        dtype = storage.k.dtype
        rng = np.random.default_rng(seed)
        h = config.hidden_size
        kv = config.kv_dim
        with_bias = config.arch == "opt"

        def embedding_table(rows: int) -> np.ndarray:
            table = rng.standard_normal((rows, h), dtype=np.float32)
            table *= 0.02
            return table.astype(dtype, copy=False)

        def proj(out_dim: int) -> Linear:
            return Linear.init(rng, h, out_dim, with_bias=with_bias, dtype=dtype)

        self.embedding = embedding_table(config.vocab_size)
        if config.arch == "opt":
            self.pos_embedding = embedding_table(config.max_position)
        else:
            self.pos_embedding = None
        self.layers: List[_LayerWeights] = []
        for _ in range(config.num_layers):
            if config.arch == "opt":
                attn_norm: object = LayerNorm.identity(h, dtype)
                mlp_norm: object = LayerNorm.identity(h, dtype)
                mlp: object = OptMlp.init(rng, h, config.intermediate_size, dtype)
            else:
                attn_norm = RMSNorm.identity(h, dtype)
                mlp_norm = RMSNorm.identity(h, dtype)
                mlp = SwiGluMlp.init(rng, h, config.intermediate_size, dtype)
            self.layers.append(
                _LayerWeights(
                    attn_norm=attn_norm,
                    q_proj=proj(h),
                    k_proj=proj(kv),
                    v_proj=proj(kv),
                    o_proj=proj(h),
                    mlp_norm=mlp_norm,
                    mlp=mlp,
                )
            )
        self.final_norm = (
            LayerNorm.identity(h, dtype)
            if config.arch == "opt"
            else RMSNorm.identity(h, dtype)
        )
        self.lm_head = self.embedding.T  # weight tying

    # ------------------------------------------------------------------

    def forward(self, batch: Sequence[ForwardRequest]) -> List[np.ndarray]:
        """Run one batched iteration.

        Writes the new tokens' K/V into the paged storage (Figure 8 step c)
        and returns, per request, the ``[n_new, vocab]`` logits of its input
        tokens (callers typically sample from the last row).
        """
        if not batch:
            return []
        # Unified batch formation (§4.4.1): concatenate all requests'
        # input tokens into one token-major activation tensor.
        hidden = [self._embed(r) for r in batch]
        x = np.concatenate(hidden, axis=0)  # [sum_n, h]
        bounds = np.cumsum([0] + [r.num_new_tokens for r in batch])
        # Layer-invariant structure (sub-request spans, write slots) is
        # derived once per batch, not once per layer.
        plans = (
            [_RequestPlan.build(r) for r in batch] if self.use_fast_paths else None
        )
        # Incremental pack: ONCE per forward pass (the slot layout is
        # layer-invariant), not once per layer, and only the rows whose
        # block table changed since the previous iteration are repacked.
        packed: Optional[PackedBatch] = None
        if (
            plans is not None
            and self.decode_cache is not None
            and all(
                p.decode_shaped and r.slot_view is not None
                for p, r in zip(plans, batch)
            )
        ):
            packed = self.decode_cache.pack([r.slot_view for r in batch])

        for layer_idx, w in enumerate(self.layers):
            x = x + self._attention_block(
                layer_idx, w, x, batch, bounds, plans, packed
            )
            x = x + w.mlp(w.mlp_norm(x))

        x = self.final_norm(x)
        logits = x @ self.lm_head
        return [logits[bounds[i] : bounds[i + 1]] for i in range(len(batch))]

    def next_token_logits(self, batch: Sequence[ForwardRequest]) -> List[np.ndarray]:
        """Logits for the *last* input token of each request (the row used
        to predict the next token)."""
        return [logits[-1] for logits in self.forward(batch)]

    def greedy_token(self, logits: np.ndarray) -> int:
        """Deterministic argmax sampling."""
        return int(np.argmax(logits))

    # ------------------------------------------------------------------

    def _embed(self, request: ForwardRequest) -> np.ndarray:
        x = self.embedding[request.input_ids]
        if self.pos_embedding is not None:
            x = x + self.pos_embedding[request.positions]
        return x

    def _attention_block(
        self,
        layer_idx: int,
        w: _LayerWeights,
        x: np.ndarray,
        batch: Sequence[ForwardRequest],
        bounds: np.ndarray,
        plans: Optional[List[_RequestPlan]] = None,
        packed: Optional[PackedBatch] = None,
    ) -> np.ndarray:
        cfg = self.config
        normed = w.attn_norm(x)
        q = w.q_proj(normed).reshape(-1, cfg.num_heads, cfg.head_dim)
        k = w.k_proj(normed).reshape(-1, cfg.num_kv_heads, cfg.head_dim)
        v = w.v_proj(normed).reshape(-1, cfg.num_kv_heads, cfg.head_dim)

        if packed is not None:
            # All-decode packed path: one token per request, rows in batch
            # order — RoPE, the KV store and the attention all run as
            # single whole-batch operations, and the attention reads the
            # cache through the incremental staging buffers.
            positions = np.fromiter(
                (int(r.positions[0]) for r in batch),
                dtype=np.int64,
                count=len(batch),
            )
            if cfg.arch == "llama":
                q = apply_rope(q, positions)
                k = apply_rope(k, positions)
            write_slots = np.concatenate([p.write_slots for p in plans])
            self.storage.write(layer_idx, write_slots, k, v)
            out = self.backend.decode_attention(
                q,
                packed,
                layer_idx,
                self.storage.k[layer_idx],
                self.storage.v[layer_idx],
            )
            return w.o_proj(out.reshape(x.shape[0], -1))

        outputs = np.empty_like(q)
        kernel_requests = []
        owners: List[slice] = []
        for i, request in enumerate(batch):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            q_i, k_i, v_i = q[lo:hi], k[lo:hi], v[lo:hi]
            if cfg.arch == "llama":
                q_i = apply_rope(q_i, request.positions)
                k_i = apply_rope(k_i, request.positions)
            if plans is None:
                # Reference path: re-derive the split and write targets
                # per layer, exactly as the seed implementation did.
                self.storage.write(layer_idx, request.write_slots(), k_i, v_i)
                subs = split_disjoint_query(
                    q_i,
                    list(request.full_context_slots()),
                    request.dropped,
                    shared_prefix=request.shared_prefix,
                )
            else:
                plan = plans[i]
                # Figure 8 step (c): store the new tokens' K/V.
                self.storage.write(layer_idx, plan.write_slots, k_i, v_i)
                subs = [
                    AttentionRequest(
                        query=q_i[q_lo:q_hi], slots=slots, query_offset=offset
                    )
                    for q_lo, q_hi, slots, offset in plan.ensure_spans(request)
                ]
            start = lo
            for sub in subs:
                kernel_requests.append(sub)
                owners.append(slice(start, start + sub.num_query_tokens))
                start += sub.num_query_tokens

        k_layer = self.storage.k[layer_idx]
        v_layer = self.storage.v[layer_idx]
        if plans is None:
            sub_outputs = self.backend.multi_token_attention(
                kernel_requests, k_layer, v_layer
            )
        elif all(plan.decode_shaped for plan in plans):
            # All-generation batch: one packed pass over the cache for the
            # entire batch (vLLM's PagedAttention decode formulation).
            sub_outputs = self.backend.batched_decode_attention(
                kernel_requests, k_layer, v_layer
            )
        else:
            # Ragged prefill/mixed batch: one segment-packed pass for all
            # sub-requests (falls back internally to the per-request
            # vectorized kernel when padding would be pathological).
            sub_outputs = self.backend.ragged_attention(
                kernel_requests, k_layer, v_layer
            )
        for region, out in zip(owners, sub_outputs):
            outputs[region] = out
        return w.o_proj(outputs.reshape(x.shape[0], -1))
