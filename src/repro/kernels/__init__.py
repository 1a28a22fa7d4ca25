"""Functional (numpy) attention kernels.

This subpackage implements, at the algorithm level, every attention kernel
the paper discusses:

- :func:`~repro.kernels.reference.reference_attention` — textbook
  materialised-softmax attention over a *contiguous* KV region; the ground
  truth all other kernels are verified against;
- :func:`~repro.kernels.multi_token.multi_token_attention` — **the paper's
  contribution (§4.4)**: attention between a ragged batch of multi-token
  queries and KV-tokens scattered over non-contiguous pages, with fused
  causal masking, computed with the same online-softmax tiling a fused GPU
  kernel uses;
- :func:`~repro.kernels.single_token.single_token_attention` — vLLM's
  PagedAttention: the one-query-token special case;
- :func:`~repro.kernels.strawmen.copyout_attention` and
  :func:`~repro.kernels.strawmen.multiround_attention` — the two Figure 12
  straw-men (functionally correct, structurally wasteful);
- :mod:`~repro.kernels.subrequests` — the Figure 8(d) splitting of a
  request whose query tokens occupy two disconnected context ranges
  (recomputed dropped prefix + new prompt) into sub-requests that share
  the underlying context;
- :mod:`~repro.kernels.batched` — the **performance layer**:
  :func:`~repro.kernels.batched.batched_single_token_attention` packs a
  whole decode batch into one flat gather + segmented reductions, and
  :func:`~repro.kernels.batched.vectorized_multi_token_attention` serves
  ragged prefill/mixed batches with one gather per request, zero-copy GQA
  broadcasting and a single-pass small-context fast path;
- :mod:`~repro.kernels.ragged` — the fully-ragged batched kernel:
  :func:`~repro.kernels.ragged.ragged_multi_token_attention` packs an
  entire prefill/mixed batch (CSR query offsets, one padded slot-table
  gather, segment-masked causal softmax, grouped-head GQA matmuls) into
  one numpy pass, with a memory-footprint guard falling back to the
  per-request vectorized kernel for pathological raggedness;
- :mod:`~repro.kernels.packed_cache` — the **incremental metadata
  layer**: :class:`~repro.kernels.packed_cache.PackedDecodeCache` keeps
  the decode batch's padded slot table and gathered-KV staging buffers
  alive across iterations (extend / repair / rebuild lifecycle keyed on
  block-table version counters), and
  :func:`~repro.kernels.packed_cache.packed_decode_attention` runs the
  same segment-masked decode math over the staged buffers;
- :mod:`~repro.kernels.dispatch` — the single dispatch point:
  :class:`~repro.kernels.dispatch.AttentionDispatch` exposes the packed
  decode, batched decode, ragged and multi-token entry points the
  transformer calls.  All fast kernels are verified (~1e-6) against the
  per-request kernels above, which remain the correctness oracle.

Code outside this package and the bench harness must reach attention
kernels through :class:`~repro.kernels.dispatch.AttentionDispatch`
(lint rule RPR006).
"""

from repro.kernels.request import AttentionRequest
from repro.kernels.reference import reference_attention, resolve_scale
from repro.kernels.multi_token import multi_token_attention
from repro.kernels.single_token import single_token_attention
from repro.kernels.batched import (
    batched_single_token_attention,
    segment_masked_decode,
    vectorized_multi_token_attention,
)
from repro.kernels.packed_cache import (
    DecodeSlotSource,
    PackedBatch,
    PackedDecodeCache,
    packed_decode_attention,
)
from repro.kernels.ragged import ragged_multi_token_attention
from repro.kernels.dispatch import AttentionDispatch
from repro.kernels.strawmen import copyout_attention, multiround_attention
from repro.kernels.subrequests import disjoint_query_spans, split_disjoint_query

__all__ = [
    "AttentionRequest",
    "reference_attention",
    "resolve_scale",
    "multi_token_attention",
    "single_token_attention",
    "batched_single_token_attention",
    "segment_masked_decode",
    "vectorized_multi_token_attention",
    "DecodeSlotSource",
    "PackedBatch",
    "PackedDecodeCache",
    "packed_decode_attention",
    "ragged_multi_token_attention",
    "AttentionDispatch",
    "copyout_attention",
    "multiround_attention",
    "disjoint_query_spans",
    "split_disjoint_query",
]
