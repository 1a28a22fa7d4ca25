"""Fully-ragged batched multi-token attention (one pass for mixed batches).

:func:`~repro.kernels.batched.batched_single_token_attention` already
serves all-decode batches as a single packed computation, but Pensieve's
unified batches (§4.2, §4.4.1) are the *mixed* case — prefill requests,
Figure 8(d) recompute-split sub-requests and decode requests in one
iteration — and :func:`~repro.kernels.batched.vectorized_multi_token_attention`
still walks those one request at a time in Python.  This module packs the
whole ragged batch into one segment-packed numpy computation, the way a
fused GPU kernel treats a ragged batch as one grid launch:

- **CSR row offsets**: every sub-request's query tokens are concatenated
  into one ``[total_q, heads, head_dim]`` tensor; ``offsets[i]`` marks
  where request ``i``'s rows start.  A single fancy-index scatter moves
  the concatenation into a padded ``[batch, max_q, heads, head_dim]``
  tensor (and the mirror-image gather pulls the outputs back out).
- **One slot-table gather**: each request's *visible* context slots form
  one row of a padded ``[batch, max_context]`` table, so the whole
  batch's K/V rows are gathered from the paged cache in one fancy-index
  — exactly the packing the decode kernel uses, generalised to ragged
  query counts.
- **Segment-masked causal scores**: query positions are scattered into
  the same padded layout (padded rows receive a sentinel position past
  every context) and a single boolean mask fuses the causal triangle
  with the per-request segment boundary, so one masked softmax and one
  weighted sum serve the entire batch.
- **Grouped-head GQA matmuls**: queries are viewed per KV head as
  ``[batch, kv_heads, max_q * group, head_dim]`` so scores and outputs
  are plain batched matmuls (BLAS) with no broadcast K/V copies.

Padding is the cost of packing: a batch mixing one very long prefill
with many decodes wastes most of the padded score tensor.  The kernel
therefore carries a **footprint guard** — when the padded score tensor
would exceed :data:`DEFAULT_MAX_SCORE_ELEMENTS` or the padded/useful
work ratio exceeds :data:`DEFAULT_MAX_PADDING_RATIO`, it delegates to
the per-request vectorized kernel, which does no padding at all.

Numerical equivalence (≤ 1e-6, in practice ~1e-12) to the per-request
:func:`~repro.kernels.multi_token.multi_token_attention` oracle —
including recompute-split and shared-prefix sub-requests — is pinned by
``tests/kernels/test_ragged_properties.py``; ``repro bench`` tracks the
speedup in the ``prefill``/``mixed`` families.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels.batched import (
    _check_denominator,
    _grouped_heads,
    vectorized_multi_token_attention,
)
from repro.kernels.reference import resolve_scale
from repro.kernels.request import AttentionRequest

#: Padded score-tensor element budget ([batch, heads, max_q, max_context]
#: as float64 this is ~128 MiB) above which the kernel falls back to the
#: per-request path rather than materialise a pathological padding.
DEFAULT_MAX_SCORE_ELEMENTS = 1 << 24

#: Maximum tolerated ratio of padded score elements to useful ones
#: (``sum(q_i * visible_i)``); beyond it the padding wastes more compute
#: than the packing saves in dispatch overhead.
DEFAULT_MAX_PADDING_RATIO = 8.0


def ragged_multi_token_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    scale: float = 0.0,
    max_score_elements: int = DEFAULT_MAX_SCORE_ELEMENTS,
    max_padding_ratio: float = DEFAULT_MAX_PADDING_RATIO,
) -> List[np.ndarray]:
    """One packed computation for a whole ragged prefill/mixed batch.

    Semantically identical to
    :func:`~repro.kernels.multi_token.multi_token_attention` (same
    request semantics: positioned queries, non-contiguous slots, fused
    causal masking, GQA); the batch is computed as a single padded
    gather + masked softmax + weighted sum instead of a Python loop
    over requests.

    Args:
        requests: the ragged batch; query counts and context lengths may
            differ arbitrarily, and query chunks may sit *inside* their
            context (Figure 8(d) sub-requests).
        k_cache / v_cache: ``[num_slots, kv_heads, head_dim]`` slot
            arrays for one layer.
        scale: score scaling, default ``1/sqrt(head_dim)``.
        max_score_elements: padded score-tensor element budget of the
            footprint guard.
        max_padding_ratio: padded/useful work ratio of the footprint
            guard.

    Returns:
        One ``[num_query_tokens, num_heads, head_dim]`` output per
        request, in request order.
    """
    if k_cache.shape != v_cache.shape:
        raise ValueError(
            f"K/V cache shape mismatch: {k_cache.shape} vs {v_cache.shape}"
        )
    if not requests:
        return []
    kv_heads, head_dim = k_cache.shape[1], k_cache.shape[2]
    scale = resolve_scale(scale, head_dim)
    num_heads = requests[0].num_heads
    for request in requests:
        if request.num_heads != num_heads:
            raise ValueError(
                f"heterogeneous head counts in ragged batch: "
                f"{request.num_heads} vs {num_heads}"
            )
    group = _grouped_heads(num_heads, kv_heads)

    outputs: List[np.ndarray] = [
        np.zeros((0, num_heads, head_dim), dtype=k_cache.dtype)
    ] * len(requests)
    active = [i for i, r in enumerate(requests) if r.num_query_tokens > 0]
    if not active:
        return outputs

    n = len(active)
    q_lens = np.array([requests[i].num_query_tokens for i in active])
    visibles = np.array([requests[i].visible_context_len() for i in active])
    max_q = int(q_lens.max())
    max_c = int(visibles.max())

    # Footprint guard: the padded score tensor is the price of packing.
    score_elements = n * num_heads * max_q * max_c
    useful_elements = num_heads * int((q_lens * visibles).sum())
    if (
        score_elements > max_score_elements
        or score_elements > max_padding_ratio * useful_elements
    ):
        return vectorized_multi_token_attention(
            requests, k_cache, v_cache, scale=scale
        )

    # CSR layout of the ragged queries: request active[i]'s rows live at
    # [offsets[i], offsets[i+1]) of the concatenation; (row_idx, col_idx)
    # is that range's address in the padded [n, max_q] layout.
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(q_lens, out=offsets[1:])
    total_q = int(offsets[-1])
    row_idx = np.repeat(np.arange(n), q_lens)
    col_idx = np.arange(total_q) - offsets[row_idx]

    # ONE scatter packs the ragged queries; padded rows stay zero.
    q_cat = np.concatenate([requests[i].query for i in active])
    q_pad = np.zeros((n, max_q, num_heads, head_dim), dtype=q_cat.dtype)
    q_pad[row_idx, col_idx] = q_cat

    # Padded query positions.  Padding rows get a sentinel past every
    # context position: they causally "see" their request's whole visible
    # segment, so their softmax stays finite and no NaN can leak into the
    # real rows through reductions.
    pos_pad = np.full((n, max_q), max_c, dtype=np.int64)
    pos_pad[row_idx, col_idx] = np.concatenate(
        [requests[i].query_positions() for i in active]
    )

    # Packed slot table (same shape trick as the decode kernel): row i
    # holds request active[i]'s visible context slots, padded with slot 0
    # — masked below.  ONE gather over the paged cache for the batch.
    table = np.zeros((n, max_c), dtype=np.int64)
    for ai, i in enumerate(active):
        table[ai, : visibles[ai]] = np.asarray(
            requests[i].slots[: visibles[ai]], dtype=np.int64
        )
    k = k_cache[table]  # [n, C, kv_heads, head_dim]
    v = v_cache[table]

    # Grouped-head layout: fold (max_q, group) into one matmul row axis so
    # scores/outputs are plain batched BLAS matmuls per (batch, kv head).
    # The scale is folded into the (small) query tensor so the padded
    # score tensor never needs a separate scaling pass.
    q_grouped = (
        q_pad.reshape(n, max_q, kv_heads, group, head_dim)
        .transpose(0, 2, 1, 3, 4)
        .reshape(n, kv_heads, max_q * group, head_dim)
    )
    q_grouped *= scale
    scores = q_grouped @ k.transpose(0, 2, 3, 1)  # [n, kv, q*g, C]
    scores = scores.reshape(n, kv_heads, max_q, group, max_c)

    # Fused mask: the causal triangle (position j visible to query at
    # position p iff j <= p) AND the per-request segment boundary (padding
    # slots past ``visible`` never attend).  Applied as one broadcast
    # additive bias (0 / -inf) — a single fused pass over the score
    # tensor, no full-size temporary.
    ctx_positions = np.arange(max_c)
    valid = (ctx_positions[None, None, :] <= pos_pad[:, :, None]) & (
        ctx_positions[None, None, :] < visibles[:, None, None]
    )  # [n, max_q, C]
    bias = np.where(valid, scores.dtype.type(0.0), scores.dtype.type(-np.inf))
    scores += bias[:, None, :, None, :]

    # Single masked softmax for the entire batch.  Every row — padded
    # rows included — has at least one visible position, so the max is
    # finite and the denominator positive.
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    denom = weights.sum(axis=-1)
    _check_denominator(denom)

    # Single weighted sum; the normalisation divides the (much smaller)
    # output tensor rather than the padded weights.  Then the
    # mirror-image gather un-packs the outputs back into per-request
    # tensors.
    out = weights.reshape(n, kv_heads, max_q * group, max_c) @ v.transpose(
        0, 2, 1, 3
    )  # [n, kv, q*g, head_dim]
    out = out.reshape(n, kv_heads, max_q, group, head_dim) / denom[..., None]
    out = out.transpose(0, 2, 1, 3, 4).reshape(n, max_q, num_heads, head_dim)
    out_cat = out[row_idx, col_idx]  # [total_q, heads, head_dim]
    for ai, i in enumerate(active):
        outputs[i] = out_cat[offsets[ai] : offsets[ai + 1]]
    return outputs
