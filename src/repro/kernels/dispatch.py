"""The single attention dispatch point of the functional stack.

:class:`AttentionDispatch` is the one place model code reaches attention
kernels from (lint rule RPR006).  It runs the paged kernels over the
natural-layout :class:`~repro.kernels.packed_cache.PackedDecodeCache`
staging; ARCHITECTURE.md §15 records the alternatives that were measured
and removed.  Tracing wraps these methods per instance, so the
transformer must call them through the object it holds.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

import numpy as np

from repro.kernels.batched import batched_single_token_attention
from repro.kernels.multi_token import multi_token_attention
from repro.kernels.packed_cache import PackedBatch, packed_decode_attention
from repro.kernels.ragged import ragged_multi_token_attention
from repro.kernels.request import AttentionRequest

__all__ = ["AttentionDispatch"]


class AttentionDispatch:
    """The attention entry points :class:`PagedTransformer` calls."""

    def decode_attention(
        self,
        queries: np.ndarray,
        batch: PackedBatch,
        layer_key: Hashable,
        k_cache: np.ndarray,
        v_cache: np.ndarray,
        scale: float = 0.0,
    ) -> np.ndarray:
        """Single-token decode over the packing cache's staged KV
        (``[n, num_heads, head_dim]`` in and out)."""
        return packed_decode_attention(
            queries, batch, layer_key, k_cache, v_cache, scale
        )

    def batched_decode_attention(
        self,
        requests: Sequence[AttentionRequest],
        k_cache: np.ndarray,
        v_cache: np.ndarray,
        scale: float = 0.0,
    ) -> List[np.ndarray]:
        """Fused single-token decode for a whole batch, gathered fresh
        (no packing cache involved)."""
        return batched_single_token_attention(requests, k_cache, v_cache, scale)

    def ragged_attention(
        self,
        requests: Sequence[AttentionRequest],
        k_cache: np.ndarray,
        v_cache: np.ndarray,
        scale: float = 0.0,
    ) -> List[np.ndarray]:
        """Fused mixed prefill+decode attention for a ragged batch."""
        return ragged_multi_token_attention(requests, k_cache, v_cache, scale)

    def multi_token_attention(
        self,
        requests: Sequence[AttentionRequest],
        k_cache: np.ndarray,
        v_cache: np.ndarray,
        scale: float = 0.0,
    ) -> List[np.ndarray]:
        """Per-request multi-token attention (the reference path)."""
        return multi_token_attention(requests, k_cache, v_cache, scale)
