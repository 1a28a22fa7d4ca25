"""The single attention dispatch point against the per-request oracles.

Kernel level: a serving-shaped decode loop through
:class:`PackedDecodeCache` and :class:`AttentionDispatch`, and the
prefill/mixed entry points, each against the per-request kernels.
Serving level: the fast-path server's transcripts are token-identical to
the per-layer reference path's, and ``backend`` accepts only ``"paged"``.
"""

import numpy as np
import pytest

from repro.core.server import StatefulChatServer
from repro.kernels import (
    AttentionDispatch,
    AttentionRequest,
    DecodeSlotSource,
    PackedDecodeCache,
    multi_token_attention,
    single_token_attention,
)
from repro.kvcache.pages import BlockTable, PagePool
from repro.model.config import tiny_opt_config

TOLERANCE = 1e-6


def _decode_loop(batch, ctx, steps, num_heads, kv_heads, head_dim):
    """Returns (dispatch outputs, oracle outputs) per step."""
    dispatch = AttentionDispatch()
    rng = np.random.default_rng(0)
    page_size = 16
    tokens = ctx + steps
    pool = PagePool(batch * -(-tokens // page_size), page_size)
    keys = rng.standard_normal((batch, tokens, kv_heads, head_dim))
    vals = rng.standard_normal((batch, tokens, kv_heads, head_dim))
    queries = rng.standard_normal((steps, batch, num_heads, head_dim))
    k_cache = np.zeros((pool.capacity_tokens, kv_heads, head_dim))
    v_cache = np.zeros((pool.capacity_tokens, kv_heads, head_dim))
    tables = []
    for i in range(batch):
        table = BlockTable(pool)
        table.append_tokens(ctx)
        slots = table.slots_array(0, ctx)
        k_cache[slots] = keys[i, :ctx]
        v_cache[slots] = vals[i, :ctx]
        tables.append(table)
    cache = PackedDecodeCache()
    outs, oracle = [], []
    for step in range(steps):
        pos = ctx + step
        for i, table in enumerate(tables):
            table.append_tokens(1)
            slot = table.slot(pos)
            k_cache[slot] = keys[i, pos]
            v_cache[slot] = vals[i, pos]
        packed = cache.pack(
            [DecodeSlotSource(key=i, table=t) for i, t in enumerate(tables)]
        )
        outs.append(
            dispatch.decode_attention(queries[step], packed, 0, k_cache, v_cache)
        )
        requests = [
            AttentionRequest(
                query=queries[step, i : i + 1],
                slots=table.slots_array(0, table.length),
            )
            for i, table in enumerate(tables)
        ]
        oracle.append(
            np.concatenate(single_token_attention(requests, k_cache, v_cache))
        )
    return outs, oracle


class TestKernels:
    def test_decode_loop_matches_per_request_oracle(self):
        outs, oracle = _decode_loop(4, 48, 6, 8, 2, 16)
        for got, want in zip(outs, oracle):
            assert np.abs(got - want).max() <= TOLERANCE

    def test_prefill_and_mixed_entry_points_match_oracle(self):
        dispatch = AttentionDispatch()
        rng = np.random.default_rng(1)
        num_slots = 96
        k_cache = rng.standard_normal((num_slots, 2, 16))
        v_cache = rng.standard_normal((num_slots, 2, 16))
        perm = rng.permutation(num_slots)
        used = 0
        requests = []
        for q_len, ctx in [(6, 24), (4, 24), (1, 24), (1, 24)]:
            slots = list(perm[used : used + ctx])
            used += ctx
            requests.append(
                AttentionRequest(
                    query=rng.standard_normal((q_len, 8, 16)), slots=slots
                )
            )
        oracle = multi_token_attention(requests, k_cache, v_cache)
        for entry in (dispatch.multi_token_attention, dispatch.ragged_attention):
            got = entry(requests, k_cache, v_cache)
            for g, w in zip(got, oracle):
                assert np.abs(g - w).max() <= TOLERANCE

    def test_decode_query_count_must_match_packed_batch(self):
        rng = np.random.default_rng(0)
        pool = PagePool(16, 4)
        k_cache = rng.standard_normal((pool.capacity_tokens, 2, 16))
        v_cache = rng.standard_normal((pool.capacity_tokens, 2, 16))
        table = BlockTable(pool)
        table.append_tokens(4)
        packed = PackedDecodeCache().pack([DecodeSlotSource(key=0, table=table)])
        bad = rng.standard_normal((2, 8, 16))
        with pytest.raises(ValueError, match="query batch 2 .* packed batch 1"):
            AttentionDispatch().decode_attention(bad, packed, 0, k_cache, v_cache)


class TestServer:
    CAPS = dict(
        gpu_capacity_tokens=1 << 12,
        cpu_capacity_tokens=1 << 12,
        chunk_size=16,
        page_size=8,
        seed=0,
    )

    def _transcripts(self, fast_paths=True):
        config = tiny_opt_config()
        server = StatefulChatServer(config, **self.CAPS)
        server.model.use_fast_paths = fast_paths
        prompts = [
            (conv, [(conv * 13 + i) % config.vocab_size for i in range(9)])
            for conv in range(4)
        ]
        first = server.chat_batch(prompts, max_new_tokens=12)
        followups = [
            (conv, [(conv * 7 + i + 3) % config.vocab_size for i in range(5)])
            for conv in range(4)
        ]
        second = server.chat_batch(followups, max_new_tokens=12)
        return first, second

    def test_fast_paths_match_the_reference_path_token_for_token(self):
        # The reference path runs the per-request kernels; the fast path
        # runs every AttentionDispatch entry point, packed decode included.
        assert self._transcripts() == self._transcripts(fast_paths=False)

    def test_paged_is_the_only_backend(self):
        server = StatefulChatServer(tiny_opt_config(), backend="paged", **self.CAPS)
        assert isinstance(server.model.backend, AttentionDispatch)
        for name in ("contiguous", "ring", ""):
            with pytest.raises(ValueError, match="backend must be 'paged'"):
                StatefulChatServer(tiny_opt_config(), backend=name, **self.CAPS)
