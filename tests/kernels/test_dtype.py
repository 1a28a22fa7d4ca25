"""Every attention entry point and RoPE return their input's dtype.

The functional model computes in its storage's dtype, so a kernel that
allocates float64 state (or a float64 mask) would silently upcast a
float32 batch.  Each :class:`~repro.kernels.AttentionDispatch` entry
point, the vectorized kernel's tiled online-softmax path and the ragged
kernel's fallback are checked for float32 and float64 alike.
"""

import numpy as np
import pytest

from repro.kernels import (
    AttentionDispatch,
    AttentionRequest,
    DecodeSlotSource,
    PackedDecodeCache,
    vectorized_multi_token_attention,
)
from repro.kernels import ragged
from repro.kvcache import BlockTable, PagePool
from repro.model.rope import apply_rope

HEADS, KV_HEADS, HEAD_DIM = 4, 2, 8
PAGE = 4


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def dtype(request):
    return np.dtype(request.param)


class Paged:
    """Block tables over one shared pool plus K/V caches in ``dtype``."""

    def __init__(self, dtype, context_lens, seed=0):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype
        pages = sum(-(-c // PAGE) for c in context_lens)
        self.pool = PagePool(pages, PAGE)
        self.tables = []
        for c in context_lens:
            table = BlockTable(self.pool)
            table.append_tokens(c)
            self.tables.append(table)
        shape = (pages * PAGE, KV_HEADS, HEAD_DIM)
        self.k = self.rng.standard_normal(shape).astype(dtype)
        self.v = self.rng.standard_normal(shape).astype(dtype)

    def queries(self, n):
        return self.rng.standard_normal((n, HEADS, HEAD_DIM)).astype(self.dtype)

    def requests(self, q_lens):
        return [
            AttentionRequest(
                query=self.queries(q),
                slots=table.slots_array(0, table.length),
            )
            for q, table in zip(q_lens, self.tables)
        ]


def assert_dtypes(outputs, dtype):
    assert outputs
    assert {out.dtype for out in outputs} == {dtype}


def test_decode_attention(dtype):
    paged = Paged(dtype, [9, 17, 5])
    sources = [
        DecodeSlotSource(key=i, table=t) for i, t in enumerate(paged.tables)
    ]
    batch = PackedDecodeCache().pack(sources)
    out = AttentionDispatch().decode_attention(
        paged.queries(len(sources)), batch, 0, paged.k, paged.v
    )
    assert out.dtype == dtype


def test_batched_decode_attention(dtype):
    paged = Paged(dtype, [9, 17, 5])
    outputs = AttentionDispatch().batched_decode_attention(
        paged.requests([1, 1, 1]), paged.k, paged.v
    )
    assert_dtypes(outputs, dtype)


def test_ragged_attention_packed(dtype):
    paged = Paged(dtype, [20, 12, 7, 30])
    outputs = AttentionDispatch().ragged_attention(
        paged.requests([20, 12, 1, 1]), paged.k, paged.v
    )
    assert_dtypes(outputs, dtype)


def test_ragged_attention_fallback_tiles(dtype, monkeypatch):
    """One long prefill among many decodes trips the padding guard; the
    per-request fallback then tiles a context longer than its default
    tile."""
    fallbacks = []
    inner = ragged.vectorized_multi_token_attention

    def spy(*args, **kwargs):
        fallbacks.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ragged, "vectorized_multi_token_attention", spy)
    paged = Paged(dtype, [100] + [100] * 16)
    outputs = AttentionDispatch().ragged_attention(
        paged.requests([100] + [1] * 16), paged.k, paged.v
    )
    assert len(fallbacks) == 1
    assert_dtypes(outputs, dtype)


def test_multi_token_attention(dtype):
    # Contexts beyond one default tile run the oracle's online softmax.
    paged = Paged(dtype, [60, 9])
    outputs = AttentionDispatch().multi_token_attention(
        paged.requests([60, 1]), paged.k, paged.v
    )
    assert_dtypes(outputs, dtype)


@pytest.mark.parametrize("tile", [4, 64], ids=["tiled", "single-tile"])
def test_vectorized_multi_token_attention(dtype, tile):
    paged = Paged(dtype, [23, 9])
    outputs = vectorized_multi_token_attention(
        paged.requests([23, 2]), paged.k, paged.v, tile=tile
    )
    assert_dtypes(outputs, dtype)


@pytest.mark.parametrize(
    "positions",
    [np.arange(5, dtype=np.int64), np.arange(5, dtype=np.float64) + 0.5],
    ids=["cached-table", "direct"],
)
def test_apply_rope(dtype, positions):
    x = np.random.default_rng(0).standard_normal((5, HEADS, HEAD_DIM))
    assert apply_rope(x.astype(dtype), positions).dtype == dtype
