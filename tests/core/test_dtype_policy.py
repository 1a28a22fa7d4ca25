"""One dtype end to end: the functional model computes in its KV storage's
dtype.

The server's storage is float32, so every dense projection and every
attention call — query, the K/V caches it reads and its output — must be
float32 through the whole cache hierarchy: swap-out, disk demotion,
restores and dropped-prefix recompute.  A model over float64 storage (the
oracle) must stay float64 the same way.  Spies wrap the model's
:class:`~repro.kernels.AttentionDispatch` instance and ``Linear.__call__``
and record every dtype they see.
"""

import inspect

import numpy as np
import pytest

from repro.core.server import StatefulChatServer
from repro.kvcache import KVStorage
from repro.model.config import tiny_llama_config, tiny_opt_config
from repro.model.layers import Linear
from repro.model.transformer import PagedTransformer

ENTRY_POINTS = (
    "decode_attention",
    "batched_decode_attention",
    "ragged_attention",
    "multi_token_attention",
)

#: GPU, CPU and disk so small that rotating conversations swap out,
#: demote to disk, read back from every tier and recompute dropped
#: prefixes.
TIGHT = dict(
    gpu_capacity_tokens=128,
    cpu_capacity_tokens=64,
    disk_capacity_tokens=64,
    chunk_size=16,
    page_size=8,
)


def spy_attention(backend, seen):
    """Wrap every dispatch entry point of ``backend`` (per instance) to
    record ``(entry point, role, dtype)`` for its query, caches and
    output."""
    for name in ENTRY_POINTS:
        inner = getattr(backend, name)
        signature = inspect.signature(inner)

        def wrapped(*args, _inner=inner, _name=name, _sig=signature, **kwargs):
            bound = _sig.bind(*args, **kwargs).arguments
            out = _inner(*args, **kwargs)
            if "queries" in bound:
                queries, outputs = [bound["queries"]], [out]
            else:
                queries = [r.query for r in bound["requests"]]
                outputs = list(out)
            for role, arrays in (
                ("query", queries),
                ("k_cache", [bound["k_cache"]]),
                ("v_cache", [bound["v_cache"]]),
                ("output", outputs),
            ):
                seen.update((_name, role, a.dtype) for a in arrays)
            return out

        setattr(backend, name, wrapped)


@pytest.fixture
def linear_dtypes(monkeypatch):
    """Every ``Linear`` output dtype seen while the fixture is active."""
    seen = set()
    inner = Linear.__call__

    def spy(self, x):
        y = inner(self, x)
        seen.add(y.dtype)
        return y

    monkeypatch.setattr(Linear, "__call__", spy)
    return seen


def tight_server(config, dtype):
    server = StatefulChatServer(config, seed=0, **TIGHT)
    if server.storage.k.dtype != dtype:
        # The server has no dtype setting: its storage is float32.  The
        # oracle variant swaps in float64 storage and a model over it
        # before the first request; every server path reaches both
        # through these two attributes.
        server.storage = KVStorage(
            config, num_slots=server.storage.num_slots, dtype=dtype
        )
        server.model = PagedTransformer(config, server.storage, seed=0)
    return server


def drive(server, config, rounds=8, convs=6, per_round=2):
    """Rotate pairs of conversations through ``chat_batch`` rounds."""
    for rnd in range(rounds):
        batch = [(per_round * rnd + i) % convs for i in range(per_round)]
        prompts = [
            (c, [(c * 17 + rnd * 5 + i) % config.vocab_size for i in range(13)])
            for c in batch
        ]
        server.chat_batch(prompts, max_new_tokens=8)
        server.manager._audit()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make_config", [tiny_llama_config, tiny_opt_config])
def test_tight_memory_serving_stays_in_storage_dtype(
    make_config, dtype, linear_dtypes
):
    config = make_config()
    server = tight_server(config, dtype)
    assert server.storage.k.dtype == dtype
    seen = set()
    spy_attention(server.model.backend, seen)

    drive(server, config)

    stats = server.manager.stats
    # The rounds exercised every tier transition, not just resident decode.
    for key in (
        "swapped_out_tokens",
        "demoted_tokens",
        "disk_hit_tokens",
        "cpu_hit_tokens",
        "recomputed_tokens",
    ):
        assert stats[key] > 0, key
    assert not server.failures
    called = {name for name, _, _ in seen}
    assert {"decode_attention", "ragged_attention"} <= called
    assert {d for _, _, d in seen} == {np.dtype(dtype)}, sorted(
        (n, r, str(d)) for n, r, d in seen
    )
    assert linear_dtypes == {np.dtype(dtype)}

