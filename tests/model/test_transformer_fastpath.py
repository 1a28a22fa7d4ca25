"""Fast-path vs reference equivalence for the PagedTransformer.

``use_fast_paths`` switches the forward pass between the per-layer
reference path (split + write + tiled kernel per layer) and the
vectorized one (hoisted planning, batched decode kernel, vectorized
multi-token kernel).  Both must produce the same logits for every batch
shape — the fast path is pure mechanics, never different math.
"""

import numpy as np
import pytest

from repro.kvcache import KVStorage
from repro.model import tiny_llama_config, tiny_opt_config
from repro.model.transformer import ForwardRequest, PagedTransformer

TOL = dict(rtol=1e-9, atol=1e-9)


def oracle_storage(config, num_slots):
    """Float64 storage: the model computes in its storage's dtype, and
    the 1e-9 checks below are float64 oracle checks."""
    return KVStorage(config, num_slots=num_slots, dtype=np.float64)


@pytest.fixture(params=["opt", "llama"])
def config(request):
    if request.param == "opt":
        return tiny_opt_config()
    return tiny_llama_config()


def paired_models(config, num_slots=256, seed=0):
    """Two identically-seeded models, fast paths on vs off."""
    fast = PagedTransformer(
        config, oracle_storage(config, num_slots), seed=seed
    )
    reference = PagedTransformer(
        config, oracle_storage(config, num_slots), seed=seed,
        use_fast_paths=False,
    )
    assert fast.use_fast_paths and not reference.use_fast_paths
    return fast, reference


def run_both(fast, reference, batches):
    """Run the same batch sequence through both models, comparing logits."""
    for batch in batches:
        out_fast = fast.forward(batch)
        out_ref = reference.forward(batch)
        assert len(out_fast) == len(out_ref)
        for got, want in zip(out_fast, out_ref):
            np.testing.assert_allclose(got, want, **TOL)


class TestFastPathEquivalence:
    def test_prefill_batch(self, config):
        rng = np.random.default_rng(0)
        fast, reference = paired_models(config)
        batch = []
        used = 0
        for n in (7, 12, 1):
            ids = rng.integers(0, config.vocab_size, size=n)
            batch.append(
                ForwardRequest(
                    input_ids=ids, context_slots=list(range(used, used + n))
                )
            )
            used += n
        run_both(fast, reference, [batch])

    def test_decode_batch_dispatches_batched_kernel(self, config):
        """All-generation batches hit the batched decode kernel; logits
        and cache writes must still match the per-layer reference."""
        rng = np.random.default_rng(1)
        fast, reference = paired_models(config)
        prefills, decodes = [], []
        used = 0
        for n in (5, 9, 3, 6):
            slots = list(range(used, used + n + 1))
            used += n + 1
            ids = rng.integers(0, config.vocab_size, size=n)
            prefills.append(ForwardRequest(input_ids=ids, context_slots=slots[:n]))
            decodes.append(
                ForwardRequest(
                    input_ids=rng.integers(0, config.vocab_size, size=1),
                    context_slots=slots,
                )
            )
        run_both(fast, reference, [prefills, decodes])
        # State written by the decode step matches slot-for-slot.
        np.testing.assert_allclose(
            fast.storage.k, reference.storage.k, **TOL
        )
        np.testing.assert_allclose(
            fast.storage.v, reference.storage.v, **TOL
        )

    def test_mixed_batch(self, config):
        rng = np.random.default_rng(2)
        fast, reference = paired_models(config)
        warm = [
            ForwardRequest(
                input_ids=rng.integers(0, config.vocab_size, size=4),
                context_slots=[20, 21, 22, 23],
            )
        ]
        mixed = [
            ForwardRequest(
                input_ids=rng.integers(0, config.vocab_size, size=6),
                context_slots=list(range(6)),
            ),
            ForwardRequest(
                input_ids=rng.integers(0, config.vocab_size, size=1),
                context_slots=[20, 21, 22, 23, 24],
            ),
        ]
        run_both(fast, reference, [warm, mixed])

    def test_dropped_prefix_recompute(self, config):
        """Sub-request splitting (Figure 8d) goes through the hoisted
        span plan on the fast path."""
        rng = np.random.default_rng(3)
        dropped, cached, prompt = 3, 5, 4
        total = dropped + cached + prompt
        tokens = rng.integers(0, config.vocab_size, size=total)
        slots = list(rng.permutation(100)[:total])
        fast, reference = paired_models(config)
        warm = [
            ForwardRequest(
                input_ids=tokens[: dropped + cached],
                context_slots=slots[: dropped + cached],
            )
        ]
        new_prefix = list(range(110, 110 + dropped))
        recompute = [
            ForwardRequest(
                input_ids=np.concatenate(
                    [tokens[:dropped], tokens[dropped + cached:]]
                ),
                context_slots=new_prefix + slots[dropped:],
                dropped=dropped,
            )
        ]
        run_both(fast, reference, [warm, recompute])

    def test_multi_turn_conversation(self, config):
        """Cache state built by the fast path keeps later turns equal."""
        rng = np.random.default_rng(4)
        fast, reference = paired_models(config)
        history = 0
        batches = []
        for turn_len in (6, 1, 1, 4, 1):
            ids = rng.integers(0, config.vocab_size, size=turn_len)
            slots = list(range(history + turn_len))
            history += turn_len
            batches.append([ForwardRequest(input_ids=ids, context_slots=slots)])
        run_both(fast, reference, batches)

    def test_toggle_mid_stream(self, config):
        """Flipping use_fast_paths between steps never changes results —
        the two paths share the same cache layout."""
        rng = np.random.default_rng(5)
        storage = oracle_storage(config, 64)
        model = PagedTransformer(config, storage, seed=0)
        mirror = PagedTransformer(config, oracle_storage(config, 64), seed=0)
        history = 0
        for i, turn_len in enumerate((5, 1, 1, 2)):
            ids = rng.integers(0, config.vocab_size, size=turn_len)
            slots = list(range(history + turn_len))
            history += turn_len
            model.use_fast_paths = i % 2 == 0
            batch_a = [ForwardRequest(input_ids=ids, context_slots=slots)]
            batch_b = [ForwardRequest(input_ids=ids, context_slots=slots)]
            got = model.forward(batch_a)[0]
            want = mirror.forward(batch_b)[0]
            np.testing.assert_allclose(got, want, **TOL)
