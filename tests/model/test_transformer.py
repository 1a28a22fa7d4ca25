"""End-to-end tests for the paged numpy transformer.

The central claims verified here are the correctness claims behind
Pensieve's design: serving a conversation *statefully* — across turns,
through arbitrary physical scattering, with dropped prefixes recomputed —
produces logits identical to a stateless from-scratch run.
"""

import numpy as np
import pytest

from repro.kernels import DecodeSlotSource
from repro.kvcache import BlockTable, KVStorage, PagePool
from repro.model import tiny_llama_config, tiny_opt_config
from repro.model.transformer import (
    FLOAT32_LOGIT_ATOL,
    ForwardRequest,
    PagedTransformer,
)


def make_model(config, num_slots=256, seed=0):
    # The float64 oracle: every logit check below holds to 1e-9.
    storage = KVStorage(config, num_slots=num_slots, dtype=np.float64)
    return PagedTransformer(config, storage, seed=seed), storage


def prefill_from_scratch(config, token_ids, slots, seed=0):
    """Reference: a fresh model instance prefilling the whole sequence."""
    model, _ = make_model(config, seed=seed)
    request = ForwardRequest(input_ids=token_ids, context_slots=slots)
    return model.forward([request])[0]


@pytest.fixture(params=["opt", "llama"])
def config(request):
    if request.param == "opt":
        return tiny_opt_config()
    return tiny_llama_config()


class TestBasicForward:
    def test_prefill_shapes(self, config):
        model, _ = make_model(config)
        tokens = np.arange(10) % config.vocab_size
        request = ForwardRequest(input_ids=tokens, context_slots=list(range(10)))
        logits = model.forward([request])[0]
        assert logits.shape == (10, config.vocab_size)

    def test_decode_step_shape(self, config):
        model, _ = make_model(config)
        prefill = ForwardRequest(input_ids=[1, 2, 3], context_slots=[0, 1, 2])
        model.forward([prefill])
        decode = ForwardRequest(input_ids=[4], context_slots=[0, 1, 2, 3])
        logits = model.next_token_logits([decode])[0]
        assert logits.shape == (config.vocab_size,)

    def test_deterministic(self, config):
        tokens = np.arange(8)
        a = prefill_from_scratch(config, tokens, list(range(8)))
        b = prefill_from_scratch(config, tokens, list(range(8)))
        np.testing.assert_array_equal(a, b)

    def test_empty_batch(self, config):
        model, _ = make_model(config)
        assert model.forward([]) == []

    def test_greedy_token(self, config):
        model, _ = make_model(config)
        logits = np.zeros(config.vocab_size)
        logits[17] = 5.0
        assert model.greedy_token(logits) == 17


class TestStatefulEqualsStateless:
    def test_two_turn_conversation_matches_from_scratch(self, config):
        """Turn 1 prefill + turn 2 prefill reusing cache == single
        prefill of the concatenated sequence."""
        rng = np.random.default_rng(5)
        turn1 = rng.integers(0, config.vocab_size, size=9)
        turn2 = rng.integers(0, config.vocab_size, size=6)
        full = np.concatenate([turn1, turn2])
        slots = list(rng.permutation(256)[:15])

        expected = prefill_from_scratch(config, full, slots)

        model, _ = make_model(config)
        model.forward(
            [ForwardRequest(input_ids=turn1, context_slots=slots[:9])]
        )
        logits = model.forward(
            [ForwardRequest(input_ids=turn2, context_slots=slots)]
        )[0]
        np.testing.assert_allclose(logits, expected[9:], rtol=1e-9, atol=1e-9)

    def test_decode_matches_prefill_logits(self, config):
        """Generating token-by-token yields the same next-token logits as
        prefilling the same prefix in one shot."""
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, config.vocab_size, size=7)
        slots = list(rng.permutation(64)[:7])
        expected = prefill_from_scratch(config, tokens, slots)

        model, _ = make_model(config)
        model.forward(
            [ForwardRequest(input_ids=tokens[:3], context_slots=slots[:3])]
        )
        for i in range(3, 7):
            logits = model.forward(
                [
                    ForwardRequest(
                        input_ids=tokens[i : i + 1], context_slots=slots[: i + 1]
                    )
                ]
            )[0]
            np.testing.assert_allclose(logits[0], expected[i], rtol=1e-9, atol=1e-9)

    def test_physical_scattering_is_invisible(self, config):
        """Same logical sequence at two different physical layouts gives
        identical logits."""
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, config.vocab_size, size=12)
        a = prefill_from_scratch(config, tokens, list(range(12)))
        b = prefill_from_scratch(config, tokens, list(rng.permutation(200)[:12]))
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_swap_round_trip_preserves_logits(self, config):
        """Simulate swap-out/swap-in: copy KV rows to a host buffer, move
        them to different slots, and continue decoding — logits must match
        an uninterrupted run."""
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, config.vocab_size, size=10)
        slots = list(range(10))

        # Uninterrupted reference.
        model_ref, _ = make_model(config)
        model_ref.forward(
            [ForwardRequest(input_ids=tokens[:9], context_slots=slots[:9])]
        )
        expected = model_ref.forward(
            [ForwardRequest(input_ids=tokens[9:], context_slots=slots)]
        )[0]

        # Interrupted run: after prefill, evict rows 0..4 to "CPU" and
        # restore them into different physical slots.
        model, storage = make_model(config)
        model.forward(
            [ForwardRequest(input_ids=tokens[:9], context_slots=slots[:9])]
        )
        host_k, host_v = storage.read_all_layers(slots[:5])
        storage.k[:, slots[:5]] = 0.0  # slots handed to someone else
        storage.v[:, slots[:5]] = 0.0
        new_slots = list(range(100, 105))
        storage.write_all_layers(new_slots, host_k, host_v)
        moved = new_slots + slots[5:]
        logits = model.forward(
            [ForwardRequest(input_ids=tokens[9:], context_slots=moved)]
        )[0]
        np.testing.assert_allclose(logits, expected, rtol=1e-9, atol=1e-9)


class TestDroppedPrefixRecompute:
    def test_recomputed_prefix_matches_from_scratch(self, config):
        """Figure 8: dropped leading tokens are recomputed alongside the
        new prompt (two disconnected query ranges) while the middle comes
        from cache — final logits equal the stateless run."""
        rng = np.random.default_rng(9)
        dropped, cached, prompt = 4, 6, 5
        total = dropped + cached + prompt
        tokens = rng.integers(0, config.vocab_size, size=total)
        slots = list(rng.permutation(128)[:total])

        expected = prefill_from_scratch(config, tokens, slots)

        model, storage = make_model(config)
        # Turn 1 populated the full prefix (dropped + cached)...
        model.forward(
            [
                ForwardRequest(
                    input_ids=tokens[: dropped + cached],
                    context_slots=slots[: dropped + cached],
                )
            ]
        )
        # ...then the leading ``dropped`` tokens were discarded.
        storage.k[:, slots[:dropped]] = 0.0
        storage.v[:, slots[:dropped]] = 0.0
        # New physical homes for the recomputed prefix.
        new_prefix_slots = list(range(120, 120 + dropped))
        context = new_prefix_slots + slots[dropped:]
        request = ForwardRequest(
            input_ids=np.concatenate([tokens[:dropped], tokens[dropped + cached:]]),
            context_slots=context,
            dropped=dropped,
        )
        logits = model.forward([request])[0]
        # The last ``prompt`` rows are the new prompt's logits.
        np.testing.assert_allclose(
            logits[dropped:], expected[dropped + cached:], rtol=1e-9, atol=1e-9
        )
        # And the recomputed prefix reproduces its original logits too.
        np.testing.assert_allclose(
            logits[:dropped], expected[:dropped], rtol=1e-9, atol=1e-9
        )


class TestUnifiedBatching:
    def test_mixed_phase_batch_equals_separate_execution(self, config):
        """One batch mixing a prefill request and a decode request gives
        the same per-request logits as running them in isolation (§4.2)."""
        rng = np.random.default_rng(10)
        pre_tokens = rng.integers(0, config.vocab_size, size=6)
        dec_history = rng.integers(0, config.vocab_size, size=4)
        dec_token = rng.integers(0, config.vocab_size, size=1)

        # Isolated runs.
        model_a, _ = make_model(config)
        expected_pre = model_a.forward(
            [ForwardRequest(input_ids=pre_tokens, context_slots=list(range(6)))]
        )[0]
        model_b, _ = make_model(config)
        model_b.forward(
            [ForwardRequest(input_ids=dec_history, context_slots=list(range(10, 14)))]
        )
        expected_dec = model_b.forward(
            [ForwardRequest(input_ids=dec_token, context_slots=list(range(10, 15)))]
        )[0]

        # Unified batch.
        model, _ = make_model(config)
        model.forward(
            [ForwardRequest(input_ids=dec_history, context_slots=list(range(10, 14)))]
        )
        outs = model.forward(
            [
                ForwardRequest(input_ids=pre_tokens, context_slots=list(range(6))),
                ForwardRequest(input_ids=dec_token, context_slots=list(range(10, 15))),
            ]
        )
        np.testing.assert_allclose(outs[0], expected_pre, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(outs[1], expected_dec, rtol=1e-9, atol=1e-9)


class TestValidation:
    def test_too_many_input_tokens(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(input_ids=[1, 2, 3], context_slots=[0, 1])

    def test_bad_dropped(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(input_ids=[1, 2], context_slots=[0, 1, 2], dropped=3)

    def test_positions_length_mismatch(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(
                input_ids=[1, 2],
                context_slots=[0, 1],
                positions=np.array([0]),
            )

    def test_storage_mismatch_rejected(self):
        opt = tiny_opt_config()
        llama = tiny_llama_config()
        storage = KVStorage(opt, num_slots=16)
        with pytest.raises(ValueError):
            PagedTransformer(llama, storage)


def model_arrays(model):
    """Every weight array of ``model``, in a fixed order."""
    arrays = [model.embedding]
    if model.pos_embedding is not None:
        arrays.append(model.pos_embedding)
    norms = [model.final_norm]
    linears = []
    for w in model.layers:
        norms += [w.attn_norm, w.mlp_norm]
        linears += [w.q_proj, w.k_proj, w.v_proj, w.o_proj]
        linears += [getattr(w.mlp, name) for name in ("gate", "up", "down")
                    if hasattr(w.mlp, name)]
    for norm in norms:
        arrays.append(norm.gain)
        if getattr(norm, "bias", None) is not None:
            arrays.append(norm.bias)
    for linear in linears:
        arrays.append(linear.weight)
        if linear.bias is not None:
            arrays.append(linear.bias)
    return arrays


class TestFloat32AgainstOracle:
    """The model computes in its storage's dtype.  The same seed on float32
    storage and on the float64 oracle gives weights that agree exactly
    after the upcast and logits within the declared float32 tolerance."""

    @staticmethod
    def pair(config, seed=0, num_slots=256):
        models = {}
        for dtype in (np.float32, np.float64):
            storage = KVStorage(config, num_slots=num_slots, dtype=dtype)
            models[dtype] = PagedTransformer(config, storage, seed=seed)
        return models[np.float32], models[np.float64]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weights_are_the_exact_upcast(self, config, seed):
        f32, f64 = self.pair(config, seed)
        arrays32, arrays64 = model_arrays(f32), model_arrays(f64)
        assert len(arrays32) == len(arrays64) > config.num_layers * 4
        for a, b in zip(arrays32, arrays64):
            assert a.dtype == np.float32 and b.dtype == np.float64
            np.testing.assert_array_equal(a.astype(np.float64), b)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_logits_within_declared_tolerance(self, config, seed):
        """Two prefills, then packed decode steps, then a mixed batch with
        a recomputed dropped prefix."""
        f32, f64 = self.pair(config, seed)
        rng = np.random.default_rng(seed)
        pool = PagePool(64, 4)
        tables = [BlockTable(pool), BlockTable(pool)]
        batch = []
        for table, n in zip(tables, (11, 17)):
            table.append_tokens(n)
            batch.append(
                ForwardRequest(
                    input_ids=rng.integers(0, config.vocab_size, size=n),
                    context_slots=table.slots_array(0, n),
                )
            )
        batches = [batch]
        for _ in range(12):
            step = []
            for key, table in enumerate(tables):
                table.append_tokens(1)
                step.append(
                    ForwardRequest(
                        input_ids=rng.integers(0, config.vocab_size, size=1),
                        context_slots=None,
                        slot_view=DecodeSlotSource(key=key, table=table),
                    )
                )
            batches.append(step)
        # Recompute split: the first 4 tokens of conversation 0 re-run
        # beside a 3-token prompt; conversation 1 decodes alongside.
        for table in tables:
            table.append_tokens(3 if table is tables[0] else 1)
        prompt = rng.integers(0, config.vocab_size, size=3)
        batches.append(
            [
                ForwardRequest(
                    input_ids=np.concatenate([batch[0].input_ids[:4], prompt]),
                    context_slots=tables[0].slots_array(0, tables[0].length),
                    dropped=4,
                ),
                ForwardRequest(
                    input_ids=rng.integers(0, config.vocab_size, size=1),
                    context_slots=tables[1].slots_array(0, tables[1].length),
                ),
            ]
        )
        for step in batches:
            for got, want in zip(f32.forward(step), f64.forward(step)):
                assert got.dtype == np.float32 and want.dtype == np.float64
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=FLOAT32_LOGIT_ATOL
                )
