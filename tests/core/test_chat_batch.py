"""Tests for unified batched serving on the functional server."""

import numpy as np
import pytest

from repro.core import StatefulChatServer
from repro.model import tiny_llama_config, tiny_opt_config
from repro.model.sampling import SamplingParams


def make_server(config, gpu=512, cpu=1024, seed=1):
    return StatefulChatServer(
        config, gpu_capacity_tokens=gpu, cpu_capacity_tokens=cpu,
        chunk_size=16, page_size=8, seed=seed,
    )


@pytest.fixture(params=["opt", "llama"])
def config(request):
    return tiny_opt_config() if request.param == "opt" else tiny_llama_config()


def random_round(rng, num_convs, lo=4, hi=12):
    return [
        (conv, list(rng.integers(4, 120, int(rng.integers(lo, hi)))))
        for conv in range(num_convs)
    ]


class TestBatchedEqualsSequential:
    def test_single_round(self, config):
        """One unified batch produces exactly what sequential serving
        produces (greedy decoding): batching is math-invisible."""
        rng = np.random.default_rng(51)
        prompts = random_round(rng, 4)
        batched = make_server(config).chat_batch(prompts, max_new_tokens=5)
        sequential_server = make_server(config)
        sequential = {
            conv: sequential_server.chat(conv, prompt_ids=ids, max_new_tokens=5)
            for conv, ids in prompts
        }
        assert batched == sequential

    def test_multi_round_with_returning_conversations(self, config):
        """Batches mixing fresh prefills with returning conversations
        (the §4.2 unified case) stay equivalent across rounds."""
        rng = np.random.default_rng(53)
        rounds = [random_round(rng, 3) for _ in range(3)]
        batch_server = make_server(config)
        seq_server = make_server(config)
        for prompts in rounds:
            batched = batch_server.chat_batch(prompts, max_new_tokens=4)
            sequential = {
                conv: seq_server.chat(conv, prompt_ids=ids, max_new_tokens=4)
                for conv, ids in prompts
            }
            assert batched == sequential

    def test_batched_under_memory_pressure(self, config):
        """Unified batching composes with eviction: serving one group's
        batch evicts the *other* group's cached contexts (batch members
        themselves are pinned), and a tight server still matches a roomy
        one token-for-token."""
        rng = np.random.default_rng(57)
        rounds = []
        for round_idx in range(6):
            group = (round_idx % 2) * 3  # alternate convs {0,1,2} / {3,4,5}
            rounds.append(
                [
                    (group + i, list(rng.integers(4, 120, int(rng.integers(4, 14)))))
                    for i in range(3)
                ]
            )
        tight = make_server(config, gpu=144, cpu=64)
        roomy = make_server(config, gpu=4096, cpu=8192)
        for prompts in rounds:
            assert tight.chat_batch(prompts, max_new_tokens=6) == roomy.chat_batch(
                prompts, max_new_tokens=6
            )
        stats = tight.manager.stats
        assert stats["swapped_out_tokens"] > 0
        assert stats["dropped_tokens"] > 0
        assert stats["recomputed_tokens"] > 0


class TestBatchSemantics:
    def test_contexts_accumulate(self, config):
        server = make_server(config)
        out = server.chat_batch([(0, [1, 2, 3]), (1, [4, 5])], max_new_tokens=3)
        assert server.context_length(0) == 3 + 3
        assert server.context_length(1) == 2 + 3
        assert server.raw_tokens[0] == [1, 2, 3] + out[0]

    def test_duplicate_conversations_rejected(self, config):
        server = make_server(config)
        with pytest.raises(ValueError, match="duplicate"):
            server.chat_batch([(0, [1]), (0, [2])])

    def test_empty_prompt_rejected(self, config):
        server = make_server(config)
        with pytest.raises(ValueError, match="empty"):
            server.chat_batch([(0, [])])

    def test_rejected_batch_leaves_no_trace(self, config):
        """A later empty prompt must be caught before the earlier
        conversation is restored (pinned, with its prompt's slots)."""
        server = make_server(config)
        twin = make_server(config)
        for s in (server, twin):
            s.chat_batch([(0, [4, 5])], max_new_tokens=2)
        with pytest.raises(ValueError, match="empty"):
            server.chat_batch([(0, [6, 7]), (1, [])])
        assert server.context_length(0) == len(server.raw_tokens[0]) == 4
        assert server.manager.conversation(0).pinned is False
        assert server.manager.conversation(1) is None
        assert server.chat_batch([(0, [8])], max_new_tokens=4) == (
            twin.chat_batch([(0, [8])], max_new_tokens=4)
        )

    @pytest.mark.parametrize("max_new_tokens", [0, -1])
    def test_max_new_tokens_below_one_rejected(self, config, max_new_tokens):
        server = make_server(config)
        with pytest.raises(ValueError, match="max_new_tokens"):
            server.chat_batch([(0, [4, 5])], max_new_tokens=max_new_tokens)
        with pytest.raises(ValueError, match="max_new_tokens"):
            server.chat(0, prompt_ids=[4, 5], max_new_tokens=max_new_tokens)
        assert server.context_length(0) == 0 and not server.raw_tokens

    def test_reserved_id_rejected(self, config):
        server = make_server(config)
        with pytest.raises(ValueError, match="reserved"):
            server.chat_batch([(server.SYSTEM_CONV_ID, [1, 2])])

    def test_with_system_prompt(self, config):
        shared = make_server(config)
        shared.set_system_prompt(prompt_ids=[9, 8, 7, 6])
        baseline = make_server(config)
        rng = np.random.default_rng(59)
        prompts = random_round(rng, 3)
        out_shared = shared.chat_batch(prompts, max_new_tokens=3)
        out_base = baseline.chat_batch(
            [(conv, [9, 8, 7, 6] + ids) for conv, ids in prompts],
            max_new_tokens=3,
        )
        assert out_shared == out_base

    def test_stochastic_batch_is_deterministic_per_seed(self, config):
        rng = np.random.default_rng(61)
        prompts = random_round(rng, 3)
        params = SamplingParams(temperature=0.9, top_k=16)
        a = make_server(config, seed=2).chat_batch(
            prompts, max_new_tokens=4, sampling=params
        )
        b = make_server(config, seed=2).chat_batch(
            prompts, max_new_tokens=4, sampling=params
        )
        assert a == b
