"""RPR006 negative fixture: the dispatch point is where kernels are wired up."""

from repro.kernels.multi_token import multi_token_attention
from repro.kernels.packed_cache import packed_decode_attention


class AttentionDispatch:
    def decode_attention(self, queries, packed, layer, k_cache, v_cache):
        return packed_decode_attention(queries, packed, layer, k_cache, v_cache)

    def multi_token_attention(self, requests, k_cache, v_cache):
        return multi_token_attention(requests, k_cache, v_cache)
