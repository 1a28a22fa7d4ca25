"""RPR006 positive fixtures: direct attention-kernel use in serving code."""

from repro.kernels import multi_token_attention, packed_decode_attention
from repro.kernels.ragged import ragged_multi_token_attention

import repro.kernels


def bad_direct_call(requests, k_cache, v_cache):
    return multi_token_attention(requests, k_cache, v_cache)


def bad_module_reference(queries, packed, k_cache, v_cache):
    return repro.kernels.segment_masked_decode(queries, packed, k_cache, v_cache)
