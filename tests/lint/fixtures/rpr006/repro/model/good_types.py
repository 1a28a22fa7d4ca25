"""RPR006 negative fixtures: types/helpers carry no kernel choice."""

from repro.kernels import (
    AttentionDispatch,
    AttentionRequest,
    disjoint_query_spans,
    resolve_scale,
    split_disjoint_query,
)
from repro.kernels.packed_cache import (
    DecodeSlotSource,
    PackedBatch,
    PackedDecodeCache,
)


def good_build_request(query, slots):
    return AttentionRequest(query=query, slots=slots)


def good_dispatch():
    return AttentionDispatch()


def good_span_math(requests):
    return disjoint_query_spans(requests)
