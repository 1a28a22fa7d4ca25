"""Performance-trajectory benchmark harness (``repro bench``).

Times the vectorized kernel layer (:mod:`repro.kernels.batched`) and the
:class:`~repro.model.transformer.PagedTransformer` fast paths against the
per-request reference implementations, verifies numerical equivalence
while doing so, and writes the machine-readable ``BENCH_kernels.json``
consumed by CI and tracked across PRs.
"""

from repro.bench.harness import (
    BenchResult,
    DECODE_SCHED_MIN_SPEEDUP,
    HISTORY_CAP,
    MIN_SPEEDUP,
    MIN_THRESHOLD_BATCH,
    PACKING_MIN_SPEEDUP,
    TOLERANCE,
    check_thresholds,
    format_table,
    run_all,
    summarize,
    write_json,
)
from repro.bench.watchdog import (
    FAMILY_KEYS,
    HistoryVerdict,
    check_history,
    check_history_file,
    format_report,
    load_history_ledger,
    overall_status,
)

__all__ = [
    "BenchResult",
    "DECODE_SCHED_MIN_SPEEDUP",
    "FAMILY_KEYS",
    "HISTORY_CAP",
    "HistoryVerdict",
    "MIN_SPEEDUP",
    "MIN_THRESHOLD_BATCH",
    "PACKING_MIN_SPEEDUP",
    "TOLERANCE",
    "check_history",
    "check_history_file",
    "check_thresholds",
    "format_report",
    "format_table",
    "load_history_ledger",
    "overall_status",
    "run_all",
    "summarize",
    "write_json",
]
