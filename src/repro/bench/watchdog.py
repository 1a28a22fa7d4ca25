"""Bench-history regression watchdog (``repro bench --check-history``).

``BENCH_kernels.json`` (schema 4) carries an append-only ``history``
ledger of per-run summaries.  The watchdog compares the *current* run's
per-family best speedups against the **trailing median** of that ledger
and classifies each family:

- ``pass`` — current >= :data:`WARN_RATIO` x median (noise band);
- ``warn`` — current in [:data:`FAIL_RATIO`, :data:`WARN_RATIO`) x median
  (suspicious drift, not yet conclusive);
- ``fail`` — current < :data:`FAIL_RATIO` x median (a real regression: a
  20% slowdown always lands here);
- ``new`` — no usable history for the family (first run, legacy schema,
  or a corrupt ledger).  Degrades the overall status to ``warn`` at
  worst — **never** a crash and never a hard failure, so a corrupt or
  missing ledger cannot break CI.

The median (not the mean) makes the baseline robust to a single outlier
run in the ledger; the window (:data:`WINDOW`) bounds how far back the
baseline reaches so genuine long-term improvements reset it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "FAIL_RATIO",
    "FAMILY_KEYS",
    "HistoryVerdict",
    "WARN_RATIO",
    "WINDOW",
    "check_history",
    "check_history_file",
    "format_report",
    "load_history_ledger",
    "overall_status",
]

#: Summary-dict key per bench family (schema 4).
FAMILY_KEYS: Dict[str, str] = {
    "decode": "decode_kernel_best_speedup",
    "prefill": "prefill_kernel_best_speedup",
    "mixed": "mixed_kernel_best_speedup",
    "e2e": "e2e_best_speedup",
    "swap": "swap_best_speedup",
    "disk": "disk_best_speedup",
    "idle": "idle_restore_speedup",
    "packing": "packing_best_speedup",
    "decode_sched": "decode_sched_speedup",
}

#: current/median below this is at least a warning (5% noise band).
WARN_RATIO = 0.95
#: current/median below this is a regression (so a 20% slowdown fails).
FAIL_RATIO = 0.85
#: Trailing history entries considered for the median baseline.
WINDOW = 20

_STATUS_RANK = {"pass": 0, "new": 1, "warn": 2, "fail": 3}


@dataclass(frozen=True)
class HistoryVerdict:
    """One family's classification against its trailing-median baseline."""

    family: str
    status: str  # pass | warn | fail | new
    current: Optional[float]
    median: Optional[float]
    ratio: Optional[float]
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "status": self.status,
            "current": self.current,
            "median": self.median,
            "ratio": None if self.ratio is None else round(self.ratio, 4),
            "detail": self.detail,
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _family_history(
    history: Sequence[object], key: str, window: int
) -> List[float]:
    """Usable speedup samples for one summary key, oldest first.

    Tolerates every malformed shape a legacy/corrupt ledger can contain:
    non-dict entries, missing/non-dict ``summary``, non-numeric values,
    and zero/negative placeholders (families that didn't run).
    """
    values: List[float] = []
    for entry in history:
        if not isinstance(entry, dict):
            continue
        summary = entry.get("summary")
        if not isinstance(summary, dict):
            continue
        value = summary.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value <= 0:
            continue
        values.append(float(value))
    return values[-window:]


def trailing_median(
    history: Sequence[object], key: str, window: int = WINDOW
) -> Optional[float]:
    """Trailing-median baseline for one summary key; ``None`` without
    usable history."""
    values = _family_history(history, key, window)
    if not values:
        return None
    return _median(values)


def check_history(
    summary: Dict[str, object],
    history: Sequence[object],
    window: int = WINDOW,
    warn_ratio: float = WARN_RATIO,
    fail_ratio: float = FAIL_RATIO,
) -> List[HistoryVerdict]:
    """Classify every family of ``summary`` against the ledger.

    Never raises on malformed input — unusable history degrades the
    affected family to ``new`` (an overall ``warn`` at worst).
    """
    verdicts: List[HistoryVerdict] = []
    if not isinstance(history, (list, tuple)):
        history = []
    for family in sorted(FAMILY_KEYS):
        key = FAMILY_KEYS[family]
        raw = summary.get(key) if isinstance(summary, dict) else None
        current: Optional[float] = None
        if (
            not isinstance(raw, bool)
            and isinstance(raw, (int, float))
            and raw > 0
        ):
            current = float(raw)
        median = trailing_median(history, key, window)
        if current is None:
            verdicts.append(
                HistoryVerdict(
                    family, "new", None, median, None,
                    "family missing from current run",
                )
            )
            continue
        if median is None:
            verdicts.append(
                HistoryVerdict(
                    family, "new", current, None, None,
                    "no usable history for family",
                )
            )
            continue
        ratio = current / median
        if ratio < fail_ratio:
            status, detail = "fail", (
                f"regression: {current:.2f}x is "
                f"{(1 - ratio) * 100:.0f}% below the trailing median"
            )
        elif ratio < warn_ratio:
            status, detail = "warn", (
                f"drift: {current:.2f}x is "
                f"{(1 - ratio) * 100:.0f}% below the trailing median"
            )
        else:
            status, detail = "pass", (
                "matches or beats the trailing median"
                if ratio <= 1.05
                else f"improved {(ratio - 1) * 100:.0f}% over the median"
            )
        verdicts.append(
            HistoryVerdict(family, status, current, median, ratio, detail)
        )
    return verdicts


def overall_status(verdicts: Sequence[HistoryVerdict]) -> str:
    """``fail`` if any family failed, ``warn`` on warnings/new families,
    else ``pass``."""
    worst = "pass"
    for verdict in verdicts:
        status = "warn" if verdict.status == "new" else verdict.status
        if _STATUS_RANK[status] > _STATUS_RANK[worst]:
            worst = status
    return worst


def format_report(
    verdicts: Sequence[HistoryVerdict], history_len: int = 0
) -> str:
    """Terminal report: one row per family plus the overall verdict."""
    lines = [
        "== bench history watchdog ==",
        f"baseline: trailing median over last {WINDOW} of "
        f"{history_len} ledger entries "
        f"(warn < {WARN_RATIO:.2f}x, fail < {FAIL_RATIO:.2f}x)",
        "",
        f"{'family':<14} {'status':<6} {'current':>9} {'median':>9} "
        f"{'ratio':>7}  detail",
    ]
    for verdict in verdicts:
        current = "-" if verdict.current is None else f"{verdict.current:.2f}x"
        median = "-" if verdict.median is None else f"{verdict.median:.2f}x"
        ratio = "-" if verdict.ratio is None else f"{verdict.ratio:.3f}"
        lines.append(
            f"{verdict.family:<14} {verdict.status.upper():<6} {current:>9} "
            f"{median:>9} {ratio:>7}  {verdict.detail}"
        )
    lines.append("")
    lines.append(f"overall: {overall_status(verdicts).upper()}")
    return "\n".join(lines)


def load_history_ledger(path: str) -> List[object]:
    """History entries from an existing ``BENCH_kernels.json``; empty on
    any unreadable/legacy/corrupt file (never raises)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return []
    history = payload.get("history") if isinstance(payload, dict) else None
    return history if isinstance(history, list) else []


def check_history_file(
    summary: Dict[str, object], path: str
) -> List[HistoryVerdict]:
    """Convenience wrapper: classify ``summary`` against the ledger found
    at ``path`` (``repro bench --check-history`` entry point)."""
    return check_history(summary, load_history_ledger(path))
