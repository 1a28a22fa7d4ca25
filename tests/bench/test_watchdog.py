"""Bench-history watchdog tests on synthetic ledgers.

The watchdog's contract: a 20% slowdown is always classified as a
regression, improvements pass, a missing family degrades to ``new``
(overall ``warn`` at worst), and no ledger — corrupt, legacy, or absent —
can ever make it raise.
"""

import json

import pytest

from repro.bench.watchdog import (
    FAIL_RATIO,
    FAMILY_KEYS,
    WARN_RATIO,
    WINDOW,
    check_history,
    check_history_file,
    format_report,
    load_history_ledger,
    overall_status,
    trailing_median,
)

DECODE = FAMILY_KEYS["decode"]


def _ledger(values, key=DECODE):
    """A synthetic history ledger: one entry per speedup sample."""
    return [{"summary": {key: value}} for value in values]


def _verdict(verdicts, family="decode"):
    return next(v for v in verdicts if v.family == family)


class TestClassification:
    def test_twenty_percent_slowdown_fails(self):
        history = _ledger([2.0] * 10)
        verdicts = check_history({DECODE: 1.6}, history)  # 2.0 -> 1.6
        verdict = _verdict(verdicts)
        assert verdict.status == "fail"
        assert verdict.ratio == pytest.approx(0.8)
        assert "regression" in verdict.detail
        assert overall_status(verdicts) == "fail"

    def test_matching_median_passes(self):
        verdicts = check_history({DECODE: 2.0}, _ledger([2.0] * 5))
        assert _verdict(verdicts).status == "pass"

    def test_improvement_passes_with_detail(self):
        verdict = _verdict(check_history({DECODE: 3.0}, _ledger([2.0] * 5)))
        assert verdict.status == "pass"
        assert "improved" in verdict.detail

    def test_mild_drift_warns(self):
        # ratio 0.9: between FAIL_RATIO and WARN_RATIO.
        assert FAIL_RATIO < 0.9 < WARN_RATIO
        verdicts = check_history({DECODE: 1.8}, _ledger([2.0] * 5))
        assert _verdict(verdicts).status == "warn"
        assert overall_status(verdicts) == "warn"

    def test_boundaries(self):
        history = _ledger([1.0] * 5)
        assert _verdict(check_history({DECODE: WARN_RATIO}, history)).status == "pass"
        assert _verdict(check_history({DECODE: FAIL_RATIO}, history)).status == "warn"
        just_below = FAIL_RATIO - 1e-9
        assert _verdict(check_history({DECODE: just_below}, history)).status == "fail"

    def test_median_robust_to_one_outlier(self):
        history = _ledger([2.0, 2.0, 2.0, 2.0, 50.0])
        verdict = _verdict(check_history({DECODE: 2.0}, history))
        assert verdict.median == 2.0
        assert verdict.status == "pass"

    def test_window_bounds_the_baseline(self):
        # Ancient 10x entries fall outside the trailing window; only the
        # recent 1x era sets the baseline.
        history = _ledger([10.0] * 10 + [1.0] * WINDOW)
        assert trailing_median(history, DECODE) == 1.0
        assert _verdict(check_history({DECODE: 1.0}, history)).status == "pass"

    def test_every_family_is_classified(self):
        summary = {key: 2.0 for key in FAMILY_KEYS.values()}
        history = [{"summary": dict(summary)} for _ in range(4)]
        verdicts = check_history(summary, history)
        assert sorted(v.family for v in verdicts) == sorted(FAMILY_KEYS)
        assert {v.status for v in verdicts} == {"pass"}
        assert overall_status(verdicts) == "pass"
        # Older ledger entries still carry the retired backend family's
        # key; it yields no verdict and leaves the overall status alone.
        legacy = [
            {"summary": dict(summary, backend_best_speedup=1.26)}
            for _ in range(4)
        ]
        legacy_verdicts = check_history(summary, legacy)
        assert legacy_verdicts == verdicts
        assert "backend" not in {v.family for v in legacy_verdicts}
        assert overall_status(legacy_verdicts) == "pass"


class TestDegradedInputs:
    def test_missing_family_is_new_and_overall_warn(self):
        history = _ledger([2.0] * 5)
        verdicts = check_history({}, history)
        verdict = _verdict(verdicts)
        assert verdict.status == "new"
        assert verdict.current is None and verdict.median == 2.0
        assert overall_status(verdicts) == "warn"

    def test_empty_history_is_new(self):
        verdict = _verdict(check_history({DECODE: 2.0}, []))
        assert verdict.status == "new"
        assert verdict.current == 2.0 and verdict.median is None

    def test_corrupt_history_never_raises(self):
        corrupt = [
            None,
            42,
            "entry",
            [],
            {"summary": None},
            {"summary": "broken"},
            {"summary": {DECODE: "fast"}},
            {"summary": {DECODE: True}},  # bool is not a speedup
            {"summary": {DECODE: -1.0}},  # negative placeholder
            {"summary": {DECODE: 0}},  # family didn't run
            {"summary": {DECODE: 2.0}},  # the single usable entry
        ]
        verdict = _verdict(check_history({DECODE: 2.0}, corrupt))
        assert verdict.status == "pass"
        assert verdict.median == 2.0

    def test_non_list_history_tolerated(self):
        for history in (None, "garbage", 7, {"history": []}):
            verdicts = check_history({DECODE: 2.0}, history)
            assert _verdict(verdicts).status == "new"

    def test_non_dict_summary_tolerated(self):
        for summary in (None, "x", 3, []):
            verdicts = check_history(summary, _ledger([2.0] * 3))
            assert all(v.status == "new" for v in verdicts)
            assert overall_status(verdicts) == "warn"

    def test_bool_and_nonpositive_current_are_new(self):
        history = _ledger([2.0] * 3)
        for bad in (True, 0, -3.5, "2.0", None):
            assert _verdict(check_history({DECODE: bad}, history)).status == "new"


class TestOverallStatus:
    def test_ranking(self):
        def status_of(statuses):
            verdicts = check_history({}, [])  # all new
            fabricated = [
                type(v)(v.family, s, v.current, v.median, v.ratio, v.detail)
                for v, s in zip(verdicts, statuses + ["pass"] * len(verdicts))
            ]
            return overall_status(fabricated)

        assert status_of(["pass"]) == "pass"
        assert status_of(["new"]) == "warn"
        assert status_of(["warn", "new"]) == "warn"
        assert status_of(["fail", "warn", "new"]) == "fail"

    def test_empty_verdicts_pass(self):
        assert overall_status([]) == "pass"


class TestReportAndLedgerIO:
    def test_format_report_contents(self):
        history = _ledger([2.0] * 6)
        verdicts = check_history({DECODE: 1.5}, history)
        text = format_report(verdicts, history_len=len(history))
        assert "bench history watchdog" in text
        assert f"last {WINDOW} of 6 ledger entries" in text
        assert "decode" in text and "FAIL" in text
        assert text.strip().endswith("overall: FAIL")

    def test_load_history_ledger_missing_file(self, tmp_path):
        assert load_history_ledger(str(tmp_path / "nope.json")) == []

    def test_load_history_ledger_corrupt_json(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text("{not json")
        assert load_history_ledger(str(path)) == []

    def test_load_history_ledger_legacy_schema(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps({"results": [], "summary": {}}))
        assert load_history_ledger(str(path)) == []
        path.write_text(json.dumps({"history": "not-a-list"}))
        assert load_history_ledger(str(path)) == []
        path.write_text(json.dumps([1, 2, 3]))
        assert load_history_ledger(str(path)) == []

    def test_check_history_file_end_to_end(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps({"history": _ledger([2.0] * 8)}))
        verdicts = check_history_file({DECODE: 1.5}, str(path))
        assert _verdict(verdicts).status == "fail"
        # A missing ledger degrades to new, never raises.
        verdicts = check_history_file({DECODE: 1.5}, str(tmp_path / "gone.json"))
        assert _verdict(verdicts).status == "new"

    def test_verdict_as_dict_round_trips(self):
        verdict = _verdict(check_history({DECODE: 1.5}, _ledger([2.0] * 3)))
        payload = json.loads(json.dumps(verdict.as_dict()))
        assert payload["family"] == "decode"
        assert payload["status"] == "fail"
        assert payload["ratio"] == 0.75
