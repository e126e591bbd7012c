"""Ledger trend analytics: robust drift detection over run history."""

import pytest

from repro.obs.ledger import RunLedger
from repro.obs.trend import (
    MIN_SAMPLES,
    POLICIES,
    check_trend,
    gate,
    mad,
    median,
    render_trend,
    trend_by_key,
)


def entry(key="k1", source="live", elapsed=1.0, digest="d0", **extra):
    return {
        "key": key,
        "workload": "html",
        "stack": "memento",
        "source": source,
        "elapsed_s": elapsed,
        "counter_digest": digest,
        **extra,
    }


def history(elapsed_series, key="k1", digest="d0"):
    return [entry(key=key, elapsed=e, digest=digest) for e in elapsed_series]


class TestRobustStats:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_mad(self):
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0]) == 1.0


#: (policy, series oldest first, expected drift). Every policy gets a
#: clear regression, a within-tolerance point, an improvement (which
#: never flags) and a series below MIN_SAMPLES (which abstains).
GATE_CASES = [
    ("wall_s", [1.0, 1.01, 0.99, 5.0], True),
    ("wall_s", [1.0, 1.01, 0.99, 1.3], False),
    ("wall_s", [1.0, 3.0, 0.4, 2.5, 3.0], False),  # inside the MAD spread
    ("wall_s", [1.0, 1.01, 0.99, 0.1], False),
    ("wall_s", [1.0, 9.0], False),
    ("cold_start_p95_ms", [100.0, 100.0, 130.0], True),
    ("cold_start_p95_ms", [100.0, 100.0, 120.0], False),
    ("cold_start_p95_ms", [100.0, 100.0, 10.0], False),
    ("cold_start_p95_ms", [100.0, 900.0], False),
    ("stranded_gb_s", [2.0, 2.0, 2.6], True),
    ("stranded_gb_s", [2.0, 2.0, 2.4], False),
    ("stranded_gb_s", [0.0, 0.0, 0.0], False),
    ("stranded_gb_s", [2.0, 20.0], False),
]


class TestGate:
    @pytest.mark.parametrize("policy,series,drift", GATE_CASES)
    def test_policy_table(self, policy, series, drift):
        verdict = gate(series, POLICIES[policy])
        assert verdict["drift"] is drift
        assert verdict["samples"] == len(series)
        if len(series) < MIN_SAMPLES:
            assert verdict["median"] is None and verdict["latest"] is None
        else:
            assert verdict["median"] == median(series[:-1])
            assert verdict["latest"] == series[-1]

    def test_every_policy_abstains_below_min_samples(self):
        assert MIN_SAMPLES == 3
        for policy in POLICIES.values():
            assert not gate([1.0, 1e9], policy)["drift"]

    def test_improvement_never_flags(self):
        for policy in POLICIES.values():
            assert not gate([10.0, 10.0, 0.001], policy)["drift"]

    def test_only_mad_policies_report_deviation(self):
        assert "deviation_mads" in gate([1.0, 2.0, 3.0], POLICIES["wall_s"])
        assert "deviation_mads" not in gate(
            [1.0, 2.0, 3.0], POLICIES["stranded_gb_s"]
        )


class TestTrendByKey:
    def test_steady_history_is_ok(self):
        (row,) = trend_by_key(history([1.0, 1.01, 0.99, 1.02]))
        assert not row["drift"]
        assert row["live_samples"] == 4
        assert row["median_s"] == pytest.approx(1.0)

    def test_large_slowdown_flags(self):
        (row,) = trend_by_key(history([1.0, 1.01, 0.99, 5.0]))
        assert row["time_drift"] and row["drift"]
        assert row["latest_s"] == 5.0

    def test_speedup_never_flags(self):
        (row,) = trend_by_key(history([1.0, 1.01, 0.99, 0.1]))
        assert not row["time_drift"]

    def test_noisy_history_needs_both_tests(self):
        # 71% over the median (past the 50% gate) but well inside the
        # wide MAD spread of a noisy history: not drift.
        (row,) = trend_by_key(history([1.0, 3.0, 0.4, 2.5, 3.0]))
        assert not row["time_drift"]
        assert row["latest_s"] == 3.0

    def test_small_slowdown_below_pct_threshold_is_ok(self):
        # Far outside the tight MAD spread but under the 50% gate.
        (row,) = trend_by_key(history([1.0, 1.001, 0.999, 1.3]))
        assert not row["time_drift"]

    def test_insufficient_history_abstains(self):
        (row,) = trend_by_key(history([1.0, 9.0]))
        assert not row["time_drift"]
        assert row["median_s"] is None

    def test_cache_hits_do_not_pollute_the_series(self):
        entries = history([1.0, 1.02, 0.98]) + [
            entry(source="cache", elapsed=0.0),
            entry(source="memo", elapsed=0.0),
        ]
        (row,) = trend_by_key(entries)
        assert row["live_samples"] == 3
        assert row["runs"] == 5
        assert not row["drift"]

    def test_digest_drift_flags_regardless_of_timing(self):
        entries = history([1.0, 1.0, 1.0]) + [entry(digest="dX")]
        (row,) = trend_by_key(entries)
        assert row["digest_drift"] and row["drift"]

    def test_keys_group_independently(self):
        entries = history([1.0, 1.0, 1.0, 9.0], key="slow") + history(
            [1.0, 1.0, 1.0, 1.0], key="steady"
        )
        rows = {r["key"]: r for r in trend_by_key(entries)}
        assert rows["slow"]["drift"]
        assert not rows["steady"]["drift"]


class TestCheckTrend:
    def write_ledger(self, tmp_path, entries, garbage=()):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for item in entries:
            ledger.append(item)
        if garbage:
            with ledger.path.open("a", encoding="utf-8") as handle:
                for line in garbage:
                    handle.write(line + "\n")
        return ledger

    def test_ok_report(self, tmp_path):
        ledger = self.write_ledger(tmp_path, history([1.0, 1.0, 1.0]))
        report = check_trend(ledger)
        assert report["ok"]
        assert report["entries"] == 3 and report["skipped"] == 0

    def test_drift_fails_and_renders(self, tmp_path):
        ledger = self.write_ledger(
            tmp_path, history([1.0, 1.0, 1.0, 1.0, 8.0])
        )
        report = check_trend(ledger)
        assert not report["ok"]
        assert "TIME DRIFT" in render_trend(report)

    def test_unknown_schema_lines_are_skipped_not_fatal(self, tmp_path):
        ledger = self.write_ledger(
            tmp_path,
            history([1.0, 1.0, 1.0]),
            garbage=[
                "not json at all",
                '{"no_key_field": true}',
                '{"key": "future", "schema_version": 99}',
            ],
        )
        report = check_trend(ledger)
        assert report["ok"]
        assert report["skipped"] == 3
        assert "skipped 3" in render_trend(report)

    def test_missing_ledger_is_empty_not_an_error(self, tmp_path):
        report = check_trend(RunLedger(tmp_path / "absent.jsonl"))
        assert report["ok"] and report["entries"] == 0
        assert render_trend(report) == "(ledger has no trend data)"
