"""Tests for the run ledger (:mod:`repro.obs.ledger`) and the digest
drift check over it (:func:`digest_conflicts`)."""

import json
import sys
import threading

import pytest

from repro.obs.ledger import (
    RunLedger,
    default_ledger_path,
    digest_conflicts,
    manifest,
    payload_digest,
)


class TestCounterDigest:
    """A run line's ``counter_digest`` is ``payload_digest`` of its
    counter snapshot."""

    def test_order_independent(self):
        assert payload_digest({"a": 1.0, "b": 2.0}) == payload_digest(
            {"b": 2.0, "a": 1.0}
        )

    def test_value_sensitive(self):
        assert payload_digest({"a": 1.0}) != payload_digest({"a": 2.0})

    def test_format(self):
        digest = payload_digest({})
        assert len(digest) == 16
        int(digest, 16)  # hex

    def test_hex_is_pinned(self):
        # The hex every ledger written so far holds for these counters:
        # a new digest for the same snapshot would read as false drift
        # against every older line.
        counters = {"cycles.app": 12.0, "memento.hot.hits": 3, "a": 0.5}
        assert payload_digest(counters) == "5978920cc26cc98a"


def test_manifest_shape():
    entry = manifest(
        key="k1",
        workload="html",
        stack="memento",
        source="live",
        elapsed_s=1.25,
        result_summary={
            "total_cycles": 10.0,
            "dram_bytes": 20.0,
            "stats": {"c": 1.0},
        },
        fingerprints={"source": "abc"},
    )
    assert entry["schema_version"] == 1
    assert "schema" not in entry
    assert entry["key"] == "k1"
    assert entry["workload"] == "html"
    assert entry["source"] == "live"
    assert entry["elapsed_s"] == 1.25
    assert entry["total_cycles"] == 10.0
    assert entry["counter_digest"] == payload_digest({"c": 1.0})
    assert entry["fingerprints"] == {"source": "abc"}
    assert entry["ts"] > 0


class TestRunLedger:
    def entry(self, key="k", digest="d1"):
        return {"key": key, "counter_digest": digest}

    def test_append_creates_parents_and_read_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "ledger.jsonl")
        ledger.append(self.entry("a"))
        ledger.append(self.entry("b"))
        assert [e["key"] for e in ledger.read()] == ["a", "b"]

    def test_read_missing_file(self, tmp_path):
        assert RunLedger(tmp_path / "nope.jsonl").read() == []

    def test_concurrent_appends_never_tear_a_line(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        # Long lines, so a torn write would show as unparseable JSON.
        pad = "x" * 2_000

        def write(thread: int) -> None:
            for index in range(50):
                ledger.append({"key": f"t{thread}-{index}", "pad": pad})

        threads = [
            threading.Thread(target=write, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # A fresh reader, while the writer's handle is still open, sees
        # every line whole.
        entries, skipped = RunLedger(ledger.path).read_classified()
        assert skipped == 0
        assert sorted(e["key"] for e in entries) == sorted(
            f"t{n}-{i}" for n in range(8) for i in range(50)
        )

    def test_close_then_append_reopens(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(self.entry("a"))
        ledger.close()
        ledger.close()  # idempotent
        ledger.append(self.entry("b"))
        assert [e["key"] for e in RunLedger(ledger.path).read()] == [
            "a", "b"
        ]

    def test_read_skips_corrupt_and_keyless_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            json.dumps(self.entry("good")) + "\n"
            + "garbage\n"
            + json.dumps({"no_key": True}) + "\n"
        )
        assert [e["key"] for e in RunLedger(path).read()] == ["good"]

    def test_digests_by_key_deduplicates(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(self.entry("k", "d1"))
        ledger.append(self.entry("k", "d1"))
        ledger.append(self.entry("k", "d2"))
        ledger.append(self.entry("k", "d1"))
        ledger.append(self.entry("other", "d9"))
        assert digest_conflicts(ledger.read()) == {"k": ["d1", "d2"]}


def test_check_ledger_determinism(tmp_path):
    ledger = RunLedger(default_ledger_path(tmp_path))
    ledger.append({"key": "stable", "counter_digest": "d1"})
    ledger.append({"key": "stable", "counter_digest": "d1"})
    assert digest_conflicts(ledger.read()) == {}
    ledger.append({"key": "stable", "counter_digest": "d2"})
    assert digest_conflicts(ledger.read()) == {"stable": ["d1", "d2"]}


class TestDigestConflicts:
    def run_line(self, key="k1", digest="d0", source="live", elapsed=1.0):
        return {
            "key": key, "workload": "html", "stack": "memento",
            "source": source, "elapsed_s": elapsed,
            "counter_digest": digest,
        }

    def fleet_line(self, key="f1", digest="m0"):
        return {"kind": "fleet", "key": key, "metrics_digest": digest}

    def test_digest_drift_flags_regardless_of_timing(self):
        # A slow run, cache and memo replays: only the digest counts.
        entries = [
            self.run_line(elapsed=1.0),
            self.run_line(elapsed=9.0),
            self.run_line(source="cache", elapsed=0.0),
            self.run_line(source="memo", elapsed=0.0),
        ]
        assert digest_conflicts(entries) == {}
        entries.append(self.run_line(digest="dX", elapsed=1.0))
        assert digest_conflicts(entries) == {"k1": ["d0", "dX"]}

    def test_keys_are_checked_independently(self):
        entries = [
            self.run_line(key="steady"),
            self.run_line(key="drifting"),
            self.run_line(key="steady"),
            self.run_line(key="drifting", digest="d1"),
        ]
        assert digest_conflicts(entries) == {"drifting": ["d0", "d1"]}

    def test_fleet_lines_compare_metrics_digests(self):
        entries = [
            self.fleet_line(),
            # A fleet line's counter_digest, if any, is not its digest.
            {**self.fleet_line(), "counter_digest": "ignored"},
            self.fleet_line(digest="m1"),
            self.fleet_line(key="f2"),
        ]
        assert digest_conflicts(entries) == {"f1": ["m0", "m1"]}

    def test_lines_without_a_digest_are_ignored(self):
        entries = [
            {"key": "k1"},
            self.run_line(),
            {"key": "k1", "counter_digest": None},
            {"kind": "fleet", "key": "f1"},
        ]
        assert digest_conflicts(entries) == {}


def test_default_ledger_path(tmp_path):
    assert default_ledger_path(tmp_path).name == "ledger.jsonl"
    assert default_ledger_path(str(tmp_path)).parent == tmp_path


# -- schema-tolerant reads ----------------------------------------------------


class TestReadClassified:
    def test_counts_unrecognized_lines(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"key": "a", "schema_version": 1})
        ledger.append({"key": "b"})  # pre-schema line: accepted as v1
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write("garbage\n")
            handle.write('{"no_key": true}\n')
            handle.write('{"key": "c", "schema_version": 99}\n')
            handle.write('{"key": "d", "schema_version": "weird"}\n')
        entries, skipped = ledger.read_classified()
        assert [e["key"] for e in entries] == ["a", "b"]
        assert skipped == 4

    @pytest.mark.parametrize("version", [True, False, 0, -3, 1.0, None])
    def test_skips_unsupported_versions(self, tmp_path, version):
        # ``bool`` is an ``int`` and versions start at 1.
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"key": "a", "schema_version": 1})
        ledger.append({"key": "b", "schema_version": version})
        entries, skipped = ledger.read_classified()
        assert [e["key"] for e in entries] == ["a"]
        assert skipped == 1

    def test_read_matches_classified_entries(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"key": "a"})
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "z", "schema_version": 99}\n')
        assert ledger.read() == ledger.read_classified()[0]

    def test_missing_file_is_empty(self, tmp_path):
        entries, skipped = RunLedger(
            tmp_path / "absent.jsonl"
        ).read_classified()
        assert entries == [] and skipped == 0
