"""Tests for metrics export (:mod:`repro.obs.metrics`)."""

import pytest

from repro.obs.metrics import (
    event_record,
    prometheus_lines,
    read_jsonl,
    render_prometheus,
    run_record,
    sanitize_metric_name,
    span_record,
    write_jsonl,
    write_prometheus,
)


class TestSanitize:
    def test_dots_become_underscores_with_prefix(self):
        assert (
            sanitize_metric_name("hot.alloc_hits") == "repro_hot_alloc_hits"
        )

    def test_leading_digit_guard_and_no_prefix(self):
        assert sanitize_metric_name("9lives", prefix="") == "_9lives"

    def test_illegal_characters_folded(self):
        assert sanitize_metric_name("a-b c") == "repro_a_b_c"


class TestPrometheusLines:
    def test_help_type_headers_labels_and_value(self):
        lines = prometheus_lines(
            {"cycles.total": 12.0}, {"workload": "html", "stack": "memento"}
        )
        assert lines[0] == (
            "# HELP repro_cycles_total repro counter cycles.total"
        )
        assert lines[1] == "# TYPE repro_cycles_total gauge"
        assert lines[2] == (
            'repro_cycles_total{stack="memento",workload="html"} 12'
        )

    def test_names_sorted_and_type_deduped_across_snapshots(self):
        seen = set()
        first = prometheus_lines({"b": 1, "a": 2}, seen_types=seen)
        second = prometheus_lines({"a": 3}, seen_types=seen)
        metrics = [l for l in first if not l.startswith("#")]
        assert metrics == ["repro_a 2", "repro_b 1"]
        assert not any(l.startswith("#") for l in second)

    def test_label_values_escaped(self):
        (line,) = prometheus_lines({"x": 1}, {"q": 'say "hi"'})[2:]
        assert r'q="say \"hi\""' in line


def test_render_prometheus_multi_snapshot_document():
    doc = render_prometheus([
        {"labels": {"stack": "baseline"}, "counters": {"c": 1.0}},
        {"labels": {"stack": "memento"}, "counters": {"c": 2.0}},
    ])
    assert doc.count("# TYPE repro_c gauge") == 1
    assert 'repro_c{stack="baseline"} 1' in doc
    assert 'repro_c{stack="memento"} 2' in doc
    assert doc.endswith("\n")
    assert render_prometheus([]) == ""


def test_write_prometheus(tmp_path):
    out = write_prometheus(
        tmp_path / "m.prom", [{"labels": {}, "counters": {"k": 5}}]
    )
    assert out.read_text() == (
        "# HELP repro_k repro counter k\n# TYPE repro_k gauge\nrepro_k 5\n"
    )


class TestRecords:
    SUMMARY = {
        "name": "html",
        "memento": True,
        "total_cycles": 100.0,
        "seconds": 0.5,
        "dram_bytes": 64.0,
        "stats": {"hot.hits": 3.0},
    }

    def test_run_record_requires_stack(self):
        record = run_record(self.SUMMARY, stack="memento")
        assert record["kind"] == "run"
        assert record["workload"] == "html"
        assert record["stack"] == "memento"
        assert record["counters"] == {"hot.hits": 3.0}
        with pytest.raises(TypeError):
            run_record(self.SUMMARY)

    def test_run_record_stack_override(self):
        record = run_record(self.SUMMARY, stack="memento_nobypass")
        assert record["stack"] == "memento_nobypass"

    def test_run_record_baseline(self):
        record = run_record({**self.SUMMARY, "memento": False}, "baseline")
        assert record["stack"] == "baseline"

    def test_span_and_event_records(self):
        spans = span_record({"spans": [{"name": "a", "seconds": 0.0}]})
        assert spans == {
            "kind": "spans", "spans": [{"name": "a", "seconds": 0.0}]
        }
        events = event_record({"counts": {"x": 1}, "events": []})
        assert events["kind"] == "events"
        assert events["counts"] == {"x": 1}


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = [{"kind": "run", "workload": "html"}, {"kind": "spans"}]
        write_jsonl(path, records)
        assert read_jsonl(path) == records

    def test_read_skips_blank_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"ok": 1}\n\nnot json\n[1, 2]\n{"ok": 2}\n')
        assert read_jsonl(path) == [{"ok": 1}, {"ok": 2}]

    def test_read_missing_file_returns_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []


# -- histogram exposition -----------------------------------------------------


class TestHistogramLines:
    def payload(self):
        from repro.obs.profile import Log2Histogram

        hist = Log2Histogram("op.alloc")
        for value in (2, 3, 40, 900):
            hist.record(value)
        return hist.to_dict()

    def test_buckets_are_cumulative_with_inf_terminal(self):
        from repro.obs.metrics import histogram_lines

        lines = histogram_lines(self.payload())
        assert lines[0] == (
            "# HELP repro_op_alloc repro log2 histogram op.alloc"
        )
        assert lines[1] == "# TYPE repro_op_alloc histogram"
        assert 'repro_op_alloc_bucket{le="3"} 2' in lines
        assert 'repro_op_alloc_bucket{le="63"} 3' in lines
        assert 'repro_op_alloc_bucket{le="1023"} 4' in lines
        assert 'repro_op_alloc_bucket{le="+Inf"} 4' in lines
        assert "repro_op_alloc_sum 945" in lines
        assert "repro_op_alloc_count 4" in lines

    def test_labels_compose_with_le(self):
        from repro.obs.metrics import histogram_lines

        lines = histogram_lines(self.payload(), labels={"workload": "html"})
        assert any(
            'le="+Inf"' in line and 'workload="html"' in line
            for line in lines
        )

    def test_shared_seen_types_suppresses_duplicate_headers(self):
        from repro.obs.metrics import histogram_lines

        seen = set()
        first = histogram_lines(self.payload(), seen_types=seen)
        second = histogram_lines(self.payload(), seen_types=seen)
        assert first[0].startswith("# HELP")
        assert first[1].startswith("# TYPE")
        assert not any(line.startswith("#") for line in second)


def test_profile_record_wraps_the_payload():
    from repro.obs.metrics import profile_record
    from repro.obs.profile import CycleProfile

    profile = CycleProfile()
    record = profile_record(profile.to_dict())
    assert record["kind"] == "profile"
    assert record["runs"] == [] and "histograms" in record
