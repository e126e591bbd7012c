"""Perfetto trace-event export: schema, nesting, round trips."""

import json
from dataclasses import replace

import pytest

from repro.harness.engine import RunRequest
from repro.obs.instruments import instrumented
from repro.obs.metrics import span_record
from repro.obs.timeline import (
    SPAN_TID,
    export_timeline,
    span_trace_events,
    trace_events,
    validate_trace_events,
)
from repro.obs.tracing import Tracer
from repro.workloads.registry import get_workload


def nested_span_payload():
    tracer = Tracer()
    with tracer.span("outer", workload="html"):
        with tracer.span("inner.a"):
            pass
        with tracer.span("inner.b"):
            pass
    return tracer.to_dict()["spans"]


class TestSpanEvents:
    def test_complete_event_schema(self):
        events = span_trace_events(nested_span_payload())
        assert [e["name"] for e in events] == ["outer", "inner.a", "inner.b"]
        for event in events:
            assert event["ph"] == "X"
            assert event["tid"] == SPAN_TID
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert events[0]["args"] == {"workload": "html"}

    def test_children_nest_inside_the_parent(self):
        outer, inner_a, inner_b = span_trace_events(nested_span_payload())
        outer_end = outer["ts"] + outer["dur"]
        for child in (inner_a, inner_b):
            assert child["ts"] >= outer["ts"]
            assert child["ts"] + child["dur"] <= outer_end + 1e-6
        assert inner_b["ts"] >= inner_a["ts"]

    def test_earliest_span_rebases_to_zero(self):
        events = span_trace_events(nested_span_payload())
        assert min(e["ts"] for e in events) == 0

    def test_startless_span_rejected(self):
        # ``Tracer.to_dict`` always writes ``start``; a child without
        # one is malformed, not laid out.
        spans = nested_span_payload()
        del spans[0]["children"][1]["start"]
        with pytest.raises(ValueError, match="'inner.b' has no numeric"):
            span_trace_events(spans)


class TestTraceEvents:
    def test_metadata_tracks_are_emitted(self):
        records = [span_record({"spans": nested_span_payload()})]
        events = trace_events(records)
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"repro", "phases"}

    def test_legacy_events_record_is_ignored(self):
        # Metrics files written before the sampled event ring was
        # removed carry a ``kind: "events"`` record; it adds no track.
        tracer = Tracer()
        with tracer.span("run"):
            pass
        records = [
            span_record(tracer.to_dict()),
            {
                "kind": "events",
                "counts": {"hot.alloc_hit": 1},
                "events": [[1, "hot.alloc_hit", 0, 0.0]],
            },
        ]
        events = trace_events(records)
        assert events == trace_events(records[:1])
        assert {e["tid"] for e in events} == {0, SPAN_TID}

    def test_other_record_kinds_are_ignored(self):
        events = trace_events([{"kind": "run", "workload": "html"}])
        assert all(e["ph"] == "M" for e in events)


class TestValidation:
    def test_missing_field_raises(self):
        with pytest.raises(ValueError, match="missing"):
            validate_trace_events([{"ph": "X", "ts": 0, "pid": 1}])

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError, match="dur"):
            validate_trace_events(
                [{"ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}]
            )

    def test_non_monotone_track_raises(self):
        events = [
            {"ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1},
            {"ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="out of order"):
            validate_trace_events(events)

    def test_separate_tracks_validate_independently(self):
        events = [
            {"ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1},
            {"ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 2},
        ]
        assert validate_trace_events(events) == 2


class TestExport:
    def test_real_run_exports_a_loadable_trace(self, tmp_path):
        tracer = Tracer()
        spec = replace(get_workload("html").resolved(), num_allocs=1_000)
        with instrumented(tracer=tracer):
            RunRequest(spec=spec, stack="memento").execute()
        out = export_timeline(
            tmp_path / "trace.json", [span_record(tracer.to_dict())]
        )
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert validate_trace_events(events) == len(events)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "system.run" in names and "replay" in names
        assert {e["tid"] for e in events} == {0, SPAN_TID}
