"""Chrome/Perfetto trace-event export of span trees and fleet telemetry.

Converts metrics records — ``Tracer.to_dict()`` span forests
(``kind: "spans"``) and fleet telemetry (``kind: "fleet.instance"`` /
``kind: "fleet.epoch"``) — into the Trace Event JSON format understood
by ``ui.perfetto.dev`` and ``chrome://tracing``:

* each span becomes a ``ph: "X"`` *complete* event (microsecond ``ts`` +
  ``dur``) on the span track, nesting by timestamp containment;
* fleet records become per-instance lifetime tracks and per-stack
  counter series on simulated time (:func:`fleet_trace_events`).

Span timestamps are rebased so the earliest span is ``ts=0``. Any other
record kind is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

#: Track (tid) assignments inside the single exported process.
SPAN_TID = 1
#: Fleet tracks (instance lifetimes, per-stack counters) start here.
FLEET_TID_BASE = 10

_REQUIRED_FIELDS = ("ph", "ts", "pid", "tid")


def _span_start(span: Mapping[str, Any]) -> float:
    """A span's recorded ``start``; :meth:`Tracer.to_dict` always
    writes one, so a span without it is not a span payload."""
    start = span.get("start")
    if not isinstance(start, (int, float)):
        raise ValueError(
            f"span {span.get('name', '?')!r} has no numeric 'start' field"
        )
    return float(start)


def _span_starts(span: Mapping[str, Any]) -> List[float]:
    starts = [_span_start(span)]
    for child in span.get("children", ()):
        starts.extend(_span_starts(child))
    return starts


def _emit_span(
    span: Mapping[str, Any],
    base: float,
    pid: int,
    out: List[Dict[str, Any]],
) -> None:
    """Emit one span (and its children) as complete events."""
    dur_us = max(0.0, float(span.get("seconds", 0.0))) * 1e6
    ts_us = (_span_start(span) - base) * 1e6
    event: Dict[str, Any] = {
        "name": str(span.get("name", "span")),
        "ph": "X",
        "ts": round(ts_us, 3),
        "dur": round(dur_us, 3),
        "pid": pid,
        "tid": SPAN_TID,
    }
    attrs = span.get("attrs")
    if attrs:
        event["args"] = dict(attrs)
    out.append(event)
    for child in span.get("children", ()):
        _emit_span(child, base, pid, out)


def span_trace_events(
    spans: Iterable[Mapping[str, Any]],
    base: Optional[float] = None,
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """``ph: "X"`` complete events for a span forest."""
    spans = list(spans)
    if base is None:
        starts = [s for span in spans for s in _span_starts(span)]
        base = min(starts) if starts else 0.0
    out: List[Dict[str, Any]] = []
    for span in spans:
        _emit_span(span, base, pid, out)
    return out


def fleet_trace_events(
    records: Iterable[Mapping[str, Any]], pid: int = 1
) -> List[Dict[str, Any]]:
    """Trace events for fleet telemetry records.

    ``kind: "fleet.instance"`` spans become one Perfetto track per pool
    instance — alternating ``busy``/``idle`` complete events, busy spans
    tagged cold or warm, idle spans named by how they ended, with an
    instant eviction marker where the LRU cap killed the instance.
    ``kind: "fleet.epoch"`` records become per-stack ``ph: "C"`` counter
    series (idle-pool size and cold starts over simulated time).

    Timestamps are simulated seconds (µs on the trace axis), base 0 —
    fleet records never share a clock with wall-time span records.
    """
    instance_records: List[Mapping[str, Any]] = []
    epoch_records: List[Mapping[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "fleet.instance":
            instance_records.append(record)
        elif kind == "fleet.epoch":
            epoch_records.append(record)
    if not instance_records and not epoch_records:
        return []
    out: List[Dict[str, Any]] = []
    tids: Dict[Any, int] = {}
    next_tid = FLEET_TID_BASE

    def tid_for(key: Any, name: str) -> int:
        nonlocal next_tid
        if key not in tids:
            tids[key] = next_tid
            next_tid += 1
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tids[key],
                    "args": {"name": name},
                }
            )
        return tids[key]

    spans: List[Dict[str, Any]] = []
    markers: List[Dict[str, Any]] = []
    for record in instance_records:
        stack = record.get("stack", "")
        uid = record.get("uid", 0)
        tid = tid_for(
            ("inst", stack, uid),
            f"{stack} {record.get('function', '?')}#{uid}",
        )
        start_us = float(record.get("start_s", 0.0)) * 1e6
        end_us = float(record.get("end_s", 0.0)) * 1e6
        state = record.get("state", "span")
        outcome = record.get("outcome")
        name = state if outcome is None else f"{state}·{outcome}"
        args: Dict[str, Any] = {"stack": stack, "uid": uid}
        if "cold" in record:
            args["cold"] = record["cold"]
            name = "cold start" if record["cold"] else "busy"
        if outcome is not None:
            args["outcome"] = outcome
        spans.append(
            {
                "name": name,
                "ph": "X",
                "ts": round(start_us, 3),
                "dur": round(max(0.0, end_us - start_us), 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        if outcome == "evicted":
            markers.append(
                {
                    "name": "evicted",
                    "ph": "i",
                    "ts": round(end_us, 3),
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": {"stack": stack, "uid": uid},
                }
            )
    # Perfetto requires X events monotone by start per track.
    spans.sort(key=lambda e: (e["tid"], e["ts"]))
    out.extend(spans)
    out.extend(markers)
    counters: List[Dict[str, Any]] = []
    for record in epoch_records:
        stack = record.get("stack", "")
        tid = tid_for(("counters", stack), f"{stack} pool counters")
        ts_us = float(record.get("end_s", 0.0)) * 1e6
        counters.append(
            {
                "name": f"{stack} pool",
                "ph": "C",
                "ts": round(ts_us, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "pool_size": record.get("pool_size", 0),
                    "cold_starts": record.get("cold_starts", 0),
                },
            }
        )
    counters.sort(key=lambda e: (e["tid"], e["ts"]))
    out.extend(counters)
    return out


def trace_events(
    records: Iterable[Mapping[str, Any]], pid: int = 1
) -> List[Dict[str, Any]]:
    """Trace events for a metrics-JSONL record stream.

    Consumes the ``kind: "spans"`` records that ``repro run --trace
    --metrics out.jsonl`` writes and the fleet telemetry records; other
    kinds are ignored.
    """
    span_forests: List[List[Mapping[str, Any]]] = []
    fleet_records: List[Mapping[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "spans":
            span_forests.append(list(record.get("spans", ())))
        elif kind in ("fleet.instance", "fleet.epoch"):
            fleet_records.append(record)
    starts = [
        s
        for forest in span_forests
        for span in forest
        for s in _span_starts(span)
    ]
    base = min(starts) if starts else 0.0
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": SPAN_TID,
            "args": {"name": "phases"},
        },
    ]
    # Forests share one track; records may arrive out of chronological
    # order (a client span appended after the service's job spans), so
    # sort by start — ties keep the enclosing (longer) span first.
    span_events: List[Dict[str, Any]] = []
    for forest in span_forests:
        span_events.extend(span_trace_events(forest, base=base, pid=pid))
    span_events.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
    events.extend(span_events)
    events.extend(fleet_trace_events(fleet_records, pid=pid))
    return events


def validate_trace_events(events: Iterable[Mapping[str, Any]]) -> int:
    """Check trace-event invariants; returns the number of events.

    Raises :class:`ValueError` when an event is missing a required field
    (``ph``/``ts``/``pid``/``tid``), a duration is negative, or the
    ``ph: "X"`` events on one track are not monotone by start time —
    the properties Perfetto's JSON importer relies on.
    """
    count = 0
    last_start: Dict[Any, float] = {}
    for event in events:
        count += 1
        for field in _REQUIRED_FIELDS:
            if field not in event:
                raise ValueError(
                    f"trace event {event.get('name', '?')!r} missing "
                    f"required field {field!r}"
                )
        if not isinstance(event["ts"], (int, float)):
            raise ValueError("trace event ts must be numeric")
        if event["ph"] == "X":
            dur = event.get("dur", 0)
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError("complete event dur must be >= 0")
            track = (event["pid"], event["tid"])
            if event["ts"] < last_start.get(track, float("-inf")):
                raise ValueError(
                    f"complete events out of order on track {track}"
                )
            last_start[track] = float(event["ts"])
    return count


def export_timeline(
    path, records: Iterable[Mapping[str, Any]], pid: int = 1
) -> Path:
    """Write a Perfetto-loadable trace JSON for a metrics record stream.

    The payload is the standard ``{"traceEvents": [...]}`` wrapper, which
    both Perfetto's JSON importer and ``chrome://tracing`` accept.
    """
    events = trace_events(records, pid=pid)
    validate_trace_events(events)
    path = Path(path)
    path.write_text(
        json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return path
