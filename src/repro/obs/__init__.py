"""Observability: tracing, metrics, events, ledger, profiler, timeline.

The subsystem's parts are all off by default and woven through the
harness so enabling them costs one CLI flag (``repro run --trace
--metrics out.prom``, ``repro run --profile``) rather than code changes:

* :mod:`repro.obs.instruments` — the one slot every run instrument
  (tracer, event ring, profile, auditor, fleet recorder) is bound
  through: ``with instrumented(...)``, read with ``current()``.
* :mod:`repro.obs.tracing` — nested wall-clock spans over a run's
  phases, with a shared no-op null tracer when disabled.
* :mod:`repro.obs.metrics` — Stats snapshots, span trees, histograms,
  and profiles serialized to Prometheus text and JSON-lines.
* :mod:`repro.obs.events` — a sampled, bounded ring of hardware events
  (HOT hits, AAC bumps, bypass instantiations, TLB shootdowns).
* :mod:`repro.obs.ledger` — the append-only run ledger every engine
  execution writes.
* :mod:`repro.obs.profile` — exact simulated-cycle attribution (the
  paper's Fig. 9 question) and per-op log2 latency histograms.
* :mod:`repro.obs.timeline` — span trees and sampled events exported as
  Chrome/Perfetto trace-event JSON (``repro obs timeline``).
* :mod:`repro.obs.trend` — the one drift gate (``repro obs trend``):
  per-key wall time, digests, fleet headline metrics and bench
  throughput, judged by one policy table.
"""

from repro.obs.events import EventRing
from repro.obs.instruments import Instruments, current, instrumented
from repro.obs.ledger import (
    LEDGER_NAME,
    RunLedger,
    counter_digest,
    default_ledger_path,
    fleet_manifest,
    manifest,
    payload_digest,
    split_fleet_entries,
)
from repro.obs.metrics import (
    event_record,
    histogram_lines,
    profile_record,
    prometheus_lines,
    read_jsonl,
    render_prometheus,
    run_record,
    sanitize_metric_name,
    span_record,
    write_jsonl,
    write_prometheus,
)
from repro.obs.profile import (
    CycleProfile,
    Log2Histogram,
    ProfileCell,
    render_histograms,
    render_profile,
    render_top_consumers,
)
from repro.obs.timeline import (
    export_timeline,
    fleet_trace_events,
    trace_events,
    validate_trace_events,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    render_span_tree,
)
from repro.obs.trend import (
    check_bench_trend,
    check_fleet_trend,
    check_trend,
    fleet_trend,
    gate,
    render_bench_trend,
    render_fleet_trend,
    render_trend,
    trend_by_key,
)

__all__ = [
    "CycleProfile",
    "EventRing",
    "Instruments",
    "LEDGER_NAME",
    "Log2Histogram",
    "NULL_TRACER",
    "NullTracer",
    "ProfileCell",
    "RunLedger",
    "Span",
    "Tracer",
    "check_bench_trend",
    "check_fleet_trend",
    "check_trend",
    "counter_digest",
    "current",
    "default_ledger_path",
    "event_record",
    "export_timeline",
    "fleet_manifest",
    "fleet_trace_events",
    "fleet_trend",
    "gate",
    "histogram_lines",
    "instrumented",
    "manifest",
    "payload_digest",
    "profile_record",
    "prometheus_lines",
    "read_jsonl",
    "render_histograms",
    "render_profile",
    "render_prometheus",
    "render_span_tree",
    "render_top_consumers",
    "run_record",
    "sanitize_metric_name",
    "span_record",
    "split_fleet_entries",
    "trace_events",
    "trend_by_key",
    "render_bench_trend",
    "render_fleet_trend",
    "render_trend",
    "validate_trace_events",
    "write_jsonl",
    "write_prometheus",
]
