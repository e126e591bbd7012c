"""Observability: tracing, metrics, ledger, profiler, timeline.

The subsystem's parts are all off by default and woven through the
harness so enabling them costs one CLI flag (``repro run --trace
--metrics out.prom``, ``repro run --profile``) rather than code changes:

* :mod:`repro.obs.instruments` — the one slot every run instrument
  (tracer, profile, auditor, fleet recorder) is bound
  through: ``with instrumented(...)``, read with ``current()``.
* :mod:`repro.obs.tracing` — nested wall-clock spans over a run's
  phases, with a shared no-op null tracer when disabled.
* :mod:`repro.obs.metrics` — Stats snapshots, span trees, histograms,
  and profiles serialized to Prometheus text and JSON-lines.
* :mod:`repro.obs.ledger` — the append-only run ledger every engine
  execution writes, and the one drift check over it
  (:func:`digest_conflicts`, gated by ``repro obs report``).
* :mod:`repro.obs.profile` — exact simulated-cycle attribution (the
  paper's Fig. 9 question) and per-op log2 latency histograms.
* :mod:`repro.obs.timeline` — span trees and fleet telemetry exported as
  Chrome/Perfetto trace-event JSON (``repro obs timeline``).
"""

from repro.obs.instruments import Instruments, current, instrumented
from repro.obs.ledger import (
    LEDGER_NAME,
    RunLedger,
    default_ledger_path,
    digest_conflicts,
    fleet_manifest,
    manifest,
    payload_digest,
    split_fleet_entries,
)
from repro.obs.metrics import (
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

__all__ = [
    "CycleProfile",
    "Instruments",
    "LEDGER_NAME",
    "Log2Histogram",
    "NULL_TRACER",
    "NullTracer",
    "ProfileCell",
    "RunLedger",
    "Span",
    "Tracer",
    "current",
    "default_ledger_path",
    "digest_conflicts",
    "export_timeline",
    "fleet_manifest",
    "fleet_trace_events",
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
    "validate_trace_events",
    "write_jsonl",
    "write_prometheus",
]
