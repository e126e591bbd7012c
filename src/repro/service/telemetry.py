"""Service telemetry: job traces, latency histograms, backend counters.

The service's observability seam. :class:`ServiceTelemetry` hangs off
:class:`~repro.service.app.ServiceState` and observes every job the
queue drains:

* **Traces** — each job gets a synthesized ``job.queued`` span (submit →
  start) and a ``job.run`` span (start → finish) whose children are the
  engine's own span forest, captured on the thread that ran it via a
  per-thread :class:`~repro.obs.tracing.Tracer`. The submission's
  ``trace_id`` is stamped onto every span, so one id links the client's
  ``client.submit`` span, the queue lifecycle, and the engine phases in
  a JSONL export or Perfetto timeline. A bounded LRU of recent traces
  backs ``GET /api/v1/traces/<id>``.
* **Histograms** — log2 wait/run latency (microseconds), rendered into
  ``/metrics`` as Prometheus histograms.
* **Counters** — completed/failed totals, per-kind totals, folded into
  the service's counter snapshot.

Telemetry observes; it never touches job payloads, so ``RunResult`` and
``FleetResult`` wire dicts are byte-identical with or without it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.profile import Log2Histogram

#: Traces kept in memory for ``GET /api/v1/traces/<id>`` (LRU-bounded).
DEFAULT_MAX_TRACES = 256


def stamp_trace_id(spans: List[Dict[str, Any]], trace_id: str) -> None:
    """Stamp ``trace_id`` into the attrs of every span in the forest."""
    stack = list(spans)
    while stack:
        span = stack.pop()
        attrs = span.setdefault("attrs", {})
        attrs["trace_id"] = trace_id
        stack.extend(span.get("children", ()))


class ServiceTelemetry:
    """Per-service trace store, latency histograms, and counters."""

    def __init__(
        self,
        path: Optional[Path] = None,
        max_traces: int = DEFAULT_MAX_TRACES,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self.wait_us = Log2Histogram("service.job.wait_us")
        self.run_us = Log2Histogram("service.job.run_us")
        self._counters: Dict[str, float] = {}
        #: trace_id -> span record, insertion order == recency.
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # -- observation (called from the threads that run jobs) ------------

    def observe_job(
        self,
        job: Any,
        tracer: Any,
        started_pc: float,
        finished_pc: float,
    ) -> None:
        """Fold one finished job into traces, histograms, and counters.

        ``started_pc``/``finished_pc`` are ``perf_counter`` stamps taken
        on the thread that ran the job; together with its ``submitted_pc``
        they synthesize the ``job.queued`` and ``job.run`` spans on the
        same clock the engine's tracer uses, so the timeline exporter
        can rebase them all onto one axis.
        """
        wait_s = max(0.0, started_pc - job.submitted_pc)
        run_s = max(0.0, finished_pc - started_pc)
        run_span: Dict[str, Any] = {
            "name": "job.run",
            "seconds": run_s,
            "start": started_pc,
            "attrs": {
                "job_id": job.id,
                "kind": job.kind,
                "state": job.state,
            },
        }
        children = tracer.to_dict().get("spans", [])
        if children:
            run_span["children"] = children
        spans = [
            {
                "name": "job.queued",
                "seconds": wait_s,
                "start": job.submitted_pc,
                "attrs": {"job_id": job.id, "kind": job.kind},
            },
            run_span,
        ]
        trace_id = getattr(job, "trace_id", None)
        if trace_id:
            stamp_trace_id(spans, trace_id)
        record = {
            "kind": "spans",
            "trace_id": trace_id,
            "job_id": job.id,
            "job_kind": job.kind,
            "state": job.state,
            "wait_s": wait_s,
            "run_s": run_s,
            "spans": spans,
        }
        with self._lock:
            self.wait_us.record(int(wait_s * 1e6))
            self.run_us.record(int(run_s * 1e6))
            self._bump(f"service.jobs.finished.{job.state}")
            self._bump(f"service.jobs.kind.{job.kind}")
            if trace_id:
                self._traces[trace_id] = record
                self._traces.move_to_end(trace_id)
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
        if self.path is not None:
            line = json.dumps(record, sort_keys=True) + "\n"
            with self._lock:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(line)

    def count(self, name: str, delta: float = 1) -> None:
        """Bump one named counter (backend ops, retries, ...)."""
        with self._lock:
            self._bump(name, delta)

    def _bump(self, name: str, delta: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    # -- export ----------------------------------------------------------

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The stored span record for ``trace_id``, or None."""
        with self._lock:
            return self._traces.get(trace_id)

    def snapshot(self) -> Dict[str, float]:
        """Counter snapshot (copy), for the ``/metrics`` exposition."""
        with self._lock:
            return dict(self._counters)

    def histogram_payloads(self) -> List[Dict[str, Any]]:
        """``Log2Histogram.to_dict`` payloads, for ``/metrics``."""
        with self._lock:
            return [self.wait_us.to_dict(), self.run_us.to_dict()]
