"""The stable public API facade.

``repro.api`` is the supported entry point for scripting against the
reproduction: experiment execution (engine, requests, results),
configuration, workload lookup, and observability. Internal module paths
(``repro.harness.engine``, ``repro.obs.tracing``, ...) may reorganize
between PRs; the names exported here — and their signatures — stay
stable. Import from here in notebooks, downstream scripts, and docs::

    from repro.api import run_workload, get_workload, Tracer, instrumented

    tracer = Tracer()
    with instrumented(tracer=tracer):
        result = run_workload(get_workload("html"))
    print(result.speedup)
    print(render_span_tree(tracer.to_dict()))

Everything in ``__all__`` is covered by the round-trip conventions
documented in DESIGN.md: result/config objects expose
``to_dict``/``from_dict``, engines honor ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE`` / ``REPRO_NO_LEDGER``, and every instrument is off by default. Instruments (tracer, event ring,
cycle profile, auditor, fleet recorder) are bound through one slot:
``with instrumented(...)`` sets them, ``current()`` reads them. Drift
over the run ledger is judged by one gate (``check_trend``,
``check_fleet_trend``, ``repro obs trend``).

Fleet simulation is part of the same declarative request hierarchy:
build a ``FleetRequest`` and hand it to ``simulate_fleet`` (in-process),
``ServiceClient.submit_fleet`` (over HTTP), or ``repro fleet run`` (the
CLI) — all three speak the identical versioned payload and agree on the
request's content key.

The service surface is exported here too: ``ServiceClient`` (plus the
one-liner ``submit``/``status``/``result`` helpers honoring
``REPRO_SERVICE_URL``) talks to a ``repro serve`` instance,
``ExperimentServer`` embeds the service in-process, and ``JsonBackend``
opens the result store (one ``<key>.json`` file per run under the cache
directory) for inspection.
"""

from __future__ import annotations

from repro.backends import JsonBackend
from repro.core.config import MementoConfig
from repro.fleet import (
    FleetRecorder,
    FleetRequest,
    FleetResult,
    render_fleet_report,
    simulate_fleet,
)
from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    cost_model_fingerprint,
    get_default_engine,
    source_fingerprint,
)
from repro.harness.experiment import (
    WorkloadResult,
    geometric_mean,
    run_all,
    run_workload,
)
from repro.harness.system import RunResult, SimulatedSystem
from repro.obs import (
    CycleProfile,
    EventRing,
    Instruments,
    Log2Histogram,
    NullTracer,
    RunLedger,
    Tracer,
    check_trend,
    current,
    default_ledger_path,
    export_timeline,
    instrumented,
    render_profile,
    render_span_tree,
    render_top_consumers,
    check_fleet_trend,
    render_fleet_trend,
    render_trend,
    trace_events,
    trend_by_key,
    validate_trace_events,
)
from repro.service import (
    ExperimentServer,
    JobFailed,
    ServiceClient,
    ServiceError,
    ServiceTelemetry,
    fleet_request_from_wire,
    run_request_from_wire,
)
from repro.service.client import result, status, submit
from repro.sim.params import MachineParams
from repro.sim.stats import Stats
from repro.workloads.registry import all_workloads, get_workload
from repro.workloads.synth import WorkloadSpec, generate_trace

__all__ = [
    # experiment execution
    "ExperimentEngine",
    "RunRequest",
    "RunResult",
    "SimulatedSystem",
    "WorkloadResult",
    "get_default_engine",
    "run_all",
    "run_workload",
    # fleet simulation
    "FleetRecorder",
    "FleetRequest",
    "FleetResult",
    "render_fleet_report",
    "simulate_fleet",
    # configuration
    "MachineParams",
    "MementoConfig",
    # workloads
    "WorkloadSpec",
    "all_workloads",
    "generate_trace",
    "get_workload",
    # observability
    "CycleProfile",
    "EventRing",
    "Instruments",
    "Log2Histogram",
    "NullTracer",
    "RunLedger",
    "Tracer",
    "check_fleet_trend",
    "check_trend",
    "current",
    "default_ledger_path",
    "export_timeline",
    "instrumented",
    "render_profile",
    "render_span_tree",
    "render_fleet_trend",
    "render_top_consumers",
    "render_trend",
    "trace_events",
    "trend_by_key",
    "validate_trace_events",
    # service + result store
    "ExperimentServer",
    "JobFailed",
    "JsonBackend",
    "ServiceClient",
    "ServiceError",
    "ServiceTelemetry",
    "fleet_request_from_wire",
    "result",
    "run_request_from_wire",
    "status",
    "submit",
    # provenance / stats
    "Stats",
    "cost_model_fingerprint",
    "geometric_mean",
    "source_fingerprint",
]
