"""The experiment service: REST API, async job queue, wire schema.

``repro serve`` turns the process-local :class:`ExperimentEngine` into a
long-running service for many concurrent clients: submissions arrive
over HTTP as versioned :class:`RunRequest` wire payloads, become jobs
(``queued`` → ``running`` → ``done``/``failed``) run by the shared
engine (same memo, same result backend, same ledger) — at submission
for cache hits, from a bounded queue otherwise — and stream back as
:class:`RunResult` payloads bit-identical to in-process execution.
"""

from repro.service.app import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    TRACE_HEADER,
    ExperimentServer,
    ServiceState,
)
from repro.service.client import (
    DEFAULT_SERVICE_URL,
    JobFailed,
    SERVICE_URL_ENV,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import DEFAULT_WORKERS, JOB_STATES, Job, JobQueue
from repro.service.telemetry import ServiceTelemetry
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    fleet_request_from_wire,
    run_request_from_wire,
    run_requests_from_wire,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_SERVICE_URL",
    "DEFAULT_WORKERS",
    "ExperimentServer",
    "JOB_STATES",
    "Job",
    "JobFailed",
    "JobQueue",
    "SERVICE_URL_ENV",
    "ServiceClient",
    "ServiceError",
    "ServiceState",
    "ServiceTelemetry",
    "TRACE_HEADER",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "fleet_request_from_wire",
    "run_request_from_wire",
    "run_requests_from_wire",
]
