"""The experiment service: a framework-light HTTP API over the engine.

``repro serve`` wraps one shared :class:`ExperimentEngine` in a
:class:`ThreadingHTTPServer` plus a thin method+regex router — the one
transport, with no web framework dependency. Handlers are small
*operation* functions taking the :class:`ServiceState` and returning
``(status, payload)``; the stdlib handler dispatches into them.

Endpoints (all JSON unless noted):

* ``POST /api/v1/runs`` — submit one run; 202 with the job id. A run
  the engine can answer from its memo or result store is answered at
  submission: the job comes back already ``done``. With
  ``Prefer: return=representation`` (RFC 7240) a job finished at
  submission answers 200 with the job's status payload and its
  ``results`` (none for a failed job), plus ``job_id`` and
  ``Preference-Applied: return=representation``.
* ``POST /api/v1/sweeps`` — submit ``{"requests": [...]}`` as one job;
  ``Prefer`` as for runs.
* ``POST /api/v1/fleets`` — submit one fleet simulation (a
  ``FleetRequest`` wire payload); 202 with the job id.
* ``GET /api/v1/jobs`` — every job, submission order.
* ``GET /api/v1/jobs/<id>`` — job status and transition history;
  ``?wait=S`` first blocks until the job finishes or ``S`` seconds
  pass (at most :data:`MAX_WAIT_S`). With
  ``Prefer: return=representation`` a finished job's payload carries
  its ``results`` too: the one way to read a job's results.
* ``GET /api/v1/traces/<trace_id>`` — span record for one trace id.
* ``GET /api/v1/ledger?last=N`` — the run ledger's newest entries.
* ``GET /api/v1/workloads`` — registered workload names.
* ``GET /healthz`` — liveness plus queue depth and worker liveness
  (503 when a worker thread has died).
* ``GET /metrics`` — engine + service counters and job latency
  histograms, Prometheus text.

A submission that would queue past ``jobs.MAX_QUEUED`` waiting jobs
answers 429 with ``Retry-After``; a job evicted past
``jobs.MAX_RETAINED`` answers 404 like any unknown id.

Connections are HTTP/1.1 and kept alive; one idle for
:data:`IDLE_TIMEOUT_S` is closed, releasing its thread.

A run or sweep body seen before skips decoding and content keys: the
last :data:`MAX_DECODED` distinct bodies are kept with their decoded
requests and keys.

Trace propagation: a client sends ``X-Repro-Trace: <id>`` on a
submission (or lets the server mint one); the id is stamped onto the
job and every span it produces, so one id follows the request from the
client's ``client.submit`` span through queue wait and engine phases.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import uuid
from re import Match, compile as re_compile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.obs.metrics import histogram_lines, prometheus_lines
from repro.resolve import resolve_count
from repro.service.jobs import DEFAULT_WORKERS, Job, JobQueue, QueueFull
from repro.service.telemetry import ServiceTelemetry
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    fleet_request_from_wire,
    run_requests_from_wire,
)
from repro.workloads.registry import all_workloads

#: Default bind address for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8023

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Trace-context propagation header: the client mints a trace id and
#: sends it here; the service stamps it onto the job and its spans.
TRACE_HEADER = "X-Repro-Trace"

#: Longest a status read may block on ``?wait=``; clients keep their
#: own request under their socket timeout too.
MAX_WAIT_S = 20.0

#: Seconds a kept-alive connection may sit idle before it is closed.
IDLE_TIMEOUT_S = 60.0

#: ``Retry-After`` seconds sent with a 429 (queue full).
RETRY_AFTER_S = 1

#: The RFC 7240 preference that asks for a finished job's results in
#: the answer to a submission or a status read.
RETURN_REPRESENTATION = "return=representation"

#: Run and sweep bodies remembered with their decoded requests and
#: content keys; past this the least recently used is dropped.
MAX_DECODED = 256

#: ``(status, payload, content_type)``, optionally followed by a dict
#: of response headers — payload is a dict for JSON responses or
#: pre-rendered text otherwise.
Response = Tuple[Any, ...]

_APPLIED = {"Preference-Applied": RETURN_REPRESENTATION}


class ServiceState:
    """Everything the operations need: engine, queue, uptime, counters."""

    def __init__(
        self,
        engine: ExperimentEngine,
        workers: int = DEFAULT_WORKERS,
        telemetry: Optional[ServiceTelemetry] = None,
    ) -> None:
        self.engine = engine
        # Always-on (in-memory, bounded): telemetry only observes jobs,
        # never their payloads, so results are identical either way.
        self.telemetry = (
            telemetry if telemetry is not None else ServiceTelemetry()
        )
        self.queue = JobQueue(
            engine, workers=workers, telemetry=self.telemetry
        )
        self.started_s = time.time()
        self._monotonic_start = time.monotonic()
        self.requests_served = 0
        self._lock = threading.Lock()
        #: ``(kind, canonical body) -> (requests, keys)``, oldest use
        #: first.
        self._decoded: Dict[
            Tuple[str, str], Tuple[Tuple[RunRequest, ...], Tuple[str, ...]]
        ] = {}
        self._decoded_lock = threading.Lock()

    def decode(
        self, body: Any, kind: str
    ) -> Tuple[Sequence[RunRequest], Sequence[str]]:
        """A run or sweep body's requests and their content keys.

        Exact for a remembered body: requests are frozen, the source
        fingerprint is fixed per process and the cost model per engine,
        so decoding it again would build equal requests and the same
        keys. A body that does not decode raises and is not remembered.
        """
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        memo_key = (kind, canonical)
        with self._decoded_lock:
            decoded = self._decoded.pop(memo_key, None)
            if decoded is not None:
                self._decoded[memo_key] = decoded
                return decoded
        requests = tuple(run_requests_from_wire(body))
        if kind == "run" and len(requests) != 1:
            raise WireError("POST /api/v1/runs takes exactly one run")
        keys = tuple(
            request.content_key(self.engine.cost_model)
            for request in requests
        )
        with self._decoded_lock:
            self._decoded[memo_key] = (requests, keys)
            if len(self._decoded) > MAX_DECODED:
                del self._decoded[next(iter(self._decoded))]
        return requests, keys

    def uptime_s(self) -> float:
        return time.monotonic() - self._monotonic_start

    def count_request(self) -> None:
        with self._lock:
            self.requests_served += 1

    def close(self) -> None:
        self.queue.shutdown()


# -- operations ---------------------------------------------------------------


def op_health(state: ServiceState) -> Response:
    """Liveness with teeth: 503 when the worker pool is wedged.

    ``workers_alive < workers`` means at least one drain thread died —
    queued jobs would wait forever — so the Docker HEALTHCHECK (and any
    orchestrator probing ``/healthz``) flips unhealthy instead of
    reporting a green light over a stuck queue.
    """
    disk = state.engine.disk
    alive = state.queue.alive_workers()
    degraded = alive < state.queue.workers
    return (
        503 if degraded else 200,
        {
            "status": "degraded" if degraded else "ok",
            "schema_version": WIRE_SCHEMA_VERSION,
            "uptime_s": state.uptime_s(),
            "backend": disk.kind if disk is not None else "none",
            "workers": state.queue.workers,
            "workers_alive": alive,
            "queue_depth": state.queue.depth(),
            "jobs": state.queue.counts(),
        },
        _JSON,
    )


def op_metrics(state: ServiceState) -> Response:
    """Engine + service counters and latency histograms, Prometheus
    exposition format."""
    counts = state.queue.counts()
    service_counters = {
        "service.uptime_seconds": state.uptime_s(),
        "service.http_requests": state.requests_served,
        "service.queue_depth": state.queue.depth(),
        "service.workers_alive": state.queue.alive_workers(),
        "service.rejected": state.queue.rejected,
        "service.evicted": state.queue.evicted,
        **{
            f"service.jobs.{job_state}": count
            for job_state, count in counts.items()
        },
        **state.telemetry.snapshot(),
    }
    seen: set = set()
    lines: List[str] = []
    lines.extend(
        prometheus_lines(
            service_counters,
            {"component": "service"},
            seen_types=seen,
        )
    )
    lines.extend(
        prometheus_lines(
            # Seed the headline counter so the engine series exists (at
            # zero) before the first run — scrapers see a stable shape.
            {"engine.requests": 0, **state.engine.stats.snapshot()},
            {"component": "engine"},
            seen_types=seen,
        )
    )
    for payload in state.telemetry.histogram_payloads():
        lines.extend(
            histogram_lines(
                payload, {"component": "service"}, seen_types=seen
            )
        )
    return 200, "\n".join(lines) + "\n", _PROM


def _prefers_representation(headers: Any) -> bool:
    """Whether a ``Prefer`` header of the request (RFC 7240: comma-
    separated preferences, each with optional ``;`` parameters) asks
    for ``return=representation``."""
    for value in headers.get_all("Prefer") or ():
        for preference in value.split(","):
            token = preference.split(";", 1)[0].replace(" ", "")
            if token.lower() == RETURN_REPRESENTATION:
                return True
    return False


def _job_payload(job: Job, representation: bool) -> Dict[str, Any]:
    """The job's status payload; with ``representation``, a done job's
    carries its results. A job sets its results before it is marked
    ``done``, so a payload that reads ``done`` can take them."""
    payload = job.to_dict()
    if representation and payload["state"] == "done":
        payload["results"] = job.results
    payload["schema_version"] = WIRE_SCHEMA_VERSION
    return payload


def op_submit(
    state: ServiceState,
    body: Any,
    kind: str,
    trace_id: Optional[str] = None,
    representation: bool = False,
) -> Response:
    """Submit a run or sweep; a job finished at submission answers 200
    with its results when the client asked for ``representation``."""
    requests, keys = state.decode(body, kind)
    trace_id = trace_id or uuid.uuid4().hex[:16]
    job = state.queue.submit(
        requests, kind=kind, trace_id=trace_id, keys=keys
    )
    if representation and job.finished:
        payload = _job_payload(job, True)
        payload["job_id"] = job.id
        return 200, payload, _JSON, _APPLIED
    return (
        202,
        {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": job.id,
            "state": job.state,
            "trace_id": trace_id,
            "status_url": f"/api/v1/jobs/{job.id}",
        },
        _JSON,
    )


def op_submit_fleet(
    state: ServiceState, body: Any, trace_id: Optional[str] = None
) -> Response:
    """Submit one fleet simulation; the same payload ``repro fleet run``
    and :func:`repro.api.submit_fleet` build, so the job's content key
    matches a direct run of the identical request."""
    fleet = fleet_request_from_wire(body)
    trace_id = trace_id or uuid.uuid4().hex[:16]
    job = state.queue.submit_fleet(fleet, trace_id=trace_id)
    return (
        202,
        {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": job.id,
            "state": job.state,
            "trace_id": trace_id,
            "fleet_key": job.keys[0],
            "status_url": f"/api/v1/jobs/{job.id}",
        },
        _JSON,
    )


def op_jobs(state: ServiceState) -> Response:
    return (
        200,
        {
            "schema_version": WIRE_SCHEMA_VERSION,
            "jobs": [job.to_dict() for job in state.queue.jobs()],
        },
        _JSON,
    )


def _unknown_job(job_id: str) -> Response:
    return (
        404,
        {"error": f"unknown job {job_id!r} (never submitted, or evicted)"},
        _JSON,
    )


def _wait_seconds(value: Optional[str]) -> float:
    """The ``?wait=`` query value as seconds, capped at
    :data:`MAX_WAIT_S`; unset means no wait."""
    if value is None:
        return 0.0
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not seconds >= 0.0 or math.isinf(seconds):
        raise ValueError(
            f"wait must be a non-negative number of seconds, got {value!r}"
        )
    return min(seconds, MAX_WAIT_S)


def op_job_status(
    state: ServiceState,
    job_id: str,
    wait: Optional[str] = None,
    representation: bool = False,
) -> Response:
    """The job's status; with ``wait``, once it finishes or the wait
    runs out, whichever comes first. With ``representation``, a done
    job's status carries its results."""
    seconds = _wait_seconds(wait)
    job = state.queue.get(job_id)
    if job is None:
        return _unknown_job(job_id)
    if seconds:
        job.wait(seconds)
    payload = _job_payload(job, representation)
    if representation and payload["state"] in ("done", "failed"):
        return 200, payload, _JSON, _APPLIED
    return 200, payload, _JSON


def op_ledger(state: ServiceState, last: Any) -> Response:
    """The newest ``last`` ledger entries (a positive count; unset means
    20, anything else is a 400)."""
    last = resolve_count(last, "last", default=20)
    ledger = state.engine.ledger
    if ledger is None:
        return (
            200,
            {"schema_version": WIRE_SCHEMA_VERSION, "entries": [],
             "skipped": 0, "ledger": None},
            _JSON,
        )
    entries, skipped = ledger.read_classified()
    return (
        200,
        {
            "schema_version": WIRE_SCHEMA_VERSION,
            "ledger": str(ledger.path),
            "entries": entries[-last:],
            "skipped": skipped,
        },
        _JSON,
    )


def op_trace(state: ServiceState, trace_id: str) -> Response:
    """The stored span record for one trace id (bounded LRU store)."""
    record = state.telemetry.trace(trace_id)
    if record is None:
        return 404, {"error": f"unknown trace {trace_id!r}"}, _JSON
    payload = dict(record)
    payload["schema_version"] = WIRE_SCHEMA_VERSION
    return 200, payload, _JSON


def op_workloads(state: ServiceState) -> Response:
    return (
        200,
        {
            "schema_version": WIRE_SCHEMA_VERSION,
            "workloads": [spec.name for spec in all_workloads()],
        },
        _JSON,
    )


# -- router -------------------------------------------------------------------

#: Route callbacks take ``(state, match, query, body, headers)`` —
#: the request's header message.
RouteFn = Callable[
    [ServiceState, "Match[str]", Dict[str, List[str]], Any, Any],
    Response,
]


def _trace_id(headers: Any) -> Optional[str]:
    """The ``X-Repro-Trace`` header value, or None."""
    return headers.get(TRACE_HEADER) or None


ROUTES: List[Tuple[str, Any, RouteFn]] = [
    ("GET", re_compile(r"^/healthz$"),
     lambda state, m, q, b, h: op_health(state)),
    ("GET", re_compile(r"^/metrics$"),
     lambda state, m, q, b, h: op_metrics(state)),
    ("POST", re_compile(r"^/api/v1/runs$"),
     lambda state, m, q, b, h: op_submit(
         state, b, "run", _trace_id(h), _prefers_representation(h))),
    ("POST", re_compile(r"^/api/v1/sweeps$"),
     lambda state, m, q, b, h: op_submit(
         state, b, "sweep", _trace_id(h), _prefers_representation(h))),
    ("POST", re_compile(r"^/api/v1/fleets$"),
     lambda state, m, q, b, h: op_submit_fleet(state, b, _trace_id(h))),
    ("GET", re_compile(r"^/api/v1/jobs$"),
     lambda state, m, q, b, h: op_jobs(state)),
    ("GET", re_compile(r"^/api/v1/jobs/(?P<job_id>[0-9a-f]+)$"),
     lambda state, m, q, b, h: op_job_status(
         state, m["job_id"], q.get("wait", [None])[0],
         _prefers_representation(h))),
    ("GET", re_compile(r"^/api/v1/traces/(?P<trace_id>[0-9a-fA-F-]+)$"),
     lambda state, m, q, b, h: op_trace(state, m["trace_id"])),
    ("GET", re_compile(r"^/api/v1/ledger$"),
     lambda state, m, q, b, h: op_ledger(state, q.get("last", [None])[0])),
    ("GET", re_compile(r"^/api/v1/workloads$"),
     lambda state, m, q, b, h: op_workloads(state)),
]


class _Handler(BaseHTTPRequestHandler):
    """Dispatches into the route table; all errors become JSON."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # A kept-alive reply is a small write right after a small read; with
    # Nagle on, it waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Socket timeout while reading a request: an idle kept-alive
    #: connection is closed after this long, freeing its thread.
    timeout = IDLE_TIMEOUT_S

    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "log_requests", False):
            super().log_message(fmt, *args)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self.state.count_request()
        split = urlsplit(self.path)
        query = parse_qs(split.query)
        path_matched = False
        for route_method, pattern, fn in ROUTES:
            match = pattern.match(split.path)
            if match is None:
                continue
            path_matched = True
            if route_method != method:
                continue
            try:
                body = self._read_body() if method == "POST" else None
            except ValueError as exc:
                self._send(400, {"error": str(exc)}, _JSON)
                return
            headers: Dict[str, str] = {}
            try:
                status, payload, content_type, *extra = fn(
                    self.state, match, query, body, self.headers
                )
                if extra:
                    headers.update(extra[0])
            except QueueFull as exc:
                status, payload, content_type = 429, {
                    "error": str(exc)
                }, _JSON
                headers["Retry-After"] = str(RETRY_AFTER_S)
            except WireError as exc:
                status, payload, content_type = 400, {
                    "error": str(exc)
                }, _JSON
            except (KeyError, ValueError) as exc:
                message = exc.args[0] if exc.args else str(exc)
                status, payload, content_type = 400, {
                    "error": str(message)
                }, _JSON
            except Exception as exc:  # noqa: BLE001 - boundary
                status, payload, content_type = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }, _JSON
            self._send(status, payload, content_type, headers)
            return
        if path_matched:
            self._send(
                405, {"error": f"{method} not allowed here"}, _JSON
            )
        else:
            self._send(
                404, {"error": f"no route for {split.path}"}, _JSON
            )

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("request body must be JSON")
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")

    def _send(
        self,
        status: int,
        payload: Any,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if content_type == _JSON:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        else:
            data = str(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class _Server(ThreadingHTTPServer):
    """A threading server that can release its kept-alive connections.

    ``server_close`` joins every handler thread, and a thread serving a
    kept-alive connection otherwise sits in a read until the client
    hangs up or :data:`IDLE_TIMEOUT_S` passes. Shutting the read side
    of each open connection ends those reads at once; a reply being
    written still completes.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        super().server_close()


class ExperimentServer:
    """The bound HTTP server plus its service state.

    ``port=0`` binds an ephemeral port (tests); the bound port is on
    ``.port``. ``start()`` serves from a background thread; ``stop()``
    is idempotent and also drains the job queue — the clean-shutdown
    path ``repro serve`` runs on SIGINT/SIGTERM.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        engine: Optional[ExperimentEngine] = None,
        workers: int = DEFAULT_WORKERS,
        log_requests: bool = False,
        telemetry_path: Optional[Any] = None,
    ) -> None:
        telemetry = (
            ServiceTelemetry(path=telemetry_path)
            if telemetry_path is not None
            else None
        )
        self.state = ServiceState(
            engine or ExperimentEngine(),
            workers=workers,
            telemetry=telemetry,
        )
        self._http = _Server((host, port), _Handler)
        self._http.state = self.state  # type: ignore[attr-defined]
        self._http.log_requests = log_requests  # type: ignore[attr-defined]
        self.host, self.port = self._http.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        self._http.serve_forever()

    def start(self) -> "ExperimentServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.state.close()

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
