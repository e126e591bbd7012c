"""HTTP client for the experiment service.

The scripting-side counterpart of ``repro serve``: submit a
:class:`RunRequest` (or a wire dict), wait for the job, and fetch
results back as live :class:`RunResult` objects — stdlib ``http.client``
only, so the client rides along with the package everywhere the service
does. Each calling thread keeps one HTTP/1.1 connection alive across
requests; waits block on the server (``?wait=``) instead of polling.

::

    from repro.api import RunRequest, ServiceClient, get_workload

    client = ServiceClient("http://127.0.0.1:8023")
    job_id = client.submit(RunRequest(get_workload("html"), stack="memento"))
    results = client.results(job_id, timeout=300)

``base_url`` falls back to ``REPRO_SERVICE_URL`` then the default bind
of ``repro serve``; the module-level ``submit``/``status``/``result``
helpers build a client per call from that resolution for one-liners.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import uuid
import weakref
from typing import Any, Dict, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.fleet.metrics import FleetResult
from repro.fleet.request import FleetRequest
from repro.harness.engine import RunRequest
from repro.harness.system import RunResult
from repro.obs.instruments import current as current_instruments
from repro.service.app import DEFAULT_HOST, DEFAULT_PORT, TRACE_HEADER

#: Environment variable naming the service the default client targets.
SERVICE_URL_ENV = "REPRO_SERVICE_URL"

DEFAULT_SERVICE_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

#: GET retry defaults: idempotent reads survive transient connection
#: loss (a restarting service) with capped exponential backoff.
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = 0.1
MAX_BACKOFF_S = 2.0


def _close_all(connections: set) -> None:
    while connections:
        connections.pop().close()


class ServiceError(RuntimeError):
    """A service response the client could not use."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class JobFailed(ServiceError):
    """The submitted job reached the ``failed`` state."""


class ServiceClient:
    """Thin JSON-over-HTTP client for one service instance."""

    def __init__(
        self,
        base_url: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        self.base_url = (
            base_url
            or os.environ.get(SERVICE_URL_ENV)
            or DEFAULT_SERVICE_URL
        ).rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        #: Trace id of the most recent submission (client- or
        #: server-minted), for scripting a follow-up ``trace()`` call.
        self.last_trace_id: Optional[str] = None
        split = urlsplit(self.base_url)
        self._address = (split.hostname, split.port)
        self._https = split.scheme == "https"
        self._prefix = split.path
        # One connection per calling thread: a client may be shared by
        # threads, and a connection carries one request at a time.
        self._local = threading.local()
        # Every connection in use, whichever thread holds it, so close()
        # (or collecting the client) closes them all.
        self._open: set = set()
        weakref.finalize(self, _close_all, self._open)
        # Injection seams for tests (connection-failure simulation).
        self._connect = self._open_connection
        self._sleep = time.sleep

    # -- plumbing --------------------------------------------------------

    def _open_connection(self) -> http.client.HTTPConnection:
        kind = (
            http.client.HTTPSConnection
            if self._https
            else http.client.HTTPConnection
        )
        return kind(*self._address, timeout=self.timeout)

    def _connection(self, fresh: bool) -> http.client.HTTPConnection:
        """This thread's kept-alive connection; with ``fresh``, a new one
        (every kept connection has carried a request already)."""
        connection = getattr(self._local, "connection", None)
        if connection is None or fresh:
            self._drop()
            connection = self._local.connection = self._connect()
        # Re-added per request: a closed connection reopens on use.
        self._open.add(connection)
        return connection

    def _drop(self) -> None:
        """Close the calling thread's connection."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            self._open.discard(connection)
            connection.close()

    def close(self) -> None:
        """Close every connection this client holds, on any thread. Call
        it with no request in flight; later requests reconnect."""
        _close_all(self._open)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = {"Content-Type": "application/json", **(headers or {})}
        # Only idempotent reads retry: re-POSTing a submission after an
        # ambiguous connection error could enqueue the job twice. For
        # the same reason a POST goes out only on a fresh connection: a
        # kept-alive one the server has just closed would fail it
        # ambiguously too.
        attempts = 1 + (self.retries if method == "GET" else 0)
        for attempt in range(attempts):
            connection = self._connection(fresh=method != "GET")
            try:
                connection.request(
                    method, self._prefix + path, body=data, headers=headers
                )
                response = connection.getresponse()
                raw = response.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                self._drop()
                if attempt + 1 >= attempts:
                    raise ServiceError(
                        f"cannot reach service at {self.base_url}: {exc}"
                    )
                self._sleep(
                    min(MAX_BACKOFF_S, self.backoff_s * (2 ** attempt))
                )
        if response.will_close:
            self._drop()
        if response.status >= 400:
            detail = ""
            try:
                detail = json.loads(raw.decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort detail
                pass
            raise ServiceError(
                f"{method} {path} failed with HTTP {response.status}"
                + (f": {detail}" if detail else ""),
                status=response.status,
            )
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return json.loads(raw.decode("utf-8"))
        return raw.decode("utf-8")

    # -- API -------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        return self._request("GET", "/metrics")

    def workloads(self) -> List[str]:
        return self._request("GET", "/api/v1/workloads")["workloads"]

    def _submit_traced(
        self, path: str, body: Dict[str, Any], kind: str,
        trace_id: Optional[str],
    ) -> str:
        """POST a submission under a ``client.submit`` span carrying the
        trace id; the same id goes out in the ``X-Repro-Trace`` header,
        so the client span and the service's job spans share it."""
        trace_id = trace_id or uuid.uuid4().hex[:16]
        self.last_trace_id = trace_id
        with current_instruments().tracer.span(
            "client.submit", trace_id=trace_id, kind=kind
        ) as span:
            payload = self._request(
                "POST", path, body, headers={TRACE_HEADER: trace_id}
            )
            span.set("job_id", payload["job_id"])
        return payload["job_id"]

    def submit(
        self,
        request: Union[RunRequest, Dict[str, Any]],
        trace_id: Optional[str] = None,
    ) -> str:
        """Submit one run; returns the job id."""
        body = (
            request.to_dict()
            if isinstance(request, RunRequest)
            else dict(request)
        )
        return self._submit_traced("/api/v1/runs", body, "run", trace_id)

    def submit_sweep(
        self,
        requests: Sequence[Union[RunRequest, Dict[str, Any]]],
        trace_id: Optional[str] = None,
    ) -> str:
        """Submit a request batch as one sweep job; returns the job id."""
        body = {
            "requests": [
                item.to_dict() if isinstance(item, RunRequest) else dict(
                    item
                )
                for item in requests
            ]
        }
        return self._submit_traced(
            "/api/v1/sweeps", body, "sweep", trace_id
        )

    def submit_fleet(
        self,
        request: Union[FleetRequest, Dict[str, Any]],
        trace_id: Optional[str] = None,
    ) -> str:
        """Submit one fleet simulation; returns the job id."""
        body = (
            request.to_dict()
            if isinstance(request, FleetRequest)
            else dict(request)
        )
        return self._submit_traced(
            "/api/v1/fleets", body, "fleet", trace_id
        )

    def trace(self, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """The service's span record for ``trace_id`` (defaults to the
        last submission's id)."""
        trace_id = trace_id or self.last_trace_id
        if not trace_id:
            raise ServiceError("no trace id: submit something first")
        return self._request("GET", f"/api/v1/traces/{trace_id}")

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's state, transitions, and provenance."""
        return self._request("GET", f"/api/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/api/v1/jobs")["jobs"]

    def ledger(self, last: int = 20) -> Dict[str, Any]:
        return self._request("GET", f"/api/v1/ledger?last={last}")

    def _wait(
        self, job_id: str, timeout: float, poll_s: float
    ) -> Dict[str, Any]:
        """Wait until the job finishes; returns its result payload.

        State is read only through :meth:`status`. Between reads the
        server holds a ``?wait=`` request open until the job finishes,
        kept under this client's socket timeout; ``poll_s`` spaces the
        reads only when a wait comes back with the job unfinished.

        Raises :class:`JobFailed` when the job fails and
        :class:`ServiceError` on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] == "done":
                return self._request("GET", f"/api/v1/jobs/{job_id}/result")
            if status["state"] == "failed":
                raise JobFailed(
                    f"job {job_id} failed: {status.get('error')}"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:.0f}s"
                )
            begun = time.monotonic()
            wait_s = min(remaining, self.timeout / 2)
            waited = self._request(
                "GET", f"/api/v1/jobs/{job_id}?wait={wait_s:.3f}"
            )
            if waited["state"] not in ("done", "failed"):
                self._sleep(
                    max(0.0, min(remaining, poll_s)
                        - (time.monotonic() - begun))
                )

    def results(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.2,
    ) -> List[RunResult]:
        """Wait until the job finishes; returns its results in order.

        Raises :class:`JobFailed` when the job fails and
        :class:`ServiceError` on timeout.
        """
        payload = self._wait(job_id, timeout, poll_s)
        return [RunResult.from_dict(item) for item in payload["results"]]

    def result(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.2,
    ) -> RunResult:
        """Like :meth:`results` for single-run jobs."""
        results = self.results(job_id, timeout=timeout, poll_s=poll_s)
        if len(results) != 1:
            raise ServiceError(
                f"job {job_id} holds {len(results)} results; "
                "use results()"
            )
        return results[0]

    def fleet_result(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.2,
    ) -> FleetResult:
        """Wait until a fleet job finishes; returns its platform
        metrics as a live :class:`FleetResult`."""
        payload = self._wait(job_id, timeout, poll_s)
        return FleetResult.from_dict(payload["results"][0])


# -- one-liner helpers --------------------------------------------------------


def submit(
    request: Union[RunRequest, Dict[str, Any]],
    base_url: Optional[str] = None,
) -> str:
    """Submit one run against the configured service."""
    return ServiceClient(base_url).submit(request)


def status(job_id: str, base_url: Optional[str] = None) -> Dict[str, Any]:
    """Job status from the configured service."""
    return ServiceClient(base_url).status(job_id)


def result(
    job_id: str,
    base_url: Optional[str] = None,
    timeout: float = 600.0,
) -> RunResult:
    """Block until a single-run job completes; returns its result."""
    return ServiceClient(base_url).result(job_id, timeout=timeout)
