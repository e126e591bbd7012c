"""Wire schema for the experiment service.

The service speaks the versioned payloads of the declarative request
hierarchy — :meth:`RunRequest.to_dict` / ``from_dict`` for runs and
sweeps, :meth:`FleetRequest.to_dict` / ``from_dict`` for fleet
simulations — all built on the one shared codec in :mod:`repro.codec`
(``schema_version`` stamping, tolerant version-0 readers, newer-version
and unknown-field rejection). One client-side convenience on top: a run
submission may name a registered workload
(``{"workload": "html", "stack": "snapshot"}``, or the legacy boolean
spelling ``{"workload": "html", "memento": true}``) instead of inlining
the full spec, optionally with ``spec_overrides`` (e.g. a smaller
``num_allocs``). Either way the parsed request is the same object the
in-process API builds, so a submission over HTTP hashes to the same
content key — and therefore the same cached result — as the same request
executed directly through the engine.

Malformed submissions raise :class:`WireError`, which the HTTP layer
maps to a 400 response carrying the message.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from repro.fleet.request import FleetRequest
from repro.harness.engine import REQUEST_SCHEMA_VERSION, RunRequest
from repro.workloads.registry import get_workload

#: Version of the HTTP envelope (request and response bodies). Tracks
#: the RunRequest payload version — the envelope adds no fields yet.
WIRE_SCHEMA_VERSION = REQUEST_SCHEMA_VERSION


class WireError(ValueError):
    """A submission the wire schema rejects (HTTP 400)."""


def run_request_to_wire(request: RunRequest) -> Dict[str, Any]:
    """The wire form of a request (already versioned)."""
    return request.to_dict()


def run_request_from_wire(payload: Any) -> RunRequest:
    """Parse one submitted run description into a :class:`RunRequest`."""
    if not isinstance(payload, dict):
        raise WireError(
            f"run submission must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    body = dict(payload)
    name = body.pop("workload", None)
    if name is not None:
        if not isinstance(name, str):
            raise WireError(
                f"workload must be a name, got {type(name).__name__}"
            )
        if "spec" in body:
            raise WireError("pass either workload or spec, not both")
        overrides = body.pop("spec_overrides", None) or {}
        if not isinstance(overrides, dict):
            raise WireError("spec_overrides must be an object")
        try:
            spec = get_workload(name)
        except KeyError as exc:
            raise WireError(str(exc.args[0] if exc.args else exc))
        try:
            if overrides:
                spec = dataclasses.replace(spec, **overrides)
        except TypeError as exc:
            raise WireError(f"bad spec_overrides: {exc}")
        body["spec"] = dataclasses.asdict(spec)
    try:
        # Version tolerance/rejection is the shared codec's job (see
        # RunRequest.from_dict), not re-implemented here.
        return RunRequest.from_dict(body)
    except (TypeError, ValueError) as exc:
        raise WireError(str(exc))


def run_requests_from_wire(payload: Any) -> List[RunRequest]:
    """Parse a submission body into its request batch.

    A sweep body is ``{"requests": [...]}``; a single-run body is one
    run description. Both parse through :func:`run_request_from_wire`.
    """
    if isinstance(payload, dict) and "requests" in payload:
        items = payload["requests"]
        if not isinstance(items, list) or not items:
            raise WireError("requests must be a non-empty array")
        return [run_request_from_wire(item) for item in items]
    return [run_request_from_wire(payload)]


def fleet_request_to_wire(request: FleetRequest) -> Dict[str, Any]:
    """The wire form of a fleet request (already versioned)."""
    return request.to_dict()


def fleet_request_from_wire(payload: Any) -> FleetRequest:
    """Parse one submitted fleet description into a
    :class:`FleetRequest` — the identical payload the CLI and
    :mod:`repro.api` build, so an HTTP fleet submission shares its
    content key with the same fleet run directly."""
    if not isinstance(payload, dict):
        raise WireError(
            f"fleet submission must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    try:
        return FleetRequest.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise WireError(str(exc))
