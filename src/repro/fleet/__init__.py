"""Fleet-scale serverless platform simulation (ROADMAP item 1).

Declarative entry point: build a :class:`~repro.fleet.request.FleetRequest`
and hand it to :func:`~repro.fleet.simulate.simulate_fleet`. The CLI
(``repro fleet run``), the Python facade (:mod:`repro.api`), and the
service (``POST /api/v1/fleets``) are all thin shells over the same two
symbols.
"""

from repro.fleet.arrival import MIXES, PATTERNS
from repro.fleet.metrics import (
    FLEET_RESULT_SCHEMA_VERSION,
    FleetResult,
    StackMetrics,
    render_fleet_report,
)
from repro.fleet.pool import POLICIES, FleetPool, PoolStats
from repro.fleet.request import (
    FLEET_SCHEMA_VERSION,
    STACKS,
    FleetRequest,
)
from repro.fleet.simulate import fleet_run_requests, simulate_fleet
from repro.fleet.telemetry import FleetRecorder

__all__ = [
    "FLEET_RESULT_SCHEMA_VERSION",
    "FLEET_SCHEMA_VERSION",
    "FleetPool",
    "FleetRecorder",
    "FleetRequest",
    "FleetResult",
    "MIXES",
    "PATTERNS",
    "POLICIES",
    "PoolStats",
    "STACKS",
    "StackMetrics",
    "fleet_run_requests",
    "render_fleet_report",
    "simulate_fleet",
]
