"""Platform metrics reduced from a fleet pass, and their wire form.

The reduction step turns per-arrival events (cold or warm, latency,
DRAM traffic) plus the pool's stranding accounting into the three
platform quantities the paper's argument rests on:

* cold-start latency distribution (p50/p95/p99 of cold invocations),
* memory stranding over time (byte-seconds of idle residency per epoch),
* fleet-wide DRAM traffic,

for each simulated stack, plus a baseline-vs-memento comparison.

``FleetResult`` is versioned the same way as every other wire type in
the repo (see :mod:`repro.codec`): stamped on write, newer versions
rejected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro import codec

FLEET_RESULT_SCHEMA_VERSION = 1

RESULT_CODEC = codec.VersionedCodec(
    "FleetResult", FLEET_RESULT_SCHEMA_VERSION
)

PERCENTILES = (50, 95, 99)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence.

    Raises on an empty sequence: a percentile of nothing is not 0.0,
    and silently reporting one turned "this stack never went cold"
    into "this stack has zero-latency cold starts" in the fleet
    report. Callers with possibly-empty data go through
    :func:`percentile_summary`, whose empty dict is the explicit
    no-samples marker.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 100:
        raise ValueError("percentile q must be in (0, 100]")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil division
    return float(sorted_values[int(rank) - 1])


def percentile_summary(values: List[float]) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` of ``values`` (unsorted).

    An empty input returns ``{}`` — the explicit "no samples" marker.
    Consumers read percentiles with ``.get`` and render missing
    values as ``-`` rather than fabricating a 0.0.
    """
    if not values:
        return {}
    ordered = sorted(values)
    return {f"p{q}": percentile(ordered, q) for q in PERCENTILES}


@dataclass
class StackMetrics:
    """One stack's platform metrics from a fleet pass."""

    stack: str = "baseline"
    invocations: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    expirations: int = 0
    evictions: int = 0
    peak_warm: int = 0
    #: Cold-start fraction of all invocations.
    cold_start_rate: float = 0.0
    #: End-to-end latency percentiles (ms) over every invocation.
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: Cold-start latency percentiles (ms) over cold invocations only.
    cold_start_ms: Dict[str, float] = field(default_factory=dict)
    #: Fleet-wide DRAM traffic across all invocations (bytes).
    dram_bytes: float = 0.0
    #: Total idle residency (byte-seconds).
    stranded_byte_seconds: float = 0.0
    #: Idle residency per epoch (byte-seconds): the stranding timeline.
    stranding_timeline: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "StackMetrics":
        return cls(**codec.checked_fields(cls, data, "StackMetrics"))


def compare_stacks(
    baseline: StackMetrics, memento: StackMetrics
) -> Dict[str, float]:
    """Memento-over-baseline ratios for the headline platform metrics."""

    def ratio(m: float, b: float) -> float:
        return m / b if b else 0.0

    return {
        "cold_start_p99_ratio": ratio(
            memento.cold_start_ms.get("p99", 0.0),
            baseline.cold_start_ms.get("p99", 0.0),
        ),
        "latency_p99_ratio": ratio(
            memento.latency_ms.get("p99", 0.0),
            baseline.latency_ms.get("p99", 0.0),
        ),
        "dram_ratio": ratio(memento.dram_bytes, baseline.dram_bytes),
        "stranding_ratio": ratio(
            memento.stranded_byte_seconds, baseline.stranded_byte_seconds
        ),
    }


@dataclass
class FleetResult:
    """Everything one fleet simulation produced, in wire form."""

    #: Content key of the FleetRequest that produced this.
    fleet_key: str = ""
    seed: int = 0
    invocations: int = 0
    duration_s: float = 0.0
    epochs: int = 0
    #: Epoch boundaries (len == epochs + 1), the timeline's x axis.
    epoch_edges: List[float] = field(default_factory=list)
    #: Unique engine runs behind this fleet (the fan-out size).
    engine_runs: int = 0
    #: stack name -> metrics.
    stacks: Dict[str, StackMetrics] = field(default_factory=dict)
    #: Memento-over-baseline ratios (empty unless both stacks ran).
    comparison: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        body = dataclasses.asdict(self)
        body["stacks"] = {
            name: metrics.to_dict() for name, metrics in self.stacks.items()
        }
        return RESULT_CODEC.stamp(body)

    @classmethod
    def from_dict(cls, data: Any) -> "FleetResult":
        body = RESULT_CODEC.open_into(cls, data)
        if "stacks" in body:
            body["stacks"] = {
                name: StackMetrics.from_dict(metrics)
                for name, metrics in body["stacks"].items()
            }
        return cls(**body)


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:,.1f} {unit}"
        value /= 1024.0
    return f"{value:,.1f} TiB"


def _fmt_pct(summary: Dict[str, float], key: str) -> str:
    """Percentile cell, ``-`` when the summary has no samples."""
    value = summary.get(key)
    return f"{value:>7.2f}" if value is not None else f"{'-':>7}"


def _report_stacks(result: FleetResult) -> List[str]:
    """Stacks to report: registry order first, then unknown extras."""
    from repro import stacks as stack_registry

    known = [
        name
        for name in stack_registry.stack_names()
        if name in result.stacks
    ]
    extras = sorted(set(result.stacks) - set(known))
    return known + extras


def render_fleet_report(result: FleetResult) -> str:
    """Human-readable platform report for one fleet result."""
    lines: List[str] = []
    lines.append(
        f"Fleet: {result.invocations:,} invocations over "
        f"{result.duration_s:,.0f}s ({result.epochs} epochs, "
        f"seed {result.seed}, {result.engine_runs} engine runs)"
    )
    lines.append("")
    header = (
        f"{'stack':<10} {'cold%':>6} "
        f"{'cold p50/p95/p99 (ms)':>24} "
        f"{'lat p99 (ms)':>13} {'DRAM':>12} {'stranded':>16}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in _report_stacks(result):
        metrics = result.stacks[name]
        cold = metrics.cold_start_ms
        lat_p99 = metrics.latency_ms.get("p99")
        lines.append(
            f"{name:<10} {100.0 * metrics.cold_start_rate:>5.1f}% "
            f"{_fmt_pct(cold, 'p50')}/{_fmt_pct(cold, 'p95')}/"
            f"{_fmt_pct(cold, 'p99')} "
            + (
                f"{lat_p99:>13.2f} "
                if lat_p99 is not None
                else f"{'-':>13} "
            )
            + f"{_fmt_bytes(metrics.dram_bytes):>12} "
            f"{_fmt_bytes(metrics.stranded_byte_seconds):>12}·s"
        )
    if result.comparison:
        lines.append("")
        lines.append("memento / baseline:")
        for key in sorted(result.comparison):
            lines.append(f"  {key:<24} {result.comparison[key]:.3f}")
    baseline = result.stacks.get("baseline")
    if baseline and baseline.stranding_timeline:
        lines.append("")
        lines.append("stranding timeline (byte-seconds per epoch):")
        peak = max(
            max(m.stranding_timeline, default=0.0)
            for m in result.stacks.values()
        )
        for name in _report_stacks(result):
            metrics = result.stacks[name]
            for i, value in enumerate(metrics.stranding_timeline):
                width = int(40 * value / peak) if peak else 0
                edge = result.epoch_edges[i] if result.epoch_edges else i
                lines.append(
                    f"  {name:<10} t={edge:>9.0f}s "
                    f"{'#' * width:<40} {_fmt_bytes(value)}·s"
                )
    return "\n".join(lines)
