"""Drift detection over run history: one gate, one policy table.

Every "did this get worse?" question in the repo is the same test: take
a series of measurements, oldest first, and judge the newest point
against the median of the ones before it. :func:`gate` is that test and
:data:`POLICIES` holds its only knobs, one row per measured quantity:

* **wall time** of a content key's live ledger runs must exceed the
  median by 50% *and* by 4 scaled median-absolute-deviations before it
  flags, so one slow machine day does not fail the gate and a genuinely
  bimodal history does not pass it. Cache and memo hits replay a stored
  artifact in ~0 time, so only ``source == "live"`` entries count.
* **fleet cold-start p95** and **stranded GB·s** per (scenario, stack)
  flag beyond +25%.

Every quantity is one where larger is worse, and only a rise flags —
faster and leaner are good news. Every policy abstains below
:data:`MIN_SAMPLES` points. Digest drift rides along: the simulator is
deterministic, so a content key (or fleet key) whose history holds more
than one counter (metrics) digest is a correctness regression, never
noise, whatever its sample count.

:func:`check_trend` and :func:`check_fleet_trend` turn the per-key
verdicts into the gate results behind ``repro obs trend`` (report-only
in CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.ledger import RunLedger, split_fleet_entries

#: Consistency factor making the MAD comparable to a standard deviation
#: under normality.
MAD_SCALE = 1.4826

#: Fewer points than this (history plus the newest) and every policy
#: abstains: the median and MAD of a couple of points carry no signal.
MIN_SAMPLES = 3


@dataclass(frozen=True)
class Policy:
    """When the newest point of a series counts as a regression."""

    #: How far the newest point may rise above the history median (%).
    pct: float
    #: When set, the newest point must also lie this many scaled MADs
    #: from the median.
    mad_k: Optional[float] = None


#: The one policy table, keyed by the measured quantity.
POLICIES: Dict[str, Policy] = {
    "wall_s": Policy(50.0, mad_k=4.0),
    "cold_start_p95_ms": Policy(25.0),
    "stranded_gb_s": Policy(25.0),
}


def median(values: Sequence[float]) -> float:
    """Plain median (average of middle pair for even lengths)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: the median)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def gate(series: Sequence[float], policy: Policy) -> Dict[str, Any]:
    """Judge the newest point of ``series`` (oldest first) by ``policy``.

    Returns ``{"samples", "median", "latest", "drift"}``; ``median`` and
    ``latest`` stay None when the gate abstains. MAD policies add
    ``deviation_mads`` (None for a zero spread).
    """
    verdict: Dict[str, Any] = {
        "samples": len(series),
        "median": None,
        "latest": None,
        "drift": False,
    }
    if policy.mad_k is not None:
        verdict["deviation_mads"] = None
    if len(series) < MIN_SAMPLES:
        return verdict
    history, latest = series[:-1], series[-1]
    center = median(history)
    verdict["median"] = center
    verdict["latest"] = latest
    worse = latest > center * (1.0 + policy.pct / 100.0) and (
        latest > center + 1e-12
    )
    if policy.mad_k is not None:
        spread = MAD_SCALE * mad(history, center)
        if spread > 0:
            verdict["deviation_mads"] = (latest - center) / spread
        worse = worse and (
            spread == 0 or abs(latest - center) > policy.mad_k * spread
        )
    verdict["drift"] = worse
    return verdict


def trend_by_key(
    entries: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-content-key trend rows for a ledger entry sequence.

    Each row carries the key's workload/stack, live-sample count, median
    and latest elapsed seconds, the ``wall_s`` gate verdict, and the
    distinct counter digests seen (oldest first; more than one is digest
    drift). Rows are ordered by first appearance.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        key = entry.get("key")
        if not key:
            continue
        group = grouped.get(key)
        if group is None:
            group = grouped[key] = {
                "key": key,
                "workload": entry.get("workload"),
                "stack": entry.get("stack"),
                "runs": 0,
                "live_elapsed": [],
                "digests": [],
            }
        group["runs"] += 1
        if entry.get("source") == "live":
            elapsed = entry.get("elapsed_s")
            if isinstance(elapsed, (int, float)) and elapsed >= 0:
                group["live_elapsed"].append(float(elapsed))
        digest = entry.get("counter_digest")
        if digest and digest not in group["digests"]:
            group["digests"].append(digest)

    rows: List[Dict[str, Any]] = []
    for group in grouped.values():
        series: List[float] = group.pop("live_elapsed")
        digests: List[str] = group["digests"]
        verdict = gate(series, POLICIES["wall_s"])
        row = dict(group)
        row["live_samples"] = len(series)
        row["digest_drift"] = len(digests) > 1
        row["time_drift"] = verdict["drift"]
        row["median_s"] = verdict["median"]
        row["latest_s"] = verdict["latest"]
        row["deviation_mads"] = verdict["deviation_mads"]
        row["drift"] = row["time_drift"] or row["digest_drift"]
        rows.append(row)
    return rows


def check_trend(ledger: RunLedger) -> Dict[str, Any]:
    """Gate result over the full ledger history.

    ``{"ok": bool, "rows": [...], "entries": N, "skipped": M}`` — ``ok``
    is False when any key shows wall-time or digest drift. ``skipped``
    counts ledger lines whose schema the reader did not recognize.
    """
    entries, skipped = ledger.read_classified()
    run_entries, _ = split_fleet_entries(entries)
    rows = trend_by_key(run_entries)
    drifted = [row for row in rows if row["drift"]]
    return {
        "ok": not drifted,
        "entries": len(run_entries),
        "skipped": skipped,
        "rows": rows,
    }


def fleet_trend(
    entries: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-(scenario, stack) drift rows over fleet ledger entries.

    Groups ``kind: "fleet"`` lines by the fingerprint-free ``scenario``
    digest (so the series survives source changes that shift the fleet
    content key) and, per stack, compares the latest cold-start p95 and
    stranded GB·s against the median of the history. Only regressions
    flag — lower latency and less stranding are good news. A fleet key
    whose history holds more than one ``metrics_digest`` flags
    ``digest_drift`` (seeded simulations must be bit-stable).
    """
    grouped: Dict[Any, Dict[str, Any]] = {}
    key_digests: Dict[str, List[str]] = {}
    for entry in entries:
        if entry.get("kind") != "fleet":
            continue
        digest = entry.get("metrics_digest")
        fleet_key = entry.get("key")
        if fleet_key and digest:
            bucket = key_digests.setdefault(fleet_key, [])
            if digest not in bucket:
                bucket.append(digest)
        scenario = entry.get("scenario")
        for stack, summary in (entry.get("stacks") or {}).items():
            group_key = (scenario, stack)
            group = grouped.get(group_key)
            if group is None:
                group = grouped[group_key] = {
                    "scenario": scenario,
                    "stack": stack,
                    "fleet_keys": [],
                    "cold_p95": [],
                    "stranded": [],
                }
            if fleet_key and fleet_key not in group["fleet_keys"]:
                group["fleet_keys"].append(fleet_key)
            p95 = summary.get("cold_start_p95_ms")
            if isinstance(p95, (int, float)):
                group["cold_p95"].append(float(p95))
            gb_s = summary.get("stranded_gb_s")
            if isinstance(gb_s, (int, float)):
                group["stranded"].append(float(gb_s))

    rows: List[Dict[str, Any]] = []
    for group in grouped.values():
        row: Dict[str, Any] = {
            "scenario": group["scenario"],
            "stack": group["stack"],
            "runs": max(
                len(group["cold_p95"]), len(group["stranded"])
            ),
            "cold_start_p95_ms": gate(
                group["cold_p95"], POLICIES["cold_start_p95_ms"]
            ),
            "stranded_gb_s": gate(
                group["stranded"], POLICIES["stranded_gb_s"]
            ),
            "digest_drift": any(
                len(key_digests.get(key, [])) > 1
                for key in group["fleet_keys"]
            ),
        }
        row["drift"] = (
            row["cold_start_p95_ms"]["drift"]
            or row["stranded_gb_s"]["drift"]
            or row["digest_drift"]
        )
        rows.append(row)
    return rows


def check_fleet_trend(ledger: RunLedger) -> Dict[str, Any]:
    """Fleet drift gate over the ledger's ``kind: "fleet"`` history.

    ``{"ok": bool, "entries": N, "rows": [...]}`` — ``ok`` is False when
    any scenario/stack shows cold-start, stranding, or metrics-digest
    drift. With no fleet lines the gate abstains (``ok`` True, no rows).
    """
    entries, _ = ledger.read_classified()
    _, fleet_entries = split_fleet_entries(entries)
    rows = fleet_trend(fleet_entries)
    drifted = [row for row in rows if row["drift"]]
    return {
        "ok": not drifted,
        "entries": len(fleet_entries),
        "rows": rows,
    }


def render_fleet_trend(report: Mapping[str, Any]) -> str:
    """ASCII table of a :func:`check_fleet_trend` report."""
    rows = report.get("rows", [])
    if not rows:
        return "(ledger has no fleet history)"
    lines = [
        f"{'scenario':<18} {'stack':<9} {'runs':>5} "
        f"{'cold p95 med/last':>18} {'GB·s med/last':>16}  status"
    ]

    def pair(metric: Mapping[str, Any]) -> str:
        med, latest = metric.get("median"), metric.get("latest")
        if med is None or latest is None:
            return "-/-"
        return f"{med:.2f}/{latest:.2f}"

    for row in rows:
        cold = row.get("cold_start_p95_ms", {})
        stranded = row.get("stranded_gb_s", {})
        if row.get("digest_drift"):
            status = "DIGEST DRIFT"
        elif cold.get("drift"):
            status = "COLD-START DRIFT"
        elif stranded.get("drift"):
            status = "STRANDING DRIFT"
        elif cold.get("median") is None and stranded.get("median") is None:
            status = "(insufficient history)"
        else:
            status = "ok"
        lines.append(
            f"{str(row.get('scenario')):<18} {str(row.get('stack')):<9} "
            f"{row.get('runs', 0):>5} {pair(cold):>18} "
            f"{pair(stranded):>16}  {status}"
        )
    return "\n".join(lines)


def render_trend(report: Mapping[str, Any]) -> str:
    """ASCII table of a :func:`check_trend` report."""
    rows = report.get("rows", [])
    if not rows:
        return "(ledger has no trend data)"
    lines = [
        f"{'workload':<14} {'stack':<9} {'runs':>5} {'live':>5} "
        f"{'median_s':>9} {'latest_s':>9} {'dev':>7}  status"
    ]
    for row in rows:
        med = row.get("median_s")
        latest = row.get("latest_s")
        dev = row.get("deviation_mads")
        if row.get("digest_drift"):
            status = "DIGEST DRIFT"
        elif row.get("time_drift"):
            status = "TIME DRIFT"
        elif row.get("live_samples", 0) < MIN_SAMPLES:
            status = "(insufficient history)"
        else:
            status = "ok"
        med_text = f"{med:>9.3f}" if med is not None else f"{'-':>9}"
        latest_text = f"{latest:>9.3f}" if latest is not None else f"{'-':>9}"
        dev_text = f"{dev:>7.2f}" if dev is not None else f"{'-':>7}"
        lines.append(
            f"{str(row.get('workload')):<14} {str(row.get('stack')):<9} "
            f"{row.get('runs', 0):>5} {row.get('live_samples', 0):>5} "
            f"{med_text} {latest_text} {dev_text}  {status}"
        )
    skipped = report.get("skipped", 0)
    if skipped:
        lines.append(f"(skipped {skipped} unrecognized ledger line(s))")
    return "\n".join(lines)
