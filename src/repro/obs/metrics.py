"""Metrics export: Stats snapshots to Prometheus text and JSON-lines.

Two formats, one source of truth — the :meth:`~repro.sim.stats.Stats.
to_dict` counter snapshot carried on every :class:`RunResult`:

* **Prometheus text exposition** (``*.prom``): counter names are
  sanitized (dots become underscores) under a ``repro_`` prefix, each
  sample labelled with its workload and stack, so the file can be
  dropped into a node-exporter textfile collector or diffed directly.
* **JSON-lines** (``*.jsonl``): one self-describing record per run
  (``kind: "run"``) plus optional span-tree (``kind: "spans"``) and
  profile (``kind: "profile"``) records. ``repro obs report`` consumes
  this format.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")

DEFAULT_PREFIX = "repro"


def sanitize_metric_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """Fold a dotted counter name into a legal Prometheus metric name."""
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        name = _LABEL_RE.sub("_", str(key))
        value = str(labels[key]).replace("\\", r"\\").replace('"', r"\"")
        parts.append(f'{name}="{value}"')
    return "{" + ",".join(parts) + "}"


def prometheus_lines(
    counters: Mapping[str, float],
    labels: Optional[Mapping[str, str]] = None,
    prefix: str = DEFAULT_PREFIX,
    seen_types: Optional[set] = None,
) -> List[str]:
    """Render one counter snapshot as Prometheus exposition lines.

    Every family's first appearance carries ``# HELP`` and ``# TYPE``
    headers; ``seen_types`` (shared across calls when rendering several
    snapshots into one file) suppresses duplicates, which the format
    forbids.
    """
    seen = seen_types if seen_types is not None else set()
    label_text = _label_text(labels or {})
    lines: List[str] = []
    for name in sorted(counters):
        metric = sanitize_metric_name(name, prefix)
        if metric not in seen:
            seen.add(metric)
            lines.append(f"# HELP {metric} repro counter {name}")
            lines.append(f"# TYPE {metric} gauge")
        value = counters[name]
        lines.append(f"{metric}{label_text} {value:g}")
    return lines


def render_prometheus(
    snapshots: Iterable[Mapping[str, Any]],
    prefix: str = DEFAULT_PREFIX,
) -> str:
    """Render ``[{"labels": {...}, "counters": {...}}, ...]`` to one
    exposition-format document."""
    seen: set = set()
    lines: List[str] = []
    for snapshot in snapshots:
        lines.extend(
            prometheus_lines(
                snapshot.get("counters", {}),
                snapshot.get("labels"),
                prefix=prefix,
                seen_types=seen,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    path: Path,
    snapshots: Iterable[Mapping[str, Any]],
    prefix: str = DEFAULT_PREFIX,
) -> Path:
    path = Path(path)
    path.write_text(render_prometheus(snapshots, prefix=prefix))
    return path


def histogram_lines(
    hist_payload: Mapping[str, Any],
    labels: Optional[Mapping[str, str]] = None,
    prefix: str = DEFAULT_PREFIX,
    seen_types: Optional[set] = None,
) -> List[str]:
    """Render one ``Log2Histogram.to_dict()`` payload as a Prometheus
    histogram: cumulative ``_bucket{le=...}`` samples, ``_sum``, and
    ``_count``, with the standard ``+Inf`` terminal bucket.
    """
    seen = seen_types if seen_types is not None else set()
    name = str(hist_payload.get("name", "hist"))
    metric = sanitize_metric_name(name, prefix)
    lines: List[str] = []
    if metric not in seen:
        seen.add(metric)
        lines.append(f"# HELP {metric} repro log2 histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
    base_labels = dict(labels or {})
    buckets = hist_payload.get("buckets", [])
    bounds = hist_payload.get("upper_bounds", [])
    cumulative = 0
    for count, bound in zip(buckets, bounds):
        cumulative += count
        if not count and not cumulative:
            continue
        label_text = _label_text({**base_labels, "le": str(bound)})
        lines.append(f"{metric}_bucket{label_text} {cumulative}")
    inf_text = _label_text({**base_labels, "le": "+Inf"})
    total = hist_payload.get("count", cumulative)
    lines.append(f"{metric}_bucket{inf_text} {total}")
    plain = _label_text(base_labels)
    lines.append(f"{metric}_sum{plain} {hist_payload.get('total', 0):g}")
    lines.append(f"{metric}_count{plain} {total}")
    return lines


# -- JSON-lines ---------------------------------------------------------------


def run_record(
    result_summary: Mapping[str, Any], stack: str
) -> Dict[str, Any]:
    """One ``kind: "run"`` record from a :meth:`RunResult.to_dict` dict.

    ``stack`` is the run's label: a registry name, or a distinct label
    for an ablation run (e.g. ``memento_nobypass``)."""
    return {
        "kind": "run",
        "workload": result_summary.get("name"),
        "stack": stack,
        "total_cycles": result_summary.get("total_cycles"),
        "seconds": result_summary.get("seconds"),
        "dram_bytes": result_summary.get("dram_bytes"),
        "counters": result_summary.get("stats", {}),
    }


def span_record(tracer_payload: Mapping[str, Any]) -> Dict[str, Any]:
    """One ``kind: "spans"`` record from ``Tracer.to_dict()``."""
    return {"kind": "spans", "spans": tracer_payload.get("spans", [])}


def profile_record(profile_payload: Mapping[str, Any]) -> Dict[str, Any]:
    """One ``kind: "profile"`` record from ``CycleProfile.to_dict()``."""
    return {"kind": "profile", **dict(profile_payload)}


def write_jsonl(path: Path, records: Iterable[Mapping[str, Any]]) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Load a JSONL file, skipping blank or corrupt lines."""
    records: List[Dict[str, Any]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records
