"""The run ledger: one manifest line per engine execution.

Every engine execution appends one manifest line to
``.repro-cache/ledger.jsonl``: content key, source and cost-model
fingerprints, workload/stack, wall time, simulated totals, and a digest
of the full counter snapshot. The ledger is the flight recorder the
result cache lacks — the cache holds only the *latest* artifact per key,
while the ledger keeps the append-only history of what ran, when, from
which source (live, disk, memo), and how long it took, so silent perf or
correctness drift across commits is visible after the fact.

:func:`digest_conflicts` closes the loop: the simulator is
deterministic, so one key with two digests in this history is a
correctness regression, and ``repro obs report`` exits 1 on it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TextIO, Tuple

from repro.codec import supported_version

SCHEMA_VERSION = 1

#: Ledger file name inside the engine's cache directory.
LEDGER_NAME = "ledger.jsonl"


def default_ledger_path(cache_dir) -> Path:
    return Path(cache_dir) / LEDGER_NAME


def payload_digest(payload: Any) -> str:
    """Order-independent 16-hex digest of any JSON-serializable payload.

    The determinism canary: a run ledger line's ``counter_digest`` is
    the digest of the run's counter snapshot, and a fleet line's
    ``metrics_digest`` that of the full ``FleetResult`` wire dict. The
    simulator is deterministic, so two lines for the same key with
    different digests are a correctness regression, not noise.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def manifest(
    key: str,
    workload: str,
    stack: str,
    source: str,
    elapsed_s: float,
    result_summary: Mapping[str, Any],
    fingerprints: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Assemble one ledger line for an engine execution."""
    return {
        "schema_version": SCHEMA_VERSION,
        "ts": time.time(),
        "key": key,
        "workload": workload,
        "stack": stack,
        "source": source,
        "elapsed_s": elapsed_s,
        "total_cycles": result_summary.get("total_cycles"),
        "dram_bytes": result_summary.get("dram_bytes"),
        "counter_digest": payload_digest(result_summary.get("stats", {})),
        "fingerprints": dict(fingerprints or {}),
    }


def fleet_manifest(
    key: str,
    seed: int,
    invocations: int,
    duration_s: float,
    elapsed_s: float,
    stacks: Mapping[str, Mapping[str, Any]],
    metrics_digest: str,
    fingerprints: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Assemble one ledger line for a fleet execution.

    ``kind: "fleet"`` discriminates these lines from run manifests;
    ``key`` holds the fleet content key. ``stacks`` carries the
    per-stack headline numbers ``repro obs report`` shows (cold-start
    p95, stranded GB·s) and ``metrics_digest`` is the determinism canary
    over the full :class:`FleetResult` payload.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fleet",
        "ts": time.time(),
        "key": key,
        "seed": seed,
        "invocations": invocations,
        "duration_s": duration_s,
        "elapsed_s": elapsed_s,
        "source": "fleet",
        "stacks": {
            name: dict(summary) for name, summary in stacks.items()
        },
        "metrics_digest": metrics_digest,
        "fingerprints": dict(fingerprints or {}),
    }


def split_fleet_entries(
    entries: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """``(run_entries, fleet_entries)`` — classify ledger lines by kind.

    Run manifests predate the ``kind`` field, so anything without
    ``kind: "fleet"`` is a run line.
    """
    runs = [e for e in entries if e.get("kind") != "fleet"]
    fleets = [e for e in entries if e.get("kind") == "fleet"]
    return runs, fleets


def digest_conflicts(
    entries: List[Dict[str, Any]],
) -> Dict[str, List[str]]:
    """``{key: [digest, ...]}`` for every key with more than one digest.

    Run lines carry ``counter_digest`` and ``kind: "fleet"`` lines
    ``metrics_digest``. The simulator is deterministic, so a key whose
    history holds two digests means nondeterministic replay or a stale
    fingerprint — never noise. Digests are listed in first-seen order.
    """
    seen: Dict[str, List[str]] = {}
    for entry in entries:
        field = (
            "metrics_digest" if entry.get("kind") == "fleet"
            else "counter_digest"
        )
        key, digest = entry.get("key"), entry.get(field)
        if not key or not digest:
            continue
        digests = seen.setdefault(key, [])
        if digest not in digests:
            digests.append(digest)
    return {key: found for key, found in seen.items() if len(found) > 1}


class RunLedger:
    """Append-only JSONL manifest log (one line per engine execution)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        # Appends are serialized per ledger object: the service's worker
        # threads share one engine (hence one ledger), and interleaved
        # writes must never tear a JSONL line.
        self._lock = threading.Lock()
        #: Append handle, opened on the first append and kept: a
        #: mkdir + open + close per line cost milliseconds under load.
        self._handle: Optional[TextIO] = None
        self._closer: Optional[weakref.finalize] = None

    def append(self, entry: Mapping[str, Any]) -> None:
        """Append one manifest line (creating parents on first write).

        Each line is flushed as it is written, so a reader opening the
        file afterwards sees it.
        """
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
                # Closed with the ledger, even one never closed itself.
                self._closer = weakref.finalize(self, self._handle.close)
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        """Close the append handle; a later append reopens it."""
        with self._lock:
            if self._closer is not None:
                self._closer()
                self._handle = self._closer = None

    def read(self) -> List[Dict[str, Any]]:
        """Every parseable manifest, oldest first (corrupt lines skipped)."""
        return self.read_classified()[0]

    def read_classified(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(entries, skipped)`` — manifests plus the unusable-line count.

        A line is skipped when it is not JSON, not an object, lacks the
        ``key`` field (pre-manifest experiments wrote bare summaries), or
        declares a ``schema_version`` this reader does not understand
        (see :func:`repro.codec.supported_version`). Old lines without
        the field are accepted as version 1 — the ledger is append-only
        and must keep reading its own history.
        """
        entries: List[Dict[str, Any]] = []
        skipped = 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return entries, skipped
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(entry, dict) or "key" not in entry:
                skipped += 1
                continue
            if not supported_version(
                entry.get("schema_version", 1), SCHEMA_VERSION
            ):
                skipped += 1
                continue
            entries.append(entry)
        return entries, skipped
