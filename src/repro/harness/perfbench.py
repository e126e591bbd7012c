"""Replay performance microbenchmark (``repro bench``).

Measures the simulator's hot path — trace replay throughput in
events/sec — for one representative workload per language stack
(pymalloc, jemalloc, goalloc) on both the baseline and Memento stacks,
plus the experiment engine's result-cache hit/miss timings. Results are
written to ``BENCH_<date>.json`` at the repo root so the performance
trajectory is tracked from PR to PR.

Protocol: the trace is generated and packed to its columnar form before
any clock starts; each repeat constructs a fresh
:class:`~repro.harness.system.SimulatedSystem` outside the timed region
and times only ``system.run(trace)``; the best (minimum) wall time of
``repeats`` runs is kept, which rejects scheduler noise without
averaging it in. ``--compare`` recomputes per-key speedups against a
previously written file.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

import dataclasses

from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    source_fingerprint,
)
from repro.resolve import resolve_stack_list
from repro.harness.system import SimulatedSystem
from repro.audit.invariants import Auditor
from repro.obs.events import EventRing
from repro.obs.instruments import Instruments, instrumented
from repro.obs.instruments import current as current_instruments
from repro.obs.profile import CycleProfile
from repro.obs.tracing import Tracer
from repro.workloads.registry import get_workload
from repro.workloads.synth import generate_trace

SCHEMA_VERSION = 1

#: One workload per language stack: html (python/pymalloc, function),
#: Redis (cpp/jemalloc), deploy (go/goalloc).
DEFAULT_WORKLOADS: Sequence[str] = ("html", "Redis", "deploy")

DEFAULT_NUM_ALLOCS = 8000
DEFAULT_REPEATS = 7

#: Stacks every bench payload measures by default: the paper's pair, so
#: BENCH files stay comparable from PR to PR. ``--stacks`` opts into the
#: rival stacks (see :mod:`repro.stacks`).
DEFAULT_STACKS: Sequence[str] = ("baseline", "memento")

SMOKE_NUM_ALLOCS = 500
SMOKE_REPEATS = 1


def bench_replay(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    num_allocs: int = DEFAULT_NUM_ALLOCS,
    repeats: int = DEFAULT_REPEATS,
    stacks: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Replay throughput per ``workload/stack`` key.

    Returns ``{key: {workload, stack, language, category, num_allocs,
    events, repeats, seconds, events_per_sec}}`` with ``seconds`` the
    best-of-``repeats`` wall time of one full replay.
    """
    results: Dict[str, Dict[str, Any]] = {}
    tracer = current_instruments().tracer
    stack_names = resolve_stack_list(stacks, default=DEFAULT_STACKS)
    for name in workloads:
        spec = dataclasses.replace(
            get_workload(name).resolved(), num_allocs=num_allocs
        )
        trace = generate_trace(spec)
        # Pack and segment once, outside every timed region.
        trace.columnar().segments()
        events = len(trace.events)
        for stack in stack_names:
            best = float("inf")
            with tracer.span(
                "bench.replay", workload=name, stack=stack,
            ):
                for _ in range(max(1, repeats)):
                    system = SimulatedSystem(spec, stack)
                    started = time.perf_counter()
                    system.run(trace)
                    elapsed = time.perf_counter() - started
                    if elapsed < best:
                        best = elapsed
            key = f"{name}/{stack}"
            results[key] = {
                "workload": name,
                "stack": stack,
                "language": spec.language,
                "category": spec.category,
                "num_allocs": num_allocs,
                "events": events,
                "repeats": repeats,
                "seconds": best,
                "events_per_sec": events / best,
            }
    return results


def bench_engine_cache(
    workload: str = "html", num_allocs: int = 2000
) -> Dict[str, Any]:
    """Engine result-cache timings: cold miss vs disk hit vs memo hit.

    Uses a throwaway cache directory so the measurement never touches
    (or is warmed by) the working ``.repro-cache/``.
    """
    spec = dataclasses.replace(
        get_workload(workload).resolved(), num_allocs=num_allocs
    )
    request = RunRequest(spec=spec, stack="baseline")
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        engine = ExperimentEngine(cache_dir=tmp, use_disk_cache=True)
        started = time.perf_counter()
        engine.run(request)
        miss_seconds = time.perf_counter() - started

        started = time.perf_counter()
        engine.run(request)
        memo_hit_seconds = time.perf_counter() - started

        cold_engine = ExperimentEngine(cache_dir=tmp, use_disk_cache=True)
        started = time.perf_counter()
        cold_engine.run(request)
        disk_hit_seconds = time.perf_counter() - started
    return {
        "workload": workload,
        "num_allocs": num_allocs,
        "miss_seconds": miss_seconds,
        "disk_hit_seconds": disk_hit_seconds,
        "memo_hit_seconds": memo_hit_seconds,
        "disk_hit_speedup": miss_seconds / disk_hit_seconds,
    }


#: The instrument A/Bs of a full bench payload: payload key -> factory
#: of the enabled bundle. Each repeat gets fresh instruments.
OVERHEAD_BENCHES: Dict[str, Callable[[], Instruments]] = {
    # Span tracing plus event sampling (``repro run --trace``).
    "obs_overhead": lambda: Instruments(tracer=Tracer(), ring=EventRing()),
    # Cycle attribution (``repro run --profile``).
    "profile_overhead": lambda: Instruments(profile=CycleProfile()),
    # An interval-epoch auditor: periodic rule evaluation on the replay.
    "audit_overhead": lambda: Instruments(
        audit=Auditor(epoch="interval", every=256)
    ),
}


def bench_overhead(
    make: Callable[[], Instruments],
    workload: str = "html",
    num_allocs: int = 4000,
    repeats: int = 3,
) -> Dict[str, Any]:
    """A/B one instrument bundle's replay cost.

    Times the same packed trace on the Memento stack with every
    instrument off (the default production path) and under a fresh
    ``make()`` bundle per repeat, best-of-``repeats`` each. The system
    is built inside the bundle because components bind their
    instruments at construction. ``overhead_ratio`` is enabled/disabled
    wall time; the disabled side must stay at replay-key parity.
    """
    spec = dataclasses.replace(
        get_workload(workload).resolved(), num_allocs=num_allocs
    )
    trace = generate_trace(spec)
    trace.columnar()

    def best_of(factory: Callable[[], Instruments]) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            with instrumented(**vars(factory())):
                system = SimulatedSystem(spec, "memento")
                started = time.perf_counter()
                system.run(trace)
                elapsed = time.perf_counter() - started
            best = min(best, elapsed)
        return best

    disabled = best_of(Instruments)
    enabled = best_of(make)
    return {
        "workload": workload,
        "num_allocs": num_allocs,
        "repeats": repeats,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": enabled / disabled,
    }


def compare(
    current: Dict[str, Dict[str, Any]],
    reference: Dict[str, Dict[str, Any]],
) -> Dict[str, float]:
    """Per-key events/sec speedup of ``current`` over ``reference``."""
    speedups: Dict[str, float] = {}
    for key, row in current.items():
        ref = reference.get(key)
        if ref and ref.get("events_per_sec"):
            speedups[key] = row["events_per_sec"] / ref["events_per_sec"]
    return speedups


def run_bench(
    smoke: bool = False,
    repeats: Optional[int] = None,
    num_allocs: Optional[int] = None,
    workloads: Optional[Iterable[str]] = None,
    compare_path: Optional[Path] = None,
    stacks: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Assemble the full benchmark payload (see module docstring)."""
    if smoke:
        num_allocs = num_allocs or SMOKE_NUM_ALLOCS
        repeats = repeats or SMOKE_REPEATS
    else:
        num_allocs = num_allocs or DEFAULT_NUM_ALLOCS
        repeats = repeats or DEFAULT_REPEATS
    names = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    stacks = resolve_stack_list(stacks, default=DEFAULT_STACKS)
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "date": datetime.date.today().isoformat(),
        "smoke": smoke,
        "source_fingerprint": source_fingerprint(),
        "protocol": {
            "num_allocs": num_allocs,
            "repeats": repeats,
            "timing": (
                "best-of-N wall time of system.run(trace); trace "
                "pregenerated and columnar-packed, system constructed "
                "outside the timed region"
            ),
        },
        "stacks": list(stacks),
        "replay": bench_replay(names, num_allocs, repeats, stacks),
    }
    if not smoke:
        payload["engine_cache"] = bench_engine_cache()
        for key, make in OVERHEAD_BENCHES.items():
            payload[key] = bench_overhead(make)
    if compare_path is not None:
        payload["comparison"] = _comparison(
            payload["replay"], Path(compare_path)
        )
    return payload


def _comparison(
    replay: Dict[str, Dict[str, Any]], compare_path: Path
) -> Dict[str, Any]:
    """Per-key speedups plus portable provenance for the reference.

    The reference is identified by its recorded date and a content
    fingerprint of the file's bytes — never by the path it happened to
    be read from, which does not survive checkouts. A missing or
    unreadable reference degrades to a warning entry instead of failing
    the bench (CI passes historical files when it has them).
    """
    try:
        blob = compare_path.read_bytes()
        reference = json.loads(blob.decode("utf-8"))
    except (OSError, ValueError) as exc:
        print(
            f"repro bench: reference {compare_path.name} unusable "
            f"({exc}); skipping comparison",
            file=sys.stderr,
        )
        return {
            "reference": compare_path.name,
            "warning": f"reference unusable: {exc}",
            "speedup": {},
        }
    ref_replay = reference.get("replay", reference)
    return {
        "reference": compare_path.name,
        "reference_date": reference.get("date"),
        "reference_fingerprint": hashlib.sha256(blob).hexdigest()[:16],
        "reference_source_fingerprint": reference.get(
            "source_fingerprint"
        ),
        "speedup": compare(replay, ref_replay),
    }


def default_output_path(root: Path, smoke: bool = False) -> Path:
    stamp = datetime.date.today().isoformat()
    name = f"BENCH_{stamp}.smoke.json" if smoke else f"BENCH_{stamp}.json"
    return root / name


def write_bench(payload: Dict[str, Any], out: Path) -> Path:
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out
