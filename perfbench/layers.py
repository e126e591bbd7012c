"""Per-layer spans recorded from outside the program.

The benchmark measures the program as it ships, so nothing under
``src/`` carries a span. Instead :class:`Recorder` swaps the public
functions of each module for thin wrappers while a traced pass runs and
puts the originals back afterwards. A wrapper records one span per call:
its duration, and its self time (duration minus the spans nested in it
on the same thread). Spans stay in memory; :meth:`Recorder.snapshot`
folds them into the per-layer figures at the end.

The untraced passes that give the end-to-end metrics never install a
wrapper, so they run exactly the shipped code.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name). A module attribute is
#: patched where its caller looks it up: ``generate_trace`` in
#: ``repro.harness.system`` (imported there by name), the arrival
#: functions on ``repro.fleet.arrival`` (called as ``arrival.<fn>``).
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.harness.system", None, "generate_trace", "synth.generate"),
    ("repro.workloads.trace", "Trace", "columnar", "trace.pack"),
    ("repro.harness.system", "SimulatedSystem", "__init__", "system.build"),
    ("repro.harness.system", "SimulatedSystem", "run", "system.run"),
    ("repro.harness.engine", "ExperimentEngine", "run_many", "engine.run_many"),
    ("repro.harness.engine", "RunRequest", "execute", "engine.execute"),
    ("repro.harness.engine", "RunRequest", "content_key", "engine.key"),
    ("repro.harness.system", "RunResult", "to_dict", "engine.codec"),
    ("repro.harness.system", "RunResult", "from_dict", "engine.codec"),
    ("repro.backends.json_backend", "JsonBackend", "get", "backend.get"),
    ("repro.backends.json_backend", "JsonBackend", "put", "backend.put"),
    ("repro.obs.ledger", "RunLedger", "append", "ledger.append"),
    ("repro.fleet.arrival", None, "epoch_edges", "fleet.arrival"),
    ("repro.fleet.arrival", None, "mix_weights", "fleet.arrival"),
    ("repro.fleet.arrival", None, "epoch_counts", "fleet.arrival"),
    ("repro.fleet.arrival", None, "epoch_arrivals", "fleet.arrival"),
    ("repro.fleet.arrival", None, "assign_functions", "fleet.arrival"),
    ("repro.fleet.pool", "FleetPool", "invoke", "pool.invoke"),
    ("repro.fleet.pool", "FleetPool", "finish", "pool.finish"),
)

#: Layer self times reported as ``<metric>``; with ``unattributed_s``
#: they sum to the traced wall time.
SELF_TIME_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("synth.generate_s", ("synth.generate",)),
    ("trace.pack_s", ("trace.pack",)),
    ("system.build_s", ("system.build",)),
    ("system.run_self_s", ("system.run",)),
    ("engine.key_s", ("engine.key",)),
    ("engine.codec_s", ("engine.codec",)),
    ("engine.self_s", ("engine.run_many", "engine.execute")),
    ("backend.get_s", ("backend.get",)),
    ("backend.put_s", ("backend.put",)),
    ("ledger.append_s", ("ledger.append",)),
    ("fleet.arrival_s", ("fleet.arrival",)),
    ("pool.invoke_s", ("pool.invoke",)),
    ("pool.finish_s", ("pool.finish",)),
)


class Recorder:
    """Installs the wrappers and accumulates their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span recorded so far."""
        with self._lock:
            self.calls: Dict[str, int] = defaultdict(int)
            self.self_s: Dict[str, float] = defaultdict(float)
            self.shard_ms: List[float] = []
            self.specs: set = set()
            self.events = 0
            self.requests = 0

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Wrap every target. A target the program no longer has fails
        the traced run before anything is patched: a layer that silently
        read 0 would look like a large win."""
        if self._saved:
            return
        found = []
        for module_name, class_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner = (
                module if class_name is None else getattr(module, class_name)
            )
            if attr not in owner.__dict__:
                name = ".".join(filter(None, (module_name, class_name, attr)))
                raise AttributeError(f"trace target {name} is gone ({span})")
            found.append((owner, attr, owner.__dict__[attr], span))
        for owner, attr, raw, span in found:
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(span, raw.__func__))
            else:
                patched = self._wrap(span, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- spans ----------------------------------------------------------

    def _wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # Each open span accumulates the time of its direct children.
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record(span, elapsed, elapsed - children, args)

        return wrapper

    def _record(
        self, span: str, elapsed: float, self_s: float, args: tuple
    ) -> None:
        with self._lock:
            self.calls[span] += 1
            self.self_s[span] += self_s
            if span == "synth.generate":
                self.specs.add(args[0])
            elif span == "trace.pack":
                self.events += len(args[0])
            elif span == "engine.execute":
                self.shard_ms.append(elapsed * 1e3)
            elif span == "engine.run_many":
                self.requests += len(args[1])

    def snapshot(self) -> Dict[str, Any]:
        """Raw totals, picklable and JSON-safe (the server writes them)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "shard_ms": list(self.shard_ms),
                "unique_specs": len(self.specs),
                "events": self.events,
                "requests": self.requests,
            }


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Recorder.snapshot` results. A fleet records
    one snapshot per pass, so unique specs are counted per pass: a pass
    on a fresh cache has to generate every spec once."""
    total: Dict[str, Any] = {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "shard_ms": [],
        "unique_specs": 0,
        "events": 0,
        "requests": 0,
    }
    for snap in snapshots:
        for span, count in snap["calls"].items():
            total["calls"][span] += count
        for span, seconds in snap["self_s"].items():
            total["self_s"][span] += seconds
        total["shard_ms"].extend(snap["shard_ms"])
        for key in ("unique_specs", "events", "requests"):
            total[key] += snap[key]
    return total


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: Dict[str, Any], passes: int) -> Dict[str, float]:
    """Per-pass layer figures from merged span totals."""
    calls, self_s = spans["calls"], spans["self_s"]
    per = 1.0 / passes
    generated = calls.get("synth.generate", 0)
    executed = calls.get("engine.execute", 0)
    run_self = self_s.get("system.run", 0.0)
    metrics: Dict[str, float] = {
        "synth.generate_calls": generated * per,
        # Useful outcomes over attempts; nothing generated wastes nothing.
        "synth.unique_ratio": (
            spans["unique_specs"] / generated if generated else 1.0
        ),
        "trace.pack_calls": calls.get("trace.pack", 0) * per,
        "system.build_calls": calls.get("system.build", 0) * per,
        "system.events_per_s": (
            spans["events"] / run_self if run_self > 0 else 0.0
        ),
        "engine.requests": spans["requests"] * per,
        "engine.hit_ratio": (
            1.0 - executed / spans["requests"] if spans["requests"] else 0.0
        ),
        "engine.shard_p50_ms": percentile(spans["shard_ms"], 50),
        "engine.shard_p95_ms": percentile(spans["shard_ms"], 95),
        "backend.get_calls": calls.get("backend.get", 0) * per,
        "backend.put_calls": calls.get("backend.put", 0) * per,
        "ledger.append_calls": calls.get("ledger.append", 0) * per,
        "pool.invoke_calls": calls.get("pool.invoke", 0) * per,
    }
    for name, span_names in SELF_TIME_METRICS:
        metrics[name] = sum(self_s.get(s, 0.0) for s in span_names) * per
    return metrics


def attributed_s(metrics: Dict[str, float]) -> float:
    """Sum of the self-time metrics in ``metrics``."""
    return sum(metrics[name] for name, _ in SELF_TIME_METRICS)
