"""Parallel experiment engine with a persistent, content-addressed cache.

Every simulated run in the repository is described by a declarative
:class:`RunRequest` — workload spec, stack, :class:`MementoConfig`,
:class:`MachineParams`, and replay flags — which hashes into a stable
content key. :class:`ExperimentEngine` executes batches of requests,
fanning independent ones out across a ``ProcessPoolExecutor`` (the
simulator is deterministic, so parallel results are bit-identical to
serial ones), and stores every completed :class:`RunResult` as a JSON
artifact under ``.repro-cache/``. The cache key folds in a schema tag
and a fingerprint of the cycle cost model, so recalibrating the model or
changing the result format invalidates stale artifacts automatically —
pay the simulation cost once, restore cheaply forever.

``run_workload``/``run_all`` in :mod:`repro.harness.experiment`, the
sweeps, the benchmark suite's shared fixtures, and the CLI all route
through one engine, so a result computed anywhere is a cache hit
everywhere. Hit/miss/timing counters are recorded in the engine's
:class:`~repro.sim.stats.Stats` instance under ``engine.*``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.allocators import (
    GoAllocator,
    JemallocAllocator,
    MallaccAllocator,
    PymallocAllocator,
)
from repro.backends import (
    DEFAULT_CACHE_DIR,
    JsonBackend,
    ResultBackend,
    create_backend,
)
from repro import codec
from repro import stacks as stack_registry
from repro.core.config import MementoConfig
from repro.resolve import resolve_jobs, resolve_stack
from repro.harness import system as harness_system
from repro.harness import vector_kernel
from repro.harness.system import RunResult, SimulatedSystem
from repro.obs import ledger as obs_ledger
from repro.obs.tracing import get_tracer
from repro.sim.cycles import CostModel, DEFAULT_COSTS
from repro.sim.params import CacheParams, MachineParams, TlbParams
from repro.sim.stats import Stats
from repro.workloads.profiles import LifetimeProfile
from repro.workloads.synth import WorkloadSpec
from repro.workloads.trace import Trace

#: Bumped whenever the cache payload or key derivation changes shape;
#: old artifacts simply stop matching and are re-simulated.
SCHEMA_VERSION = 1

#: Version stamped into :meth:`RunRequest.to_dict` wire payloads.
#: Version-0 payloads (written before the field existed) carry the same
#: body and upgrade transparently in :meth:`RunRequest.from_dict`.
REQUEST_SCHEMA_VERSION = 1

#: Backwards-compatible alias: the JSON backend is the original
#: ``DiskCache`` extracted behind the :class:`ResultBackend` contract.
DiskCache = JsonBackend

#: Named baseline-allocator overrides, so a request stays declarative
#: (and picklable/hashable) instead of carrying a class object.
ALLOCATOR_REGISTRY: Dict[str, type] = {
    "pymalloc": PymallocAllocator,
    "jemalloc": JemallocAllocator,
    "go": GoAllocator,
    "mallacc": MallaccAllocator,
}

#: Progress callback: (index, total, request, source, seconds) where
#: ``source`` is ``"live"``, ``"cache"``, or ``"memo"``.
ProgressFn = Callable[[int, int, "RunRequest", str, float], None]

#: Summary-progress callback: (done, total, counts) where ``counts``
#: maps ``"cached"``/``"live"``/``"failed"`` to tallies so far. Used
#: instead of per-run ``ProgressFn`` lines for batches at or above the
#: engine's summary threshold (per-run lines are unusable at fleet
#: scale).
SummaryFn = Callable[[int, int, Dict[str, int]], None]

#: Batches at or above this many runs switch from per-run progress
#: lines to periodic summary callbacks (when the engine has one).
SUMMARY_PROGRESS_THRESHOLD = 100

#: Versioned wire codec for :class:`RunRequest` payloads — the same
#: machinery :class:`~repro.fleet.request.FleetRequest` uses, so the
#: two request hierarchies cannot drift (see :mod:`repro.codec`).
REQUEST_CODEC = codec.VersionedCodec("RunRequest", REQUEST_SCHEMA_VERSION)

#: Backwards-compatible aliases: the canonicalization/hash primitives
#: moved to :mod:`repro.codec` in PR 8.
_canonical = codec.canonical
_digest = codec.digest


#: Identity-keyed fingerprint memo. CostModel is frozen, so an instance's
#: digest never changes; the strong reference keeps the id stable. The
#: canonical walk over ~40 fields otherwise reruns per content_key call.
_COST_FINGERPRINTS: Dict[int, Tuple[CostModel, str]] = {}


def cost_model_fingerprint(cost_model: CostModel = DEFAULT_COSTS) -> str:
    """Stable hash of every calibrated cycle cost.

    Folded into each cache key: recalibrating the model (see
    ``scripts/apply_calibration.py``) silently invalidates all cached
    results instead of serving stale metrics.
    """
    entry = _COST_FINGERPRINTS.get(id(cost_model))
    if entry is not None and entry[0] is cost_model:
        return entry[1]
    digest = codec.digest(codec.canonical(cost_model))[:16]
    _COST_FINGERPRINTS[id(cost_model)] = (cost_model, digest)
    return digest


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of the ``repro`` package's own source tree.

    Also folded into every cache key: any change to the simulator —
    even one that leaves the cost-model constants untouched — retires
    all persisted artifacts, so the cache can never serve results from
    an older model of the system.
    """
    root = Path(__file__).resolve().parent.parent
    entries = []
    for path in sorted(root.rglob("*.py")):
        try:
            blob = path.read_bytes()
        except OSError:  # pragma: no cover - racing file removal
            continue
        entries.append(
            [str(path.relative_to(root)), hashlib.sha256(blob).hexdigest()]
        )
    return codec.digest(entries)[:16]


@dataclass(frozen=True)
class RunRequest:
    """Declarative description of one simulated run.

    Frozen and hashable: requests are dict keys in the engine's
    in-memory memo and hash into the on-disk content key.
    """

    spec: WorkloadSpec
    #: Legacy stack flag, kept as a real field so pre-registry wire
    #: payloads and content keys keep their exact shape. Normalized in
    #: ``__post_init__`` to agree with ``stack`` (it mirrors the stack's
    #: ``hardware`` trait), so equal requests always hash equal.
    memento: bool = False
    config: MementoConfig = field(default_factory=MementoConfig)
    machine_params: MachineParams = field(default_factory=MachineParams)
    cold_start: bool = False
    mmap_populate: bool = False
    #: Baseline-allocator override by registry name (e.g. the tuning
    #: study's resized pymalloc, or the Mallacc comparison point).
    allocator: Optional[str] = None
    #: Keyword arguments for the override, as sorted key/value pairs so
    #: the request stays hashable.
    allocator_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Replay kernel choice (``scalar``/``vectorized``/``auto``). Both
    #: kernels produce bit-identical results, so this is an execution
    #: detail: it is excluded from the content key (a cached result
    #: answers requests under either kernel). ``None`` means
    #: unspecified — ``$REPRO_KERNEL`` if set, else ``auto`` (vectorized
    #: when numpy is installed, scalar otherwise), resolved where the
    #: run executes, which for pool fan-out is the worker process.
    kernel: Optional[str] = None
    #: First-class stack name (see :mod:`repro.stacks`). ``None`` means
    #: unspecified and derives from the legacy ``memento`` flag, so
    #: ``RunRequest(spec, memento=True)`` and
    #: ``RunRequest(spec, stack="memento")`` are the same request.
    stack: Optional[str] = None

    def __post_init__(self) -> None:
        if self.stack is None:
            object.__setattr__(
                self, "stack", stack_registry.coerce(bool(self.memento)).name
            )
        else:
            entry = stack_registry.coerce(resolve_stack(self.stack))
            object.__setattr__(self, "stack", entry.name)
            object.__setattr__(self, "memento", entry.hardware)
        if self.allocator is not None and self.allocator not in (
            ALLOCATOR_REGISTRY
        ):
            raise ValueError(
                f"unknown allocator {self.allocator!r}; "
                f"choose from {sorted(ALLOCATOR_REGISTRY)}"
            )
        if (
            self.allocator is not None
            and "allocator" not in stack_registry.get_stack(self.stack).knobs
        ):
            raise ValueError(
                f"allocator overrides are not supported by the "
                f"{self.stack!r} stack"
            )
        # mmap_populate is validated where the system is built (the
        # stack-knob guard in SimulatedSystem): a declarative request
        # may describe an unsupported combination, but it fails loudly
        # — naming the stack — the moment it would execute.
        if self.kernel is not None:
            vector_kernel.resolve_choice(self.kernel)

    def content_key(self, cost_model: CostModel = DEFAULT_COSTS) -> str:
        """Stable content hash identifying this run's result.

        Requests that resolve to the same simulation share a key: a spec
        before and after profile-default resolution, and software-stack
        runs regardless of the (unused) Memento config, so one baseline
        serves every ablation point of a config sweep.

        Cache-key compatibility: for the two legacy stacks the hashed
        body is exactly the pre-registry shape — the ``memento`` boolean
        field, no ``stack`` key — so requests written before the stack
        registry existed keep their content keys and ``.repro-cache/``
        stays warm. Only the new stacks (which never had pre-registry
        keys) carry the ``stack`` field into the hash.
        """
        entry = stack_registry.get_stack(self.stack)
        normalized = dataclasses.replace(
            self, spec=self.spec.resolved(), kernel=None
        )
        if not entry.hardware:
            normalized = dataclasses.replace(
                normalized, config=MementoConfig()
            )
        body = codec.canonical(normalized)
        if entry.legacy_memento is not None:
            del body["stack"]
        return codec.content_key(
            body,
            schema=SCHEMA_VERSION,
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(cost_model),
            },
        )

    def build_system(
        self, cost_model: Optional[CostModel] = None
    ) -> SimulatedSystem:
        """Assemble the full stack this request describes."""
        kwargs: Dict[str, Any] = {}
        if self.allocator is not None:
            kwargs["allocator_cls"] = ALLOCATOR_REGISTRY[self.allocator]
            if self.allocator_kwargs:
                kwargs["allocator_kwargs"] = dict(self.allocator_kwargs)
        return SimulatedSystem(
            self.spec,
            self.stack,
            machine_params=self.machine_params,
            cost_model=cost_model,
            memento_config=self.config,
            mmap_populate=self.mmap_populate,
            cold_start=self.cold_start,
            replay_kernel=self.kernel,
            **kwargs,
        )

    def execute(
        self,
        cost_model: Optional[CostModel] = None,
        trace: Optional[Trace] = None,
    ) -> RunResult:
        """Run the simulation this request describes (no caching).

        ``trace`` must be the trace of this request's resolved spec (the
        engine shares one across every request with that spec); omitted,
        it is generated from the spec.
        """
        return self.build_system(cost_model).run(trace)

    # -- wire schema -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Versioned plain-JSON form (the service's wire schema).

        Inverse of :meth:`from_dict`: a round-tripped request is equal
        to the original — same fields, same hash, same content key — so
        a run submitted over HTTP lands on the same cache entry as the
        same request executed in-process.
        """
        return REQUEST_CODEC.stamp({
            "spec": dataclasses.asdict(self.spec),
            # Both spellings ride the wire: ``stack`` is the first-class
            # field, ``memento`` keeps pre-registry readers working (and
            # legacy payloads carrying only ``memento`` still decode —
            # see from_dict).
            "memento": self.memento,
            "stack": self.stack,
            "config": dataclasses.asdict(self.config),
            "machine_params": dataclasses.asdict(self.machine_params),
            "cold_start": self.cold_start,
            "mmap_populate": self.mmap_populate,
            "allocator": self.allocator,
            "allocator_kwargs": [
                list(pair) for pair in self.allocator_kwargs
            ],
            # Additive since the v1 schema froze: readers that predate it
            # reject the unknown field loudly, current readers treat a
            # missing one as unspecified (it never changes results or
            # content keys).
            "kernel": self.kernel,
        })

    @classmethod
    def from_dict(cls, data: Any) -> "RunRequest":
        """Rebuild a request from its :meth:`to_dict` form.

        Tolerates version-0 payloads (no ``schema_version`` field — the
        body is identical); rejects payloads from a newer schema or with
        unknown fields, so wire/disk corruption fails loudly instead of
        silently simulating the wrong thing.
        """
        data = REQUEST_CODEC.open_into(cls, data)
        if "spec" not in data or (
            "memento" not in data and "stack" not in data
        ):
            raise ValueError(
                "RunRequest payload needs spec and a stack "
                "(or the legacy memento flag)"
            )
        stack = None if data.get("stack") is None else str(data["stack"])
        if stack is not None:
            stack = resolve_stack(stack)
            hardware = stack_registry.get_stack(stack).hardware
            if "memento" in data and bool(data["memento"]) != hardware:
                raise ValueError(
                    f"RunRequest payload is inconsistent: stack {stack!r} "
                    f"with memento={bool(data['memento'])!r}"
                )
        return cls(
            spec=spec_from_dict(data["spec"]),
            memento=bool(data.get("memento", False)),
            stack=stack,
            config=config_from_dict(data.get("config")),
            machine_params=machine_params_from_dict(
                data.get("machine_params")
            ),
            cold_start=bool(data.get("cold_start", False)),
            mmap_populate=bool(data.get("mmap_populate", False)),
            allocator=data.get("allocator"),
            allocator_kwargs=tuple(
                (str(name), value)
                for name, value in data.get("allocator_kwargs") or ()
            ),
            kernel=(
                None
                if data.get("kernel") is None
                else str(data["kernel"])
            ),
        )


#: Backwards-compatible alias; moved to :mod:`repro.codec` in PR 8.
_checked_fields = codec.checked_fields


def spec_from_dict(data: Any) -> WorkloadSpec:
    """Rebuild a :class:`WorkloadSpec` from its ``asdict`` wire form."""
    body = codec.checked_fields(WorkloadSpec, data, "spec")
    if body.get("lifetime") is not None:
        body["lifetime"] = LifetimeProfile(
            **codec.checked_fields(
                LifetimeProfile, body["lifetime"], "lifetime"
            )
        )
    if body.get("size_modes") is not None:
        body["size_modes"] = tuple(
            (int(size), float(weight))
            for size, weight in body["size_modes"]
        )
    return WorkloadSpec(**body)


def config_from_dict(data: Any) -> MementoConfig:
    """Rebuild a :class:`MementoConfig` (``None`` → defaults)."""
    if data is None:
        return MementoConfig()
    return MementoConfig(
        **codec.checked_fields(MementoConfig, data, "config")
    )


def machine_params_from_dict(data: Any) -> MachineParams:
    """Rebuild :class:`MachineParams` with nested cache/TLB params."""
    if data is None:
        return MachineParams()
    body = codec.checked_fields(MachineParams, data, "machine_params")
    for name in ("l1d", "l1i", "l2", "llc"):
        if isinstance(body.get(name), dict):
            body[name] = CacheParams(
                **codec.checked_fields(CacheParams, body[name], name)
            )
    for name in ("tlb_l1", "tlb_l2"):
        if isinstance(body.get(name), dict):
            body[name] = TlbParams(
                **codec.checked_fields(TlbParams, body[name], name)
            )
    return MachineParams(**body)


#: Backwards-compatible aliases for the pre-PR-8 private names.
_spec_from_dict = spec_from_dict
_config_from_dict = config_from_dict
_machine_from_dict = machine_params_from_dict


def _spec_groups(
    misses: Sequence[Tuple[str, RunRequest]],
) -> List[List[Tuple[str, RunRequest]]]:
    """Partition misses by a digest of the resolved spec, in order of
    first appearance. Stack, cold/warm, kernel, config and machine are
    left out of the digest: a trace is a function of the resolved spec
    alone, so every member of a group replays the same trace."""
    groups: Dict[str, List[Tuple[str, RunRequest]]] = {}
    for key, request in misses:
        spec_digest = codec.digest(codec.canonical(request.spec.resolved()))
        groups.setdefault(spec_digest, []).append((key, request))
    return list(groups.values())


def _split_groups(
    groups: List[List[Tuple[str, RunRequest]]], workers: int
) -> List[List[Tuple[str, RunRequest]]]:
    """Halve the largest group until every worker has a task or no group
    has two members left: an idle worker costs more than generating one
    trace twice."""
    tasks = list(groups)
    while len(tasks) < workers:
        largest = max(range(len(tasks)), key=lambda i: len(tasks[i]))
        group = tasks[largest]
        if len(group) < 2:
            break
        half = len(group) // 2
        tasks[largest:largest + 1] = [group[:half], group[half:]]
    return tasks


def _run_group(
    requests: Sequence[RunRequest], cost_model: CostModel
) -> Iterator[Tuple[Dict[str, Any], float]]:
    """Run requests that share one resolved spec, yielding each one's
    :meth:`RunResult.to_dict` form and seconds as it finishes.

    A group of several generates its trace once and replays it on every
    member; a lone request generates its own inside ``system.run``,
    exactly like a direct :meth:`RunRequest.execute`. The trace dies with
    the generator, so a serial batch holds one trace at a time.
    """
    trace = None
    if len(requests) > 1:
        spec = requests[0].spec
        with get_tracer().span(
            "trace.load", workload=spec.name, shared=len(requests)
        ):
            # Looked up at call time, so a wrapper installed on the
            # system module sees the call.
            trace = harness_system.generate_trace(spec)
    for request in requests:
        started = time.perf_counter()
        result = request.execute(cost_model, trace=trace)
        yield result.to_dict(), time.perf_counter() - started


def _execute_group(
    requests: Sequence[RunRequest], cost_model: CostModel
) -> List[Tuple[Dict[str, Any], float]]:
    """Worker-process entry point: one task per (split) spec group.

    Returns serialized results so the parallel path and the disk-cache
    path hand back byte-identical payloads.
    """
    return list(_run_group(requests, cost_model))


def _envelope_ok(payload: Dict[str, Any]) -> bool:
    """Validate a cache envelope (any backend).

    Version-0 envelopes spelled the version field ``schema``; the
    current writer stamps ``schema_version`` (and keeps ``schema`` so
    older readers skip cleanly rather than misread). Either spelling is
    accepted at the current version; anything else — missing version,
    other versions, no ``result`` body — is stale and gets re-simulated.
    """
    version = payload.get("schema_version", payload.get("schema"))
    return version == SCHEMA_VERSION and "result" in payload


class ExperimentEngine:
    """Executes :class:`RunRequest` batches with caching and parallelism.

    The engine is the single execution path for experiments: it answers
    each request from (1) an in-process memo holding the live
    :class:`RunResult` objects, (2) the on-disk JSON cache, or (3) a
    fresh simulation — serial, or fanned out over ``jobs`` worker
    processes when a batch holds several misses.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        jobs: int = 1,
        use_disk_cache: Optional[bool] = None,
        cost_model: Optional[CostModel] = None,
        progress: Optional[ProgressFn] = None,
        use_ledger: Optional[bool] = None,
        backend: Any = None,
        summary_progress: Optional[SummaryFn] = None,
        summary_threshold: int = SUMMARY_PROGRESS_THRESHOLD,
    ) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        if use_disk_cache is None:
            use_disk_cache = os.environ.get("REPRO_NO_CACHE", "") == ""
        # The run ledger rides with the disk cache by default: every
        # engine execution appends one manifest line to
        # <cache_dir>/ledger.jsonl (REPRO_NO_LEDGER=1 opts out).
        if use_ledger is None:
            use_ledger = (
                use_disk_cache
                and os.environ.get("REPRO_NO_LEDGER", "") == ""
            )
        self.jobs = resolve_jobs(jobs)
        self.cost_model = cost_model or DEFAULT_COSTS
        # ``backend`` names a registered result backend ("json",
        # "sqlite", "memory") or is a ready ResultBackend instance;
        # unset, the REPRO_BACKEND env var then the json default decide.
        if not use_disk_cache:
            self.disk: Optional[ResultBackend] = None
        elif isinstance(backend, ResultBackend):
            self.disk = backend
        else:
            self.disk = create_backend(backend, cache_dir)
        self.ledger = (
            obs_ledger.RunLedger(obs_ledger.default_ledger_path(cache_dir))
            if use_ledger
            else None
        )
        self.progress = progress
        # Quiet mode for fleet-scale batches: at or above
        # ``summary_threshold`` unique runs, per-run progress lines are
        # replaced by periodic ``summary_progress(done, total, counts)``
        # calls (when a summary callback is installed).
        self.summary_progress = summary_progress
        self.summary_threshold = summary_threshold
        self.stats = Stats()
        self._memo: Dict[str, RunResult] = {}

    # -- execution -------------------------------------------------------

    def run(self, request: RunRequest) -> RunResult:
        """Execute (or recall) one request."""
        return self.run_many([request])[0]

    def run_many(
        self,
        requests: Sequence[RunRequest],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Execute a batch, answering from cache where possible.

        Results come back in request order. Duplicate requests within
        one batch execute once. Misses run in parallel when ``jobs`` (or
        the engine default) exceeds one and the batch has several.
        """
        jobs = self.jobs if jobs is None else resolve_jobs(jobs)
        tracer = get_tracer()
        with tracer.span(
            "engine.run_many", requests=len(requests)
        ) as batch_span:
            with tracer.span("cache.lookup"):
                keys = [
                    request.content_key(self.cost_model)
                    for request in requests
                ]
                # The first request per key executes, and is the one the
                # ledger and progress report.
                first: Dict[str, RunRequest] = {}
                for key, request in zip(keys, requests):
                    first.setdefault(key, request)
                results: Dict[str, RunResult] = {}
                misses: Dict[str, RunRequest] = {}
                sources: Dict[str, str] = {}
                for key, request in first.items():
                    hit = self._lookup(key)
                    if hit is not None:
                        results[key] = hit
                        sources[key] = (
                            "memo" if key in self._memo else "cache"
                        )
                        if key not in self._memo:
                            self._memo[key] = hit
                    else:
                        misses[key] = request
            self.stats.add("engine.requests", len(requests))
            self.stats.add("engine.misses", len(misses))
            batch_span.set("misses", len(misses))

            emitted = 0
            total = len(results) + len(misses)
            summary = (
                self.summary_progress is not None
                and total >= self.summary_threshold
            )
            counts = {"cached": 0, "live": 0, "failed": 0}
            for key in list(results):
                request = first[key]
                emitted += 1
                self._ledger_append(key, request, sources[key], 0.0,
                                    results[key])
                self._emit(emitted, total, request, sources[key], 0.0,
                           summary, counts)

            if misses:
                with tracer.span("execute", misses=len(misses)):
                    try:
                        for key, result, elapsed in self._execute_all(
                            list(misses.items()), jobs
                        ):
                            results[key] = result
                            request = first[key]
                            emitted += 1
                            self._ledger_append(key, request, "live",
                                                elapsed, result)
                            self._emit(emitted, total, request, "live",
                                       elapsed, summary, counts)
                    except Exception:
                        # The batch still fails (per-run isolation is a
                        # caller policy, not an engine one), but the
                        # summary line reports how far it got first.
                        if summary:
                            counts["failed"] += 1
                            self.summary_progress(
                                emitted, total, dict(counts)
                            )
                        raise
        return [results[key] for key in keys]

    def _execute_all(
        self, misses: Sequence[Tuple[str, RunRequest]], jobs: int
    ):
        """Yield ``(key, result, seconds)`` for each miss, one trace per
        spec group (:func:`_spec_groups`), in group order; parallel when
        it pays. Results round-trip through ``to_dict`` either way so
        cached, serial, and parallel runs are bit-identical."""
        started = time.perf_counter()
        groups = _spec_groups(misses)
        if jobs > 1 and len(misses) > 1:
            self.stats.add("engine.parallel_batches")
            tasks = _split_groups(groups, jobs)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outputs = pool.map(
                    _execute_group,
                    [[request for _, request in task] for task in tasks],
                    [self.cost_model] * len(tasks),
                )
                for task, output in zip(tasks, outputs):
                    for (key, request), (data, elapsed) in zip(task, output):
                        result = self._admit(key, request, data, elapsed)
                        yield key, result, elapsed
        else:
            for group in groups:
                members = _run_group(
                    [request for _, request in group], self.cost_model
                )
                for (data, elapsed), (key, request) in zip(members, group):
                    result = self._admit(key, request, data, elapsed)
                    yield key, result, elapsed
        if misses:
            self.stats.add(
                "engine.live_seconds", time.perf_counter() - started
            )

    # -- cache plumbing --------------------------------------------------

    def _lookup(self, key: str) -> Optional[RunResult]:
        memo = self._memo.get(key)
        if memo is not None:
            self.stats.add("engine.memo.hits")
            return memo
        if self.disk is None:
            return None
        self.stats.add("engine.disk.gets")
        payload = self.disk.get(key)
        if payload is None:
            return None
        if not _envelope_ok(payload):
            # Readable storage holding a stale or foreign envelope:
            # retire it and re-simulate.
            self.disk.delete(key)
            self.stats.add("engine.disk.deletes")
            return None
        try:
            result = RunResult.from_dict(payload["result"])
        except (TypeError, ValueError):
            # Structurally valid JSON whose result no longer matches the
            # RunResult schema: treat as corrupt and re-simulate.
            self.disk.delete(key)
            self.stats.add("engine.disk.deletes")
            self.stats.add("engine.disk.corrupt")
            return None
        self.stats.add("engine.disk.hits")
        return result

    def _admit(
        self,
        key: str,
        request: RunRequest,
        data: Dict[str, Any],
        elapsed: float,
    ) -> RunResult:
        result = RunResult.from_dict(data)
        self._memo[key] = result
        if self.disk is not None:
            with get_tracer().span(
                "cache.admit", workload=request.spec.name
            ):
                self.disk.put(
                    key,
                    {
                        # Both spellings: ``schema_version`` is the
                        # explicit field, ``schema`` keeps version-0
                        # readers skipping (not misreading) new entries.
                        "schema_version": SCHEMA_VERSION,
                        "schema": SCHEMA_VERSION,
                        "key": key,
                        "workload": request.spec.name,
                        "stack": request.stack,
                        "elapsed_s": elapsed,
                        "result": data,
                    },
                )
            self.stats.add("engine.disk.writes")
        return result

    def _ledger_append(
        self,
        key: str,
        request: RunRequest,
        source: str,
        elapsed: float,
        result: RunResult,
    ) -> None:
        """Append one run-ledger manifest for an emitted result."""
        if self.ledger is None:
            return
        entry = obs_ledger.manifest(
            key,
            request.spec.name,
            request.stack,
            source,
            elapsed,
            {
                "total_cycles": result.total_cycles,
                "dram_bytes": result.dram_bytes,
                "stats": result.stats,
            },
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(self.cost_model),
            },
        )
        if getattr(result, "audit", None):
            entry["audit"] = result.audit
        self.ledger.append(entry)
        self.stats.add("engine.ledger.writes")

    def _emit(
        self,
        index: int,
        total: int,
        request: RunRequest,
        source: str,
        seconds: float,
        summary: bool = False,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        if summary and counts is not None:
            counts["live" if source == "live" else "cached"] += 1
            # ~20 summary lines per batch, plus a guaranteed final one.
            stride = max(1, total // 20)
            if index % stride == 0 or index == total:
                self.summary_progress(index, total, dict(counts))
            return
        if self.progress is not None:
            self.progress(index, total, request, source, seconds)

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Counter snapshot (``engine.*`` namespace)."""
        return self.stats.with_prefix("engine")


# -- the shared default engine ------------------------------------------------

_default_engine: Optional[ExperimentEngine] = None


def get_default_engine() -> ExperimentEngine:
    """The process-wide engine every harness entry point shares.

    Sharing one engine is what makes the in-memory memo global: the CLI,
    the sweeps, and every benchmark fixture see each other's results.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine


def set_default_engine(
    engine: Optional[ExperimentEngine],
) -> Optional[ExperimentEngine]:
    """Swap the shared engine (tests, CLI flags); returns the old one."""
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
