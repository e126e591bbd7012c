"""Parallel experiment engine with a persistent, content-addressed cache.

Every simulated run in the repository is described by a declarative
:class:`RunRequest` — workload spec, stack, :class:`MementoConfig`,
:class:`MachineParams`, and replay flags — which hashes into a stable
content key. :class:`ExperimentEngine` executes batches of requests,
in-process or on one persistent worker-process pool that every later
batch reuses (the simulator is deterministic, so pooled results are
bit-identical to serial ones), and stores every completed
:class:`RunResult` as a JSON artifact under ``.repro-cache/``. The
cache key folds in a schema tag and a fingerprint of the cycle cost
model, so recalibrating the model or changing the result format
invalidates stale artifacts automatically — pay the simulation cost
once, restore cheaply forever.

``run_workload``/``run_all`` in :mod:`repro.harness.experiment`, the
sweeps, the benchmark suite's shared fixtures, and the CLI all route
through one engine, so a result computed anywhere is a cache hit
everywhere. Hit/miss/timing counters are recorded in the engine's
:class:`~repro.sim.stats.Stats` instance under ``engine.*``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import weakref
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
from repro.backends import JsonBackend
from repro import codec, limits
from repro import stacks as stack_registry
from repro.core.config import MementoConfig
from repro.resolve import resolve_cache_dir, resolve_jobs, resolve_stack
from repro.harness import collector
from repro.harness import system as harness_system
from repro.harness.system import RunResult, SimulatedSystem
from repro.obs import ledger as obs_ledger
from repro.obs.instruments import current as current_instruments
from repro.obs.instruments import instrumented
from repro.obs.tracing import Tracer
from repro.sim.cycles import CostModel, DEFAULT_COSTS
from repro.sim.params import CacheParams, MachineParams, TlbParams
from repro.sim.stats import Stats
from repro.workloads.profiles import LifetimeProfile, PROFILES
from repro.workloads.synth import (
    CATEGORIES,
    LIFETIME_BOUNDS,
    SPEC_BOUNDS,
    WorkloadSpec,
)
from repro.workloads.trace import Trace

#: Bumped whenever the cache payload or key derivation changes shape;
#: old artifacts simply stop matching and are re-simulated.
SCHEMA_VERSION = 1

#: Version stamped into :meth:`RunRequest.to_dict` wire payloads.
REQUEST_SCHEMA_VERSION = 1

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
#: instead of per-run ``ProgressFn`` lines for batches at or above
#: ``SUMMARY_PROGRESS_THRESHOLD`` (per-run lines are unusable at fleet
#: scale).
SummaryFn = Callable[[int, int, Dict[str, int]], None]

#: Batches at or above this many runs switch from per-run progress
#: lines to periodic summary callbacks (when the engine has one).
SUMMARY_PROGRESS_THRESHOLD = 100

#: Versioned wire codec for :class:`RunRequest` payloads — the same
#: machinery :class:`~repro.fleet.request.FleetRequest` uses, so the
#: two request hierarchies cannot drift (see :mod:`repro.codec`).
REQUEST_CODEC = codec.VersionedCodec("RunRequest", REQUEST_SCHEMA_VERSION)


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
    #: Registry name of the memory-management stack (see
    #: :mod:`repro.stacks`); a :class:`~repro.stacks.Stack` normalizes
    #: to its name.
    stack: str = "baseline"
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "stack", resolve_stack(self.stack))
        limits.check_spec(self.spec)
        limits.check_machine(self.machine_params)
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

    @property
    def memento(self) -> bool:
        """Whether the stack runs Memento's hardware allocators (the
        value the content-key body carries)."""
        return stack_registry.get_stack(self.stack).hardware

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
        body = codec.fields_of(self)
        body["spec"] = self.spec.resolved()
        if not entry.hardware:
            body["config"] = MementoConfig()
        body["memento"] = entry.hardware
        if entry.legacy_memento is not None:
            del body["stack"]
        # The retired replay-kernel field stays in the hashed body, so
        # every key written while it existed still matches.
        body["kernel"] = None
        return codec.content_key(
            body,
            schema=SCHEMA_VERSION,
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(cost_model),
            },
        )

    def replay_key(self) -> Optional[Tuple[Any, ...]]:
        """What this request's replay depends on, or ``None`` when it
        replays alone.

        The content-key body with ``stack`` replaced by the one thing a
        software stack decides about a replay, ``allocator_warm`` (its
        ``charges`` come after teardown), and the Memento config left
        out, as :meth:`content_key` leaves it out of software runs.
        Requests with equal keys replay the same machine step for step,
        so the engine replays one and derives the others
        (:func:`_run_group`). Hardware stacks, runs while a
        ``CycleProfile`` or ``Auditor`` is bound (both attach
        per-system state), and a knob the stack rejects replay alone.
        """
        entry = stack_registry.get_stack(self.stack)
        instruments = current_instruments()
        if (
            entry.hardware
            or instruments.profile is not None
            or instruments.audit is not None
            or (self.mmap_populate and "mmap_populate" not in entry.knobs)
        ):
            return None
        spec = self.spec.resolved()
        return (
            spec,
            self.machine_params,
            self.cold_start,
            self.mmap_populate,
            self.allocator,
            self.allocator_kwargs,
            entry.allocator_warm(spec, self.cold_start),
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
            "stack": self.stack,
            "config": dataclasses.asdict(self.config),
            "machine_params": dataclasses.asdict(self.machine_params),
            "cold_start": self.cold_start,
            "mmap_populate": self.mmap_populate,
            "allocator": self.allocator,
            "allocator_kwargs": [
                list(pair) for pair in self.allocator_kwargs
            ],
        })

    @classmethod
    def from_dict(cls, data: Any) -> "RunRequest":
        """Rebuild a request from its :meth:`to_dict` form.

        Rejects payloads from a newer schema or with unknown fields, so
        wire/disk corruption fails loudly instead of silently simulating
        the wrong thing.
        """
        data = REQUEST_CODEC.open(data)
        if "memento" in data:
            raise ValueError(
                "RunRequest field 'memento' is retired: name the stack "
                "instead (\"stack\": \"memento\" or \"baseline\")"
            )
        # A flag is a JSON boolean: ``bool("false")`` is True, so any
        # other value is rejected rather than coerced.
        for flag in ("cold_start", "mmap_populate"):
            if not isinstance(data.get(flag, False), bool):
                raise ValueError(
                    f"RunRequest field {flag!r} must be a boolean, got "
                    f"{data[flag]!r}"
                )
        data = codec.checked_fields(cls, data, REQUEST_CODEC.label)
        if "spec" not in data or "stack" not in data:
            raise ValueError("RunRequest payload needs spec and stack")
        return cls(
            spec=spec_from_dict(data["spec"]),
            stack=data["stack"],
            config=config_from_dict(data.get("config")),
            machine_params=machine_params_from_dict(
                data.get("machine_params")
            ),
            cold_start=data.get("cold_start", False),
            mmap_populate=data.get("mmap_populate", False),
            allocator=data.get("allocator"),
            allocator_kwargs=_allocator_kwargs(data.get("allocator_kwargs")),
        )


def _allocator_kwargs(pairs: Any) -> Tuple[Tuple[str, Any], ...]:
    """``[[name, value], ...]`` as a tuple of pairs. An object is
    rejected, not iterated: ``{"ab": 1}`` would unpack its key into
    the kwarg ``a="b"``."""
    if pairs is None:
        return ()
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and isinstance(pair[0], str)
        for pair in pairs
    ):
        raise ValueError(
            "RunRequest field 'allocator_kwargs' must be a list of "
            f"[name, value] pairs, got {pairs!r}"
        )
    return tuple((name, value) for name, value in pairs)


def spec_from_dict(data: Any) -> WorkloadSpec:
    """Rebuild a :class:`WorkloadSpec` from its ``asdict`` wire form,
    rejecting any field of the wrong type or out of range."""
    body = codec.checked_fields(WorkloadSpec, data, "spec")
    codec.check_scalars(WorkloadSpec, body, "spec", SPEC_BOUNDS)
    for name, choices in (
        ("language", tuple(PROFILES)),
        ("category", CATEGORIES),
    ):
        if name in body and body[name] not in choices:
            raise ValueError(
                f"spec field {name!r} must be one of {choices}, "
                f"got {body[name]!r}"
            )
    if body.get("lifetime") is not None:
        lifetime = codec.checked_fields(
            LifetimeProfile, body["lifetime"], "lifetime"
        )
        codec.check_scalars(
            LifetimeProfile, lifetime, "lifetime", LIFETIME_BOUNDS
        )
        body["lifetime"] = LifetimeProfile(**lifetime)
        if body["lifetime"].medium_max <= body["lifetime"].short_max:
            raise ValueError("lifetime medium_max must exceed short_max")
    if body.get("size_modes") is not None:
        body["size_modes"] = _size_modes(body["size_modes"])
    return WorkloadSpec(**body)


def _size_modes(modes: Any) -> Tuple[Tuple[int, float], ...]:
    """``[[size, weight], ...]``: integer sizes in [1, 512] bytes and
    finite non-negative weights, at least one of them positive."""
    if not isinstance(modes, (list, tuple)) or not all(
        isinstance(mode, (list, tuple))
        and len(mode) == 2
        and codec.is_scalar(int, mode[0])
        and codec.is_scalar(float, mode[1])
        and 1 <= mode[0] <= 512
        and mode[1] >= 0
        for mode in modes
    ):
        raise ValueError(
            "size_modes out of range: each mode is an integer size in "
            f"[1, 512] and a finite weight >= 0, got {modes!r}"
        )
    if not any(weight > 0 for _, weight in modes):
        raise ValueError("size_modes out of range: no positive weight")
    return tuple((size, float(weight)) for size, weight in modes)


def config_from_dict(data: Any) -> MementoConfig:
    """Rebuild a :class:`MementoConfig` (``None`` → defaults)."""
    if data is None:
        return MementoConfig()
    body = codec.checked_fields(MementoConfig, data, "config")
    codec.check_scalars(MementoConfig, body, "config")
    return MementoConfig(**body)


def machine_params_from_dict(data: Any) -> MachineParams:
    """Rebuild :class:`MachineParams` with nested cache/TLB params."""
    if data is None:
        return MachineParams()
    body = codec.checked_fields(MachineParams, data, "machine_params")
    codec.check_scalars(MachineParams, body, "machine_params")
    for names, params in (
        (("l1d", "l1i", "l2", "llc"), CacheParams),
        (("tlb_l1", "tlb_l2"), TlbParams),
    ):
        for name in names:
            if name not in body:
                continue
            if not isinstance(body[name], dict):
                raise ValueError(
                    f"machine_params field {name!r} must be an object, "
                    f"got {body[name]!r}"
                )
            nested = codec.checked_fields(params, body[name], name)
            codec.check_scalars(params, nested, name)
            body[name] = params(**nested)
    return MachineParams(**body)


def _spec_groups(
    misses: Sequence[Tuple[str, RunRequest]],
) -> List[List[Tuple[str, RunRequest]]]:
    """Partition misses by a digest of the resolved spec, in order of
    first appearance. Stack, cold/warm, config and machine are
    left out of the digest: a trace is a function of the resolved spec
    alone, so every member of a group replays the same trace."""
    groups: Dict[str, List[Tuple[str, RunRequest]]] = {}
    for key, request in misses:
        spec_digest = codec.digest(request.spec.resolved())
        groups.setdefault(spec_digest, []).append((key, request))
    return list(groups.values())


def _split_groups(
    groups: List[List[Any]],
    workers: int,
    replay_key: Callable[[Any], Any] = lambda member: None,
) -> List[List[Any]]:
    """Halve the group with the most replays until every worker has a
    task or no group has two replays left: an idle worker costs more
    than generating one trace twice.

    A group's replays are its members clustered by ``replay_key`` in
    order of first appearance; a member whose key is ``None`` is a
    cluster of its own. A split falls between clusters, never inside
    one, so members that share a replay keep sharing it on the pool.
    """
    tasks = []
    for group in groups:
        clusters: Dict[Any, List[Any]] = {}
        for index, member in enumerate(group):
            key = replay_key(member)
            clusters.setdefault(
                ("alone", index) if key is None else key, []
            ).append(member)
        tasks.append(list(clusters.values()))
    while len(tasks) < workers:
        largest = max(range(len(tasks)), key=lambda i: len(tasks[i]))
        clusters = tasks[largest]
        if len(clusters) < 2:
            break
        half = len(clusters) // 2
        tasks[largest:largest + 1] = [clusters[:half], clusters[half:]]
    return [
        [member for cluster in task for member in cluster] for task in tasks
    ]


def _run_group(
    requests: Sequence[RunRequest], cost_model: CostModel
) -> Iterator[Tuple[Dict[str, Any], float]]:
    """Run requests that share one resolved spec, yielding each one's
    :meth:`RunResult.to_dict` form and seconds as it finishes.

    A group of several generates its trace once and replays it on every
    member; a lone request generates its own inside ``system.run``,
    exactly like a direct :meth:`RunRequest.execute`. The trace dies with
    the generator, so a serial batch holds one trace at a time.

    Members with equal replay keys (:meth:`RunRequest.replay_key`)
    replay once: the first builds a system and runs it uncharged, and
    every one of them, the first included, is that result plus its own
    stack's charges (:meth:`RunResult.with_charges`). A member with no
    key runs through ``execute``. Each member runs and serializes
    under one collector scope
    (:func:`repro.harness.collector.paused`), whose exit frees its dead
    system before the next member starts.
    """
    trace = None
    if len(requests) > 1:
        spec = requests[0].spec
        with current_instruments().tracer.span(
            "trace.load", workload=spec.name, shared=len(requests)
        ):
            # Looked up at call time, so a wrapper installed on the
            # system module sees the call.
            trace = harness_system.generate_trace(spec)
    replays: Dict[Any, Tuple[RunResult, stack_registry.ReplayFacts]] = {}
    for request in requests:
        started = time.perf_counter()
        with collector.paused():
            key = request.replay_key()
            if key is None:
                result = request.execute(cost_model, trace=trace)
            else:
                if key not in replays:
                    replays[key] = _replay(request, cost_model, trace)
                uncharged, facts = replays[key]
                charges = stack_registry.get_stack(request.stack).charges(
                    request.cold_start, facts, cost_model
                )
                result = uncharged.with_charges(
                    charges, request.machine_params
                )
            data = result.to_dict()
        yield data, time.perf_counter() - started


def _replay(
    request: RunRequest, cost_model: CostModel, trace: Optional[Trace]
) -> Tuple[RunResult, stack_registry.ReplayFacts]:
    """Run ``request``'s system on ``trace`` without its stack's charges;
    return the result and the facts that price it for any stack. A
    function of its own, so the system dies when it returns."""
    system = request.build_system(cost_model)
    return system.run(trace, charge=False), system.facts


def _execute_group(
    requests: Sequence[RunRequest], cost_model: CostModel, traced: bool
) -> Tuple[List[Tuple[Dict[str, Any], float]], List[Dict[str, Any]]]:
    """Worker-process entry point: one task per (split) spec group.

    Returns serialized results, so the pooled path and the disk-cache
    path hand back byte-identical payloads, and, when ``traced``, the
    spans the group recorded under a tracer local to the worker (in
    ``to_dict`` form, for the parent to attach under its own span).
    """
    if not traced:
        return list(_run_group(requests, cost_model)), []
    tracer = Tracer()
    with instrumented(tracer=tracer):
        members = list(_run_group(requests, cost_model))
    return members, tracer.to_dict()["spans"]


def _exit_with_parent() -> None:
    """Pool-worker initializer: end the worker when the process that owns
    the pool dies. A worker blocks on its task queue, which never closes
    while any worker holds it, so the workers of a killed server (and
    the fork server they keep alive) would otherwise run forever."""
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


def _pool_context() -> Any:
    """The start method of the engine's pool: ``forkserver`` forks each
    worker from a single-threaded server process, so a threaded parent
    (the service) can start one safely, and preloading this module
    there makes every fork start with the simulator imported."""
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    return context


def _envelope_ok(payload: Dict[str, Any]) -> bool:
    """Validate a cache envelope: anything but a ``schema_version`` of
    the current version with a ``result`` body is stale and gets
    re-simulated."""
    return (
        payload.get("schema_version") == SCHEMA_VERSION
        and "result" in payload
    )


class ExperimentEngine:
    """Executes :class:`RunRequest` batches with caching and parallelism.

    The engine is the single execution path for experiments: it answers
    each request from (1) an in-process memo holding the live
    :class:`RunResult` objects, (2) the on-disk JSON cache, or (3) a
    fresh simulation — in-process, or on the engine's persistent worker
    pool. The first batch with several misses at ``jobs > 1`` starts
    that pool with ``jobs`` processes (or :meth:`start_pool` starts it
    ahead); from then on every batch with a miss runs there, until
    :meth:`close` stops it.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        jobs: int = 1,
        use_disk_cache: Optional[bool] = None,
        cost_model: Optional[CostModel] = None,
        progress: Optional[ProgressFn] = None,
        use_ledger: Optional[bool] = None,
        summary_progress: Optional[SummaryFn] = None,
    ) -> None:
        cache_dir = resolve_cache_dir(cache_dir)
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
        self.disk: Optional[JsonBackend] = (
            JsonBackend(cache_dir) if use_disk_cache else None
        )
        self.ledger = (
            obs_ledger.RunLedger(obs_ledger.default_ledger_path(cache_dir))
            if use_ledger
            else None
        )
        self.progress = progress
        # Quiet mode for fleet-scale batches: at or above
        # ``SUMMARY_PROGRESS_THRESHOLD`` unique runs, per-run progress
        # lines are replaced by periodic ``summary_progress(done, total,
        # counts)`` calls (when a summary callback is installed).
        self.summary_progress = summary_progress
        self.stats = Stats()
        self._memo: Dict[str, RunResult] = {}
        #: The persistent worker pool, the size it is (re)started at (0:
        #: none asked for yet) and the finalizer that stops it, also for
        #: an engine never closed.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_processes = 0
        self._pool_stop: Optional[weakref.finalize] = None
        self._pool_lock = threading.Lock()

    # -- execution -------------------------------------------------------

    def run(self, request: RunRequest) -> RunResult:
        """Execute (or recall) one request."""
        return self.run_many([request])[0]

    def run_many(
        self,
        requests: Sequence[RunRequest],
        jobs: Optional[int] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[RunResult]:
        """Execute a batch, answering from cache where possible.

        Results come back in request order. Duplicate requests within
        one batch execute once. Misses run in parallel when ``jobs`` (or
        the engine default) exceeds one and the batch has several.
        ``keys`` are the requests' content keys under this engine's cost
        model, when the caller computed them already.
        """
        jobs = self.jobs if jobs is None else resolve_jobs(jobs)
        tracer = current_instruments().tracer
        with tracer.span(
            "engine.run_many", requests=len(requests)
        ) as batch_span:
            with tracer.span("cache.lookup"):
                if keys is None:
                    keys = [
                        request.content_key(self.cost_model)
                        for request in requests
                    ]
                elif len(keys) != len(requests):
                    raise ValueError(
                        f"{len(keys)} keys for {len(requests)} requests"
                    )
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
                and total >= SUMMARY_PROGRESS_THRESHOLD
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
        spec group (:func:`_spec_groups`), in group order; in-process, or
        on the pool :meth:`_pool_for` hands out. Results round-trip
        through ``to_dict`` either way so cached, serial, and pooled runs
        are bit-identical."""
        started = time.perf_counter()
        groups = _spec_groups(misses)
        pool = self._pool_for(jobs, len(misses))
        if pool is not None:
            self.stats.add("engine.parallel_batches")
            tracer = current_instruments().tracer
            tasks = _split_groups(
                groups, jobs, lambda member: member[1].replay_key()
            )
            futures = [
                pool.submit(
                    _execute_group,
                    [request for _, request in task],
                    self.cost_model,
                    tracer.enabled,
                )
                for task in tasks
            ]
            try:
                for task, future in zip(tasks, futures):
                    output, spans = future.result()
                    tracer.adopt(spans)
                    for (key, request), (data, elapsed) in zip(task, output):
                        result = self._admit(key, request, data, elapsed)
                        yield key, result, elapsed
            finally:
                # A failed batch leaves no queued work on the shared pool.
                for future in futures:
                    future.cancel()
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

    # -- worker pool -----------------------------------------------------

    def start_pool(self, processes: int) -> None:
        """Start the persistent worker pool with ``processes`` workers
        (unless one is already running) and wait until they are up."""
        with self._pool_lock:
            self._pool_processes = self._pool_processes or processes
            pool = self._live_pool()
        # The executor spawns workers on demand; a no-op per worker
        # starts the fork server and the workers now, not on a miss.
        for future in [pool.submit(os.getpid) for _ in range(processes)]:
            future.result()

    def _pool_for(
        self, jobs: int, misses: int
    ) -> Optional[ProcessPoolExecutor]:
        """The pool a batch of ``misses`` runs on: the running one, a
        fresh one if it broke, a new one of ``jobs`` processes when none
        was asked for yet and ``jobs > 1 and misses > 1``; else none."""
        with self._pool_lock:
            if not self._pool_processes:
                if jobs < 2 or misses < 2:
                    return None
                self._pool_processes = jobs
            return self._live_pool()

    def _live_pool(self) -> ProcessPoolExecutor:
        """The running pool, started (or restarted in place of a broken
        one) at ``_pool_processes`` workers. Holds ``_pool_lock``."""
        # The executor's manager thread sets ``_broken`` as soon as a
        # worker dies; the batch that was on the pool then fails, and
        # the next batch gets a fresh pool.
        if self._pool is not None and self._pool._broken:
            self._pool_stop()
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                self._pool_processes,
                mp_context=_pool_context(),
                initializer=_exit_with_parent,
            )
            self._pool_stop = weakref.finalize(
                self, self._pool.shutdown, cancel_futures=True
            )
        return self._pool

    def worker_pids(self) -> List[int]:
        """Pids of the pool's workers (none with no pool or a broken
        one)."""
        with self._pool_lock:
            pool = self._pool
            if pool is None or pool._broken:
                return []
            return sorted(pool._processes)

    def close(self) -> None:
        """Stop the worker pool and close the ledger's append handle.

        The engine stays usable: a later batch runs in-process, or starts
        a new pool by the same rule as a new engine.
        """
        with self._pool_lock:
            stop, self._pool, self._pool_stop = self._pool_stop, None, None
            self._pool_processes = 0
        if stop is not None:
            stop()
        if self.ledger is not None:
            self.ledger.close()

    # -- cache plumbing --------------------------------------------------

    def answerable(self, keys: Sequence[str]) -> bool:
        """Whether :meth:`run_many` would answer every key without
        simulating: from the memo, or from a current envelope on
        disk. Reads only: no counter moves and nothing is admitted,
        so the batch that follows counts exactly as it would have."""
        for key in keys:
            if key in self._memo:
                continue
            payload = self.disk.get(key) if self.disk is not None else None
            if payload is None or not _envelope_ok(payload):
                return False
        return True

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
            with current_instruments().tracer.span(
                "cache.admit", workload=request.spec.name
            ):
                self.disk.put(
                    key,
                    {
                        "schema_version": SCHEMA_VERSION,
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
