"""Deterministic trace generation from a workload specification.

``WorkloadSpec`` captures everything that distinguishes one paper workload
from another: language runtime, allocation count and rate (via compute
cycles per allocation), size mixture, lifetime mixture, access/reuse
behaviour, and the large-buffer churn that drives kernel involvement.
``generate_trace`` turns a spec into a reproducible event sequence
(seeded ``random.Random``; same spec → same trace).

The generator writes the trace in its replay form: the
:class:`~repro.workloads.trace.PackedTrace` columns the harness replays,
compute records included. No event object is built unless something
reads :attr:`Trace.events`. Each draw is defined once, by the
samplers of :mod:`repro.workloads.profiles` and the expressions here,
and the draws happen in a fixed order, so a spec always yields the same
trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.profiles import (
    LifetimeProfile,
    PROFILES,
    large_sampler,
    mode_sampler,
)
from repro.workloads.trace import (
    OP_ALLOC,
    OP_FREE,
    OP_TOUCH,
    PackedTrace,
    Trace,
)


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Statistical description of one workload."""

    name: str
    language: str  # "python" | "cpp" | "go"
    category: str = "function"  # "function" | "dataproc" | "platform"
    seed: int = 1

    #: Total small+large allocation requests in the trace.
    num_allocs: int = 30_000
    #: Fraction of requests at or under 512 B (Fig. 2).
    small_fraction: Optional[float] = None
    #: Weighted small-size modes; defaults to the language profile.
    size_modes: Optional[Sequence[Tuple[int, float]]] = None
    #: Size jitter around each mode (0 = exact modes).
    size_jitter: float = 0.15
    #: Lifetime mixture; defaults to the language profile.
    lifetime: Optional[LifetimeProfile] = None

    #: Application compute cycles between allocations (sets MallocPKI and,
    #: with the cost model, the memory-management share of runtime).
    compute_per_alloc: int = 600
    #: Statistically-modeled app DRAM traffic per allocation interval.
    app_dram_per_alloc: int = 48
    #: Probability a dying object is re-read just before its free.
    retouch_prob: float = 0.25
    #: Lines touched per object at allocation beyond its own span
    #: (0 = touch exactly the object's lines).
    extra_touch_lines: int = 0

    #: Every ``large_every`` allocations, one request is a large buffer
    #: (None disables; this is what drives mmap/fault kernel churn for
    #: workloads with big working sets).
    large_every: Optional[int] = 64
    #: Large buffers die after this many subsequent *large* allocations
    #: (short lifetimes let the large path's bins recycle addresses).
    large_lifetime: int = 40
    #: Upper bound for large-allocation sizes.
    large_max: int = 65_536
    #: Fraction of a large buffer's pages touched after allocation.
    large_touch_fraction: float = 0.6

    #: Functions run in phases (parse → build → emit …); at each phase
    #: boundary the phase's working set dies in a batch. Phase-local
    #: objects look long-lived to the Fig. 3 metric and, under pymalloc,
    #: drain whole pools/arenas at once — the source of baseline arena
    #: munmap/refault churn that Memento's page allocator absorbs.
    phases: int = 1
    #: Fraction of small allocations that live until their phase ends
    #: (carved out of the lifetime mixture before sampling it).
    phase_local: float = 0.0
    #: Never-freed allocations happen early (interpreter/runtime state is
    #: built at startup). After this fraction of the trace, a draw of
    #: "never" becomes phase-local instead — which is what lets pymalloc
    #: actually empty and release arenas at phase boundaries rather than
    #: pinning every arena with one immortal object.
    longlived_early_fraction: float = 0.2

    #: Leading fraction of the trace modeling language-runtime startup:
    #: the interpreter boots and imports modules, a dense burst of
    #: never-freed small allocations (module dicts, code objects, interned
    #: strings) that the OS batch-reclaims at exit. Startup allocations
    #: touch fresh pages with no reuse — the fault-dense region behind the
    #: high kernel share of Table 2 for Python and Golang. Short-lived
    #: functions are dominated by it; compiled C++ barely has one.
    startup_fraction: float = 0.0
    #: Compute between startup allocations, relative to compute_per_alloc
    #: (startup is allocation-dense).
    startup_compute_scale: float = 0.3
    #: Startup allocations skew larger than steady-state ones (code
    #: objects, docstrings, bytecode arrays); sizes are scaled by this
    #: factor and clamped to the small threshold.
    startup_size_multiplier: float = 1.0
    #: Warm-started container with a retained allocator heap: pages the
    #: software allocator maps are already physically backed (C++
    #: functions keep jemalloc's chunks warm across invocations; Python
    #: and Go heaps churn or grow and re-fault regardless).
    warm_heap: bool = False

    def resolved(self) -> "WorkloadSpec":
        """Fill profile-derived defaults."""
        profile = PROFILES[self.language]
        updates = {}
        if self.small_fraction is None:
            updates["small_fraction"] = profile.small_fraction
        if self.size_modes is None:
            updates["size_modes"] = profile.size_modes
        if self.lifetime is None:
            updates["lifetime"] = profile.lifetime
        return replace(self, **updates) if updates else self


#: Categories a spec may name.
CATEGORIES = ("function", "dataproc", "platform")

#: Inclusive ``(low, high)`` bounds of the numeric spec fields, checked
#: when a spec arrives over the wire (``None`` leaves a side open).
#: Fractions and probabilities lie in [0, 1]; a trace has at least one
#: allocation and one phase; large buffers are drawn log-uniformly from
#: 600 B up to ``large_max``, which must exceed the 512 B small limit.
SPEC_BOUNDS = {
    "num_allocs": (1, None),
    "small_fraction": (0, 1),
    "size_jitter": (0, 1),
    "compute_per_alloc": (0, None),
    "app_dram_per_alloc": (0, None),
    "retouch_prob": (0, 1),
    "extra_touch_lines": (0, None),
    "large_every": (1, None),
    "large_lifetime": (0, None),
    "large_max": (513, None),
    "large_touch_fraction": (0, 1),
    "phases": (1, None),
    "phase_local": (0, 1),
    "longlived_early_fraction": (0, 1),
    "startup_fraction": (0, 1),
    "startup_compute_scale": (0, None),
    "startup_size_multiplier": (0, None),
}

#: Bounds of a lifetime mixture's fields (``medium_max`` must also
#: exceed ``short_max``: medium distances are drawn above it).
LIFETIME_BOUNDS = {
    "short": (0, 1),
    "medium": (0, 1),
    "short_max": (1, None),
    "medium_max": (2, None),
}


def generate_trace(spec: WorkloadSpec) -> Trace:
    """Generate the deterministic event trace for ``spec``.

    The trace is written straight into its replay columns
    (:class:`PackedTrace`), compute records included; :attr:`Trace.events`
    builds the event objects from those when read.
    """
    spec = spec.resolved()
    rng = random.Random(spec.seed)
    draw = rng.random
    sample_small = mode_sampler(spec.size_modes, spec.size_jitter)
    sample_lifetime = spec.lifetime.sample
    # Packed events as one flat list of (op, f0, f1, f2, write) rows,
    # split into the five columns at the end.
    rows: List = []
    computes: List[Tuple[int, int, int]] = []
    compute_cycles = compute_bytes = 0

    # Per-size-class allocation counters and pending frees:
    # heap entries are (due_count, obj_id).
    class_counter: Dict[int, int] = {}
    pending: Dict[int, List[Tuple[int, int]]] = {}
    phase_objects: List[int] = []
    phased = spec.phases > 1
    phase_length = max(1, spec.num_allocs // max(1, spec.phases))
    large_every = spec.large_every
    retouch_prob = spec.retouch_prob

    def flush_due(size_class: int) -> None:
        due_heap = pending.get(size_class)
        count = class_counter[size_class]
        while due_heap and due_heap[0][0] <= count:
            obj = heappop(due_heap)[1]
            if draw() < retouch_prob:
                # A one-line read just before the free.
                rows.extend((OP_TOUCH, obj, 1, 0, False))
            rows.extend((OP_FREE, obj, 0, 0, False))

    startup_until = int(spec.startup_fraction * spec.num_allocs)
    startup_compute = spec.compute_per_alloc * spec.startup_compute_scale
    longlived_until = spec.longlived_early_fraction * spec.num_allocs

    for index in range(spec.num_allocs):
        in_startup = index < startup_until
        jitter = 0.6 + (1.4 - 0.6) * draw()  # rng.uniform(0.6, 1.4)
        compute = startup_compute if in_startup else spec.compute_per_alloc
        cycles = max(1, int(compute * jitter))
        dram_bytes = int(spec.app_dram_per_alloc * jitter)
        computes.append((len(rows) // 5, cycles, dram_bytes))
        compute_cycles += cycles
        compute_bytes += dram_bytes
        obj = index  # object ids count allocations

        if in_startup:
            # Runtime startup: small, never freed, touched once. The
            # scaled size is at least 1 B and at most the small limit.
            size = min(
                512,
                max(1, int(sample_small(rng) * spec.startup_size_multiplier)),
            )
            rows += (
                OP_ALLOC, obj, size, 0, False,
                OP_TOUCH, obj, max(1, -(-size // 64)), 0, True,
            )
            continue

        is_large = (
            large_every is not None
            and index % large_every == large_every - 1
        ) or draw() > spec.small_fraction

        if is_large:
            size = large_sampler(rng, spec.large_max)
            rows += (OP_ALLOC, obj, size, 0, False)
            pages = max(1, int(size / 4096 * spec.large_touch_fraction))
            # Touch one line in each touched page: enough to fault them.
            for page in range(pages):
                rows += (OP_TOUCH, obj, 1, page * 64, True)
            size_class = -1  # large requests share one lifetime stream
            class_counter[size_class] = class_counter.get(size_class, 0) + 1
            heappush(
                pending.setdefault(size_class, []),
                (class_counter[size_class] + spec.large_lifetime, obj),
            )
            flush_due(size_class)
            continue

        size = sample_small(rng)
        rows += (
            OP_ALLOC, obj, size, 0, False,
            OP_TOUCH, obj, max(1, -(-size // 64)) + spec.extra_touch_lines,
            0, True,
        )

        size_class = (size + 7) // 8 - 1
        class_counter[size_class] = class_counter.get(size_class, 0) + 1
        if phased and draw() < spec.phase_local:
            phase_objects.append(obj)
        else:
            distance = sample_lifetime(rng)
            if distance is None and phased and index > longlived_until:
                # Late "immortal" draws become phase-local: long-lived
                # state is built early in real functions.
                phase_objects.append(obj)
            elif distance is not None:
                heappush(
                    pending.setdefault(size_class, []),
                    (class_counter[size_class] + distance, obj),
                )
        flush_due(size_class)

        if phased and (index + 1) % phase_length == 0:
            # Phase boundary: the phase's working set dies in a batch.
            for dead in phase_objects:
                rows += (OP_FREE, dead, 0, 0, False)
            phase_objects.clear()

    # Objects with finite scheduled lifetimes die before exit even if
    # their size class sees no further allocations; drain them so the
    # trace's lifetime statistics match the sampled mixture. Never-freed
    # objects (no schedule entry) stay live for the OS to batch-reclaim.
    for due_heap in pending.values():
        while due_heap:
            rows += (OP_FREE, heappop(due_heap)[1], 0, 0, False)
    for dead in phase_objects:
        rows += (OP_FREE, dead, 0, 0, False)

    packed = PackedTrace()
    packed.ops = rows[0::5]
    packed.f0 = rows[1::5]
    packed.f1 = rows[2::5]
    packed.f2 = rows[3::5]
    packed.writes = rows[4::5]
    packed.computes = computes
    packed.compute_cycles = compute_cycles
    packed.compute_bytes = compute_bytes
    return Trace(spec.name, spec.language, spec.category, packed)
