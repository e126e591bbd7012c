"""Allocation-behaviour characterization (§2.2: Figs. 2-3, Table 1).

These functions analyze traces directly — no simulation — reproducing the
methodology of the paper's study: instrument the allocator, collect
allocation traces, normalize per function, aggregate per language.
They read a trace's packed columns (:meth:`Trace.columnar`), which keep
the order of its allocations and frees, so no event object is built.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.workloads.trace import OP_ALLOC, OP_FREE, Trace

#: Fig. 2 bins: 512-byte increments, then everything above 4096.
SIZE_BIN_EDGES = [512 * i for i in range(1, 9)]
SIZE_BIN_LABELS = [
    "[1, 512]",
    "[513, 1024]",
    "[1025, 1536]",
    "[1537, 2048]",
    "[2049, 2560]",
    "[2561, 3072]",
    "[3073, 3584]",
    "[3585, 4096]",
    "[4097, Inf]",
]

#: Fig. 3 bins: 16-allocation increments up to 256, then 257+ (which
#: includes allocations never freed before exit — OS-reclaimed).
LIFETIME_BIN_LABELS = [
    f"[{16 * i + 1}-{16 * (i + 1)}]" for i in range(16)
] + ["[257-Inf]"]

SHORT_LIVED_MAX = 16  # the paper's "short-lived" boundary
SMALL_MAX = 512


def size_bin_index(size: int) -> int:
    """Fig. 2 bin index for an allocation size."""
    for index, edge in enumerate(SIZE_BIN_EDGES):
        if size <= edge:
            return index
    return len(SIZE_BIN_EDGES)


def lifetime_bin_index(distance: Optional[int]) -> int:
    """Fig. 3 bin index for a malloc-free distance (None = never freed)."""
    if distance is None or distance > 256:
        return 16
    return (distance - 1) // 16


def size_distribution(traces: Iterable[Trace]) -> List[float]:
    """Fig. 2: fraction of allocations per 512 B size bin.

    Counts are normalized per trace before aggregating, as the paper
    normalizes per function before averaging across functions.
    """
    per_trace: List[List[float]] = []
    for trace in traces:
        counts = [0] * len(SIZE_BIN_LABELS)
        total = 0
        packed = trace.columnar()
        for op, size in zip(packed.ops, packed.f1):
            if op == OP_ALLOC:
                counts[size_bin_index(size)] += 1
                total += 1
        if total:
            per_trace.append([c / total for c in counts])
    if not per_trace:
        raise ValueError("no traces with allocations")
    n = len(per_trace)
    return [
        sum(dist[i] for dist in per_trace) / n
        for i in range(len(SIZE_BIN_LABELS))
    ]


def malloc_free_distances(
    trace: Trace,
) -> List[Tuple[int, Optional[int]]]:
    """Per allocation: ``(size, malloc-free distance or None)``.

    Distance is measured in allocations *of the same size class* between
    the malloc and the free (§2.2's lifetime metric). Large allocations
    (>512 B) share one stream, mirroring the single large path.
    """
    class_counter: Dict[int, int] = {}
    birth: Dict[int, Tuple[int, int, int]] = {}  # obj -> (class, at, size)
    distance_of: Dict[int, Optional[int]] = {}
    order: List[int] = []  # objs in allocation order for stable output
    packed = trace.columnar()
    for op, obj, size in zip(packed.ops, packed.f0, packed.f1):
        if op == OP_ALLOC:
            size_class = (size + 7) // 8 - 1 if size <= SMALL_MAX else -1
            count = class_counter.get(size_class, 0) + 1
            class_counter[size_class] = count
            birth[obj] = (size_class, count, size)
            distance_of[obj] = None  # until freed
            order.append(obj)
        elif op == OP_FREE:
            size_class, born_at, _size = birth[obj]
            distance_of[obj] = max(1, class_counter[size_class] - born_at)
    return [(birth[obj][2], distance_of[obj]) for obj in order]


def lifetime_distribution(traces: Iterable[Trace]) -> List[float]:
    """Fig. 3: fraction of allocations per malloc-free-distance bin."""
    per_trace: List[List[float]] = []
    for trace in traces:
        counts = [0] * len(LIFETIME_BIN_LABELS)
        records = malloc_free_distances(trace)
        for _size, distance in records:
            counts[lifetime_bin_index(distance)] += 1
        total = len(records)
        if total:
            per_trace.append([c / total for c in counts])
    if not per_trace:
        raise ValueError("no traces with allocations")
    n = len(per_trace)
    return [
        sum(dist[i] for dist in per_trace) / n
        for i in range(len(LIFETIME_BIN_LABELS))
    ]


def joint_size_lifetime(traces: Iterable[Trace]) -> Dict[str, float]:
    """Table 1: joint distribution of size x lifetime.

    Small = ≤512 B; short-lived = freed within 16 same-class allocations.
    Never-freed allocations count as long-lived (OS batch reclaim).
    """
    cells = {
        "small_short": 0,
        "small_long": 0,
        "large_short": 0,
        "large_long": 0,
    }
    total = 0
    for trace in traces:
        for size, distance in malloc_free_distances(trace):
            small = size <= SMALL_MAX
            short = distance is not None and distance <= SHORT_LIVED_MAX
            key = ("small_" if small else "large_") + (
                "short" if short else "long"
            )
            cells[key] += 1
            total += 1
    if not total:
        raise ValueError("no allocations")
    return {key: value / total for key, value in cells.items()}


def small_fraction(traces: Sequence[Trace]) -> float:
    """Overall fraction at or under 512 B."""
    return size_distribution(traces)[0]
