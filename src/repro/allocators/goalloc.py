"""Behavioral model of the Go runtime allocator and its mark-sweep GC.

Go serves small objects from 8 KB spans carved out of large heap arenas
reserved with big mmaps (32 MB here; the source of the 8.6x footprint blowup under
MAP_POPULATE, §6.6). There is no explicit free: objects that die become
garbage and are reclaimed by a mark-sweep collection triggered when the
heap doubles (GOGC=100). Within a short-lived function the trigger never
fires, so allocations are batch-freed by the OS at exit — exactly the
long-lived lifetime profile Fig. 3 reports for Golang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set

from repro.allocators.base import (
    Allocation,
    AllocationError,
    SoftwareAllocator,
    size_class_index,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Core

SPAN_BYTES = 8 * 1024
HEAP_ARENA_BYTES = 32 * 1024 * 1024

#: GC cycle costs (amortized mark/sweep work per object).
MARK_PER_LIVE_OBJECT = 30
SWEEP_PER_DEAD_OBJECT = 16


class GcPolicy:
    """GOGC-style pacing: collect when the live heap doubles.

    Shared by the baseline Go allocator and the Memento runtime (which
    defers obj-free calls the same way the sweeper defers frees).
    """

    def __init__(
        self, trigger_ratio: float = 2.0, min_heap_bytes: int = 4 << 20
    ) -> None:
        self.trigger_ratio = trigger_ratio
        self.min_heap_bytes = min_heap_bytes
        self._goal = min_heap_bytes
        self.heap_live = 0

    def on_alloc(self, size: int) -> bool:
        """Account an allocation; return True when a GC should run."""
        self.heap_live += size
        return self.heap_live >= self._goal

    def on_dead(self, size: int) -> None:
        """An object became unreachable (it stays on the heap until GC)."""

    def after_gc(self, live_bytes: int) -> None:
        """Re-pace after a collection."""
        self.heap_live = live_bytes
        self._goal = max(
            self.min_heap_bytes, int(live_bytes * self.trigger_ratio)
        )


@dataclass
class Span:
    """One 8 KB span dedicated to a size class."""

    base: int
    size_class: int
    capacity: int
    free_offsets: List[int] = field(default_factory=list)
    allocated: Set[int] = field(default_factory=set)

    @classmethod
    def carve(cls, base: int, size_class: int) -> "Span":
        object_size = (size_class + 1) * 8
        capacity = SPAN_BYTES // object_size
        return cls(
            base=base,
            size_class=size_class,
            capacity=capacity,
            free_offsets=[i * object_size for i in range(capacity - 1, -1, -1)],
        )

    @property
    def is_full(self) -> bool:
        return not self.free_offsets


class GoAllocator(SoftwareAllocator):
    """Go 1.13-style allocator: spans, arenas, deferred mark-sweep frees."""

    language = "go"
    name = "goalloc"

    def __init__(self, kernel, process, touch=None, gc: GcPolicy | None = None) -> None:
        super().__init__(kernel, process, touch)
        self.gc = gc or GcPolicy()
        self._arena_top = 0
        self._arena_end = 0
        self._nonfull_spans: Dict[int, List[Span]] = {}
        self._owner: Dict[int, Span] = {}
        self._garbage: List[Allocation] = []
        self.gc_runs = 0
        self._bind_fast_paths(
            self._make_malloc_small(), self._make_free_small()
        )

    # -- allocation ------------------------------------------------------------

    def _make_malloc_small(self):
        nonfull_spans = self._nonfull_spans
        owner = self._owner
        new_span = self._new_span
        c_alloc = self._c_alloc_fast + self.costs.gc_per_object
        ua_cycles = self._ua_cycles
        alloc_fast = self._alloc_fast
        touch = self.touch
        gc = self.gc
        collect = self.collect

        def _malloc_small(core, size):
            aligned = (size + 7) & ~7
            if size <= 0 or aligned > 512:
                size_class_index(size)  # raises with the canonical message
            size_class = aligned // 8 - 1
            spans = nonfull_spans.get(size_class)
            if spans is None:
                spans = nonfull_spans[size_class] = []
            if not spans:
                spans.append(new_span(core, size_class))
            span = spans[0]
            offset = span.free_offsets.pop()
            span.allocated.add(offset)
            if not span.free_offsets:
                spans.pop(0)
            core.cycles += c_alloc
            ua_cycles.pending += c_alloc
            alloc_fast.pending += 1
            touch(core, span.base, True, "user_alloc")
            addr = span.base + offset
            owner[addr] = span
            # Inlined gc.on_alloc(object_size).
            gc.heap_live += (size_class + 1) * 8
            if gc.heap_live >= gc._goal:
                collect(core)
            return Allocation(addr, size, size_class)

        return _malloc_small

    def _new_span(self, core: "Core", size_class: int) -> Span:
        if self._arena_top + SPAN_BYTES > self._arena_end:
            base = self._mmap(core, HEAP_ARENA_BYTES)
            self._arena_top = base
            self._arena_end = base + HEAP_ARENA_BYTES
            self.stats.add("heap_arenas_mapped")
        span = Span.carve(self._arena_top, size_class)
        self._arena_top += SPAN_BYTES
        self._charge_alloc(core, self.costs.alloc_slow, fast=False)
        return span

    # -- free: objects become garbage, reclaimed at GC -------------------------

    def _make_free_small(self):
        owner = self._owner
        garbage = self._garbage
        on_dead = self.gc.on_dead

        def _free_small(core, allocation):
            """An object died: no work now, the sweeper reclaims it later."""
            if allocation.addr not in owner:
                raise AllocationError(
                    f"{allocation.addr:#x} is not a live Go object"
                )
            garbage.append(allocation)
            on_dead(allocation.size)

        return _free_small

    def collect(self, core: "Core") -> int:
        """Run a mark-sweep collection; return objects reclaimed."""
        live_objects = len(self._owner) - len(self._garbage)
        core.charge(live_objects * MARK_PER_LIVE_OBJECT, "user_free")
        reclaimed = 0
        for allocation in self._garbage:
            span = self._owner.pop(allocation.addr)
            offset = allocation.addr - span.base
            was_full = span.is_full
            span.allocated.remove(offset)
            span.free_offsets.append(offset)
            if was_full:
                self._nonfull_spans[span.size_class].append(span)
            reclaimed += 1
        core.charge(reclaimed * SWEEP_PER_DEAD_OBJECT, "user_free")
        self.stats.add("gc_reclaimed", reclaimed)
        self.stats.add("gc_runs")
        self.gc_runs += 1
        self._garbage.clear()
        live_bytes = sum(
            (span.size_class + 1) * 8 for span in self._owner.values()
        )
        self.gc.after_gc(live_bytes)
        self.machine.dram.record_bulk_bytes(
            64 * (live_objects + reclaimed), write=False
        )
        return reclaimed

    def teardown(self, core: "Core") -> None:
        """Function exit: everything is batch-freed by the OS; no sweeps."""
        self._garbage.clear()
        self._owner.clear()
        super().teardown(core)

    @property
    def garbage_objects(self) -> int:
        return len(self._garbage)
