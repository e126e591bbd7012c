"""Behavioral model of jemalloc for C/C++ workloads.

jemalloc serves small objects from per-size-class slab *runs* carved out of
large chunks. The model captures the two behaviours §6 attributes to it:

* it pre-maps and pre-faults a pool of memory at library initialization, so
  C++ workloads see few page faults (small page-management gains in Fig. 9)
  at the cost of up-front footprint (userspace memory waste in Fig. 11);
* its fast paths are compiled and cheap, so userspace dominates C++ memory
  management cycles (96 % per Table 2).
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
from repro.sim.params import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Core

CHUNK_BYTES = 2 * 1024 * 1024
#: Default slab-run span. Small-class runs are page-sized in real
#: jemalloc; the larger default amortizes carving for function workloads,
#: while the data-processing configuration uses page runs (heavier
#: retire/purge churn).
RUN_BYTES = 4 * PAGE_SIZE

#: Pages pre-faulted at init ("a small pool of memory").
PREFAULT_PAGES = 128


@dataclass
class Run:
    """One slab run dedicated to a size class."""

    base: int
    size_class: int
    capacity: int
    free_offsets: List[int] = field(default_factory=list)
    allocated: Set[int] = field(default_factory=set)

    @classmethod
    def carve(cls, base: int, size_class: int, run_bytes: int = RUN_BYTES) -> "Run":
        object_size = (size_class + 1) * 8
        capacity = run_bytes // object_size
        return cls(
            base=base,
            size_class=size_class,
            capacity=capacity,
            free_offsets=[i * object_size for i in range(capacity - 1, -1, -1)],
        )

    @property
    def is_full(self) -> bool:
        return not self.free_offsets

    @property
    def is_empty(self) -> bool:
        return not self.allocated


class JemallocAllocator(SoftwareAllocator):
    """jemalloc-style slab allocator with init-time pre-faulting."""

    language = "cpp"
    name = "jemalloc"

    def __init__(
        self,
        kernel,
        process,
        touch=None,
        purge_after=None,
        run_bytes: int = RUN_BYTES,
    ) -> None:
        """``purge_after``: when this many runs sit retired, decay purging
        kicks in and their pages are returned via MADV_DONTNEED (the
        jemalloc dirty-decay behaviour long-running processes enable; None
        disables it, matching a short-lived function that exits before the
        decay timer fires). ``run_bytes``: slab-run span."""
        super().__init__(kernel, process, touch)
        self.purge_after = purge_after
        self.run_bytes = run_bytes
        self._chunk_top = 0
        self._chunk_end = 0
        self._nonfull_runs: Dict[int, List[Run]] = {}
        self._run_of: Dict[int, Run] = {}  # run base -> Run
        self._owner: Dict[int, Run] = {}  # object addr -> Run
        self._dirty_runs: List[int] = []  # retired, pages still backed
        self._clean_runs: List[int] = []  # retired and purged (refault)
        self._retires_since_purge = 0
        self._initialized = False
        self._bind_fast_paths(
            self._make_malloc_small(), self._make_free_small()
        )

    def initialize(self, core: "Core") -> None:
        """Library init: map the first chunk and pre-fault a small pool."""
        if self._initialized:
            return
        base = self._mmap(core, CHUNK_BYTES)
        self._chunk_top = base
        self._chunk_end = base + CHUNK_BYTES
        if not self.warm:
            # Cold init: the library pre-faults its pool on the critical
            # path; a warm container inherited the backed pages already.
            self.kernel.fault_handler.handle_range(
                core, self.process, base, PREFAULT_PAGES
            )
        self._initialized = True
        self.stats.add("prefaulted_pages", PREFAULT_PAGES)

    # -- small path -----------------------------------------------------------

    def _make_malloc_small(self):
        nonfull_runs = self._nonfull_runs
        owner = self._owner
        new_run = self._new_run
        c_alloc = self._c_alloc_fast
        ua_cycles = self._ua_cycles
        alloc_fast = self._alloc_fast
        touch = self.touch
        self_ref = self

        def _malloc_small(core, size):
            if not self_ref._initialized:
                self_ref.initialize(core)
            aligned = (size + 7) & ~7
            if size <= 0 or aligned > 512:
                size_class_index(size)  # raises with the canonical message
            size_class = aligned // 8 - 1
            runs = nonfull_runs.get(size_class)
            if runs is None:
                runs = nonfull_runs[size_class] = []
            if not runs:
                runs.append(new_run(core, size_class))
            # Allocate from the most recently carved/refilled run: hot runs
            # absorb the churn while older runs drain empty and retire.
            run = runs[-1]
            offset = run.free_offsets.pop()
            run.allocated.add(offset)
            if not run.free_offsets:
                runs.pop()
            core.cycles += c_alloc
            ua_cycles.pending += c_alloc
            alloc_fast.pending += 1
            touch(core, run.base, True, "user_alloc")
            addr = run.base + offset
            owner[addr] = run
            return Allocation(addr, size, size_class)

        return _malloc_small

    def _new_run(self, core: "Core", size_class: int) -> Run:
        if self._clean_runs:
            # Reuse a purged base: its pages refault on first touch — the
            # steady-state kernel churn of long-running processes. The
            # decay timer (~10 ms) is short relative to slab-reuse
            # distance in a steady-state server, so retired runs are
            # normally purged before demand returns to them.
            base = self._clean_runs.pop()
        elif self._dirty_runs:
            base = self._dirty_runs.pop()
        else:
            if self._chunk_top + self.run_bytes > self._chunk_end:
                chunk = self._mmap(core, CHUNK_BYTES)
                self._chunk_top = chunk
                self._chunk_end = chunk + CHUNK_BYTES
                self.stats.add("chunks_mapped")
            base = self._chunk_top
            self._chunk_top += self.run_bytes
        run = Run.carve(base, size_class, self.run_bytes)
        self._run_of[base] = run
        self._charge_alloc(core, self.costs.alloc_slow, fast=False)
        return run

    # -- free -------------------------------------------------------------------

    def _make_free_small(self):
        nonfull_runs = self._nonfull_runs
        owner = self._owner
        retire_run = self._retire_run
        c_free = self._c_free_fast
        uf_cycles = self._uf_cycles
        free_fast = self._free_fast
        touch = self.touch

        def _free_small(core, allocation):
            run = owner.pop(allocation.addr, None)
            if run is None or run.size_class != allocation.size_class:
                raise AllocationError(
                    f"{allocation.addr:#x} does not belong to a live run"
                )
            offset = allocation.addr - run.base
            was_full = not run.free_offsets
            run.allocated.remove(offset)
            run.free_offsets.append(offset)
            core.cycles += c_free
            uf_cycles.pending += c_free
            free_fast.pending += 1
            touch(core, run.base, True, "user_free")
            if was_full:
                nonfull_runs[run.size_class].append(run)
            if not run.allocated:
                retire_run(core, run)

        return _free_small

    def _retire_run(self, core: "Core", run: Run) -> None:
        """Empty runs return to the arena for reuse (jemalloc keeps the
        chunk mapped — no munmap, hence the low pool utilization Fig. 11
        charges against it)."""
        self._nonfull_runs[run.size_class].remove(run)
        del self._run_of[run.base]
        self._dirty_runs.append(run.base)
        self._charge_free(core, self.costs.free_slow, fast=False)
        self._retires_since_purge += 1
        if (
            self.purge_after is not None
            and self._retires_since_purge >= self.purge_after
        ):
            self._purge(core)

    def _purge(self, core: "Core") -> None:
        """Decay purging: MADV_DONTNEED every dirty retired run's pages.

        The decay timer fires on wall time, independent of allocation
        demand, so all currently-dirty runs purge at once; their bases
        move to the clean list and refault on reuse — the kernel churn
        that makes data processing 62% kernel-bound in Table 2."""
        purged = len(self._dirty_runs)
        for base in self._dirty_runs:
            self.kernel.syscalls.madvise_dontneed(
                core, self.process, base, self.run_bytes
            )
        self._clean_runs.extend(self._dirty_runs)
        self._dirty_runs.clear()
        self.stats.add("purges")
        self.stats.add("purged_runs", purged)
        self._retires_since_purge = 0

    # -- introspection -------------------------------------------------------------

    def utilization(self) -> float:
        """Allocated fraction of live slab capacity."""
        capacity = used = 0
        for run in self._run_of.values():
            capacity += run.capacity
            used += len(run.allocated)
        return used / capacity if capacity else 1.0

    @property
    def mapped_bytes(self) -> int:
        """Bytes of address space held in chunks (mapped, maybe unfaulted)."""
        return sum(
            vma.end - vma.start for vma in self.process.vmas
        )
