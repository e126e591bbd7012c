"""Shared allocator machinery: size classes, records, the base interface.

Every software allocator operates on a :class:`~repro.kernel.process.Process`
through the kernel's syscalls, and charges userspace cycles against the
running core under the ``user_alloc`` / ``user_free`` categories that feed
the Fig. 9 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.obs.instruments import current as current_instruments
from repro.sim.params import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.sim.machine import Core

#: Allocations at or below this go through the small-object machinery;
#: larger requests fall through to the large path (paper §4).
SMALL_THRESHOLD = 512

#: Callback the harness injects so allocator metadata writes become real
#: memory accesses: ``touch(core, vaddr, write, category)``.
TouchFn = Callable[["Core", int, bool, str], None]


class AllocationError(MemoryError):
    """The allocator could not satisfy a request."""


class DoubleFreeError(ValueError):
    """An address was freed twice, or was never allocated."""


def align8(size: int) -> int:
    """Round a request up to the nearest 8-byte boundary (§2.1 step 1)."""
    if size <= 0:
        raise ValueError("allocation size must be positive")
    return (size + 7) & ~7


def size_class_index(size: int) -> int:
    """0-based size-class index for a small request (64 classes of 8 B)."""
    aligned = align8(size)
    if aligned > SMALL_THRESHOLD:
        raise ValueError(f"{size} exceeds the small-object threshold")
    return aligned // 8 - 1


@dataclass(slots=True)
class Allocation:
    """Bookkeeping for one live allocation."""

    addr: int
    size: int
    size_class: int  # -1 for large allocations


class SoftwareAllocator:
    """Base class for the userspace allocator models.

    A subclass builds its small-object ``malloc``/``free`` bodies as
    closures and hands them to :meth:`_bind_fast_paths`, which wraps them
    in the one routing body (small vs. large, the live-allocation
    registry, double-free detection) bound as ``malloc``/``free``.
    Slow paths charge through :meth:`_charge_alloc`/:meth:`_charge_free`.
    """

    #: Language runtime whose cost table applies (key into CostModel.user).
    language: str = "cpp"
    name: str = "base"

    def __init__(
        self,
        kernel: "Kernel",
        process: "Process",
        touch: Optional[TouchFn] = None,
    ) -> None:
        self.kernel = kernel
        self.process = process
        self.machine = kernel.machine
        self.costs = kernel.machine.costs.user(self.language)
        #: MAP_POPULATE sensitivity (§6.6): force eager physical backing
        #: on every mmap this allocator issues.
        self.mmap_populate = False
        #: Warm-started container: heap pages this allocator maps were
        #: already faulted by earlier invocations, so backing them is
        #: unmetered (C++ functions against a retained jemalloc heap).
        self.warm = False
        self.touch = touch or (lambda core, addr, write, cat: None)
        self.stats = kernel.machine.stats.scoped(f"alloc.{self.name}")
        # Interned per-operation cells (one bump per malloc/free).
        self._allocs = self.stats.counter("allocs")
        self._frees = self.stats.counter("frees")
        self._alloc_fast = self.stats.counter("alloc_fast")
        self._alloc_slow = self.stats.counter("alloc_slow")
        self._free_fast = self.stats.counter("free_fast")
        self._free_slow = self.stats.counter("free_slow")
        # Cycle cells for the two userspace charge categories (same store
        # Core.charge would hit; bound here to skip the dispatch).
        machine_stats = kernel.machine.stats
        self._ua_cycles = machine_stats.counter("cycles.user_alloc")
        self._uf_cycles = machine_stats.counter("cycles.user_free")
        self._warm_prefaulted = machine_stats.counter(
            "kernel.warm_prefaulted_pages"
        )
        # Fast-path cycle constants the small-path closures charge inline
        # (Mallacc lowers them before its closures are built).
        self._c_alloc_fast = self.costs.alloc_fast
        self._c_free_fast = self.costs.free_fast
        # Cycle-attribution cells for the charge hooks (obs/profile.py).
        # The small-path closures charge their fast paths inline, bypassing
        # these hooks; those cycles surface as the user_alloc/user_free
        # category residual, which the profiler folds into
        # swalloc.alloc_fast/swalloc.free_fast at reconciliation.
        profile = current_instruments().profile
        if profile is None:
            self._p_alloc_fast = None
            self._p_alloc_slow = None
            self._p_free_fast = None
            self._p_free_slow = None
            self._h_alloc = None
            self._h_free = None
        else:
            self._p_alloc_fast = profile.cell("swalloc.alloc_fast")
            self._p_alloc_slow = profile.cell("swalloc.alloc_slow")
            self._p_free_fast = profile.cell("swalloc.free_fast")
            self._p_free_slow = profile.cell("swalloc.free_slow")
            self._h_alloc = profile.hist("op.alloc")
            self._h_free = profile.hist("op.free")
        self.live: Dict[int, Allocation] = {}
        from repro.allocators.glibc_large import LargeAllocator

        self.large = (
            self
            if isinstance(self, LargeAllocator)
            else LargeAllocator(kernel, process, touch)
        )

    # -- public interface ---------------------------------------------------

    def _bind_fast_paths(self, malloc_small, free_small) -> None:
        """Bind ``malloc``/``free``: route a request to the subclass's
        small-path closure or to the large path, and keep the registry.

        ``malloc_small(core, size)`` returns an :class:`Allocation` and
        charges its cycles; ``free_small(core, allocation)`` releases one.
        Called by a subclass at the end of its ``__init__``.
        """
        live = self.live
        large = self.large
        allocs = self._allocs
        frees = self._frees
        route_large = large is not self

        def malloc(core, size):
            """Allocate ``size`` bytes; returns the (virtual) address."""
            if size <= 0:
                raise ValueError("allocation size must be positive")
            if (size + 7) & ~7 > SMALL_THRESHOLD and route_large:
                addr = large.malloc(core, size)
                live[addr] = Allocation(addr, size, -1)
                return addr
            allocation = malloc_small(core, size)
            live[allocation.addr] = allocation
            allocs.pending += 1
            return allocation.addr

        def free(core, addr):
            """Free a previously allocated address."""
            allocation = live.pop(addr, None)
            if allocation is None:
                raise DoubleFreeError(f"{addr:#x} is not a live allocation")
            if allocation.size_class < 0 and route_large:
                large.free(core, addr)
                return
            free_small(core, allocation)
            frees.pending += 1

        self.malloc = malloc
        self.free = free

    def teardown(self, core: "Core") -> None:
        """Release everything at process exit (batch free by the OS).

        The default drops the registry; address-space teardown itself is
        performed by :meth:`Kernel.exit_process`.
        """
        self.live.clear()

    @property
    def live_bytes(self) -> int:
        return sum(a.size for a in self.live.values())

    # -- shared helpers -------------------------------------------------------

    def _mmap(self, core: "Core", length: int, populate: bool = False) -> int:
        """Request memory from the kernel (§2.1 step 4)."""
        self.stats.add("mmaps")
        base = self.kernel.syscalls.mmap(
            core, self.process, length, populate or self.mmap_populate
        )
        if self.warm:
            # A warm container's earlier invocations already faulted the
            # heap in: the pages are backed before the measured run, with
            # no cycles or fault stats charged. A stack that prices the
            # backing (snapshot's restore) reads the count afterwards.
            frames, _ = self.kernel.back_range(
                self.process, base >> PAGE_SHIFT, pages_for(length)
            )
            self._warm_prefaulted.pending += len(frames)
        return base

    def _munmap(self, core: "Core", addr: int) -> None:
        self.stats.add("munmaps")
        self.kernel.syscalls.munmap(core, self.process, addr)

    def _charge_alloc(self, core: "Core", cycles: int, fast: bool) -> None:
        core.cycles += cycles
        self._ua_cycles.pending += cycles
        (self._alloc_fast if fast else self._alloc_slow).pending += 1
        if self._p_alloc_fast is not None:
            (self._p_alloc_fast if fast else self._p_alloc_slow).add(cycles)
            self._h_alloc.record(cycles)
        if not fast:
            # Slow paths run cold allocator code and walk metadata that
            # rarely stays cached across their long reuse distance.
            self.machine.dram.record_bulk_bytes(384, write=False)

    def _charge_free(self, core: "Core", cycles: int, fast: bool) -> None:
        core.cycles += cycles
        self._uf_cycles.pending += cycles
        (self._free_fast if fast else self._free_slow).pending += 1
        if self._p_free_fast is not None:
            (self._p_free_fast if fast else self._p_free_slow).add(cycles)
            self._h_free.record(cycles)
        if not fast:
            self.machine.dram.record_bulk_bytes(256, write=False)


def pages_for(nbytes: int) -> int:
    """Number of whole pages covering ``nbytes``."""
    return -(-nbytes // PAGE_SIZE)
