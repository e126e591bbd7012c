"""Shared allocator machinery: size classes, records, the base interface.

Every software allocator operates on a :class:`~repro.kernel.process.Process`
through the kernel's syscalls, and charges userspace cycles against the
running core under the ``user_alloc`` / ``user_free`` categories that feed
the Fig. 9 breakdown.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.obs.instruments import current as current_instruments
from repro.sim.params import PAGE_SIZE

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


class SoftwareAllocator(abc.ABC):
    """Base class for the userspace allocator models.

    Subclasses implement ``_malloc_small`` / ``_free_small``; the base class
    handles request routing (small vs. large), the live-allocation registry,
    and double-free detection.
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
        #: Optional ``(core, pages)`` hook charged per warm-prefaulted
        #: mmap. ``None`` (baseline/memento) keeps warm backing unmetered;
        #: the snapshot stack installs its per-page restore latency here.
        self.warm_charge = None
        self.touch = touch or (lambda core, addr, write, cat: None)
        # Pre-specialized header-touch callbacks for the malloc/free fast
        # paths (category and write flag folded in). The harness attaches
        # them to its touch closure; plain callables fall back to a shim.
        self.touch_alloc = getattr(touch, "alloc", None) or (
            lambda core, addr: self.touch(core, addr, True, "user_alloc")
        )
        self.touch_free = getattr(touch, "free", None) or (
            lambda core, addr: self.touch(core, addr, True, "user_free")
        )
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
        # Fast-path cycle constants, hoisted so subclasses can charge
        # inline (same arithmetic _charge_alloc/_charge_free perform).
        # The inline form is only valid when the charge hooks are not
        # overridden (Mallacc overrides them to model its malloc cache).
        self._c_alloc_fast = self.costs.alloc_fast
        self._c_free_fast = self.costs.free_fast
        self._plain_charges = (
            type(self)._charge_alloc is SoftwareAllocator._charge_alloc
            and type(self)._charge_free is SoftwareAllocator._charge_free
        )
        # Cycle-attribution cells for the charge hooks (obs/profile.py).
        # The fast paths the subclasses inline into replay closures bypass
        # these hooks on purpose; their cycles surface as the
        # user_alloc/user_free category residual, which the profiler folds
        # into swalloc.alloc_fast/swalloc.free_fast at reconciliation.
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

    def malloc(self, core: "Core", size: int) -> int:
        """Allocate ``size`` bytes; returns the (virtual) address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if (size + 7) & ~7 > SMALL_THRESHOLD and self.large is not self:
            addr = self.large.malloc(core, size)
            self.live[addr] = Allocation(addr, size, -1)
            return addr
        allocation = self._malloc_small(core, size)
        self.live[allocation.addr] = allocation
        self._allocs.pending += 1
        return allocation.addr

    def free(self, core: "Core", addr: int) -> None:
        """Free a previously allocated address."""
        allocation = self.live.pop(addr, None)
        if allocation is None:
            raise DoubleFreeError(f"{addr:#x} is not a live allocation")
        if allocation.size_class < 0 and self.large is not self:
            self.large.free(core, addr)
            return
        self._free_small(core, allocation)
        self._frees.pending += 1

    def _bind_fast_paths(self) -> None:
        """Shadow ``malloc``/``free`` with closures over the routing state.

        Called by a subclass at the end of its ``__init__`` (after any
        small-path closures are in place) so the public entry points skip
        method dispatch and the ``self`` attribute loads. The closures
        are behaviorally identical to the methods above.
        """
        malloc_small = self._malloc_small
        free_small = self._free_small
        live = self.live
        large = self.large
        allocs = self._allocs
        frees = self._frees
        route_large = large is not self

        def malloc(core, size):
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

    # -- subclass hooks -------------------------------------------------------

    @abc.abstractmethod
    def _malloc_small(self, core: "Core", size: int) -> Allocation:
        """Allocate a small object; charge cycles; return the record."""

    @abc.abstractmethod
    def _free_small(self, core: "Core", allocation: Allocation) -> None:
        """Free a small object; charge cycles."""

    # -- shared helpers -------------------------------------------------------

    def _mmap(self, core: "Core", length: int, populate: bool = False) -> int:
        """Request memory from the kernel (§2.1 step 4)."""
        self.stats.add("mmaps")
        base = self.kernel.syscalls.mmap(
            core, self.process, length, populate or self.mmap_populate
        )
        if self.warm:
            pages = pages_for(length)
            for page in range(pages):
                self.kernel.prefault_warm(self.process, base + page * PAGE_SIZE)
            if self.warm_charge is not None:
                self.warm_charge(core, pages)
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
