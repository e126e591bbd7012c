"""The hardware page allocator at the memory controller (§3.2).

Responsibilities:

1. **Arena virtual allocation** — per-size-class bump pointers hand out
   arena-sized virtual ranges from the process's reserved region; the hot
   pointers are cached in the Arena Allocation Cache (AAC). Freed arena
   spans are recycled through a per-class stack so long-running processes
   (§6.1's data-processing study) never exhaust the region — a small
   hardware free-stack the paper leaves unspecified; see DESIGN.md.
2. **Physical backing** — a small pool of free physical pages, replenished
   by the OS on demand, eagerly backs each new arena's first (header) page
   and lazily backs the rest when the MMU's marked page-walk requests reach
   the allocator. Mappings live in a per-process, hardware-managed Memento
   page table rooted at the MPTR register.
3. **Arena free** — reclaims the arena's pages and page-table entries and
   issues TLB shootdowns to every core recorded in the process's walker
   bit-vector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.core.arena import arena_span_bytes
from repro.core.config import MementoConfig
from repro.core.errors import PoolExhaustedError, RegionExhaustedError
from repro.core.region import MementoRegion
from repro.kernel.buddy import OutOfMemoryError
from repro.kernel.page_table import PageTable
from repro.obs.instruments import current as current_instruments
from repro.sim.params import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.sim.machine import Core


class ProcessPageState:
    """Per-process state held by the page allocator.

    ``threads`` > 1 slices every size class's sub-region into per-thread
    windows (multiples of the arena span), realizing §3.4's "each thread
    manages its own arena whose virtual address range is maintained by
    hardware": ownership of any object address is recoverable from the
    address alone.
    """

    def __init__(
        self,
        region: MementoRegion,
        allocator: "HardwarePageAllocator",
        threads: int = 1,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.region = region
        self.allocator = allocator
        self.threads = threads
        #: MPTR-rooted hardware-managed page table; node pages come from
        #: the pool.
        self.page_table = PageTable(
            alloc_table_page=allocator._alloc_table_page,
            free_table_page=allocator._free_table_page,
        )
        #: Next unused arena VA per (thread, size class) bump pointer.
        self.bump: Dict[Tuple[int, int], int] = {}
        #: Recycled arena VAs per (thread, size class).
        self.free_spans: Dict[Tuple[int, int], List[int]] = {}
        #: Cores that have issued page walks for this address space —
        #: the shootdown bit-vector of §3.2.
        self.walker_cores: Set[int] = set()

    def thread_slice(self, thread_id: int, size_class: int) -> Tuple[int, int]:
        """``[start, end)`` of a thread's window in a class sub-region.

        Windows are aligned to the class's arena span so the §3.2 address
        arithmetic (round down to the span) stays exact.
        """
        if not 0 <= thread_id < self.threads:
            raise ValueError(f"thread {thread_id} out of range")
        span = arena_span_bytes(size_class, self.allocator.config)
        arenas_total = self.region.arenas_per_class(size_class)
        per_thread = arenas_total // self.threads
        if per_thread == 0:
            raise RegionExhaustedError(
                f"size class {size_class} cannot host {self.threads} threads"
            )
        base = self.region.class_base(size_class)
        start = base + thread_id * per_thread * span
        return start, start + per_thread * span

    def owner_thread(self, size_class: int, arena_base: int) -> int:
        """Which thread's window contains ``arena_base`` (§3.4 ownership
        check: compare the address against the thread's VA range)."""
        span = arena_span_bytes(size_class, self.allocator.config)
        arenas_total = self.region.arenas_per_class(size_class)
        per_thread = arenas_total // self.threads
        offset = arena_base - self.region.class_base(size_class)
        return min(self.threads - 1, (offset // span) // per_thread)


class ArenaAllocationCache:
    """The AAC: 32-entry direct-mapped cache, indexed by core ID (§3.2).

    Each entry caches the bump pointers of a core's frequently used size
    classes; an access to an uncached class costs a fetch from the
    reserved memory block.
    """

    def __init__(self, config: MementoConfig, stats) -> None:
        self.config = config
        self.stats = stats
        #: Core slot -> the classes it caches, in LRU order (a plain
        #: dict, probed like a cache set; see ``repro.sim.cache.Cache``).
        self.entries: Dict[int, Dict[int, bool]] = {}

    def access(self, core_id: int, size_class: int) -> bool:
        """Touch (core, class); return True on an AAC hit."""
        entry = self.entries.setdefault(core_id % 32, {})
        if size_class in entry:
            entry[size_class] = entry.pop(size_class)
            self.stats.add("hits")
            return True
        if len(entry) >= self.config.aac_classes_per_core:
            entry.pop(next(iter(entry)))
        entry[size_class] = True
        self.stats.add("misses")
        return False

    def hit_rate(self) -> float:
        hits = self.stats["hits"]
        total = hits + self.stats["misses"]
        return hits / total if total else 1.0


class HardwarePageAllocator:
    """Memory-controller page allocator shared by all cores."""

    def __init__(self, kernel: "Kernel", config: MementoConfig) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.config = config
        self.stats = self.machine.stats.scoped("memento.page")
        self.aac = ArenaAllocationCache(
            config, self.machine.stats.scoped("memento.aac")
        )
        self.pool: List[int] = []
        self._states: Dict[int, ProcessPageState] = {}
        # Cycle-attribution cells (see obs/profile.py): bound here so the
        # disabled path pays one None test per method-level operation.
        profile = current_instruments().profile
        if profile is None:
            self._p_aac_hit = None
            self._p_aac_miss = None
            self._p_page_fill = None
            self._p_arena_free = None
            self._p_shootdown = None
            self._p_replenish = None
            self._p_walk = None
            self._h_walk = None
        else:
            self._p_aac_hit = profile.cell("aac.hit")
            self._p_aac_miss = profile.cell("aac.miss")
            self._p_page_fill = profile.cell("hw_page.fill")
            self._p_arena_free = profile.cell("hw_page.arena_free")
            self._p_shootdown = profile.cell("tlb.shootdown")
            self._p_replenish = profile.cell("kernel.pool_replenish")
            self._p_walk = profile.cell("walk.page_walk")
            self._h_walk = profile.hist("op.page_walk")

    # -- process attach/detach ---------------------------------------------

    def attach(
        self,
        process: "Process",
        region: MementoRegion,
        threads: int = 1,
    ) -> ProcessPageState:
        """The OS reserved ``region`` for ``process``; set up MPTR state."""
        if process.pid in self._states:
            raise ValueError(f"process {process.pid} already attached")
        state = ProcessPageState(region, self, threads)
        self._states[process.pid] = state
        return state

    def state_of(self, process: "Process") -> ProcessPageState:
        return self._states[process.pid]

    # -- the physical page pool ------------------------------------------------

    def _take_pool_page(self, core: "Core") -> int:
        """Draw one frame from the pool, replenishing from the OS first if
        the pool is at its low-water mark."""
        if len(self.pool) <= self.config.pool_low_water:
            self._replenish(core)
        if not self.pool:
            raise PoolExhaustedError("OS could not replenish the page pool")
        return self.pool.pop()

    def _replenish(self, core: "Core") -> None:
        """OS hands the pool a batch of free pages (rare, off critical
        path in steady state but charged when it happens)."""
        costs = self.machine.costs
        pages = self.config.pool_replenish_pages
        try:
            frames = self.kernel.buddy.alloc_pages(pages)
        except OutOfMemoryError as exc:  # pragma: no cover - 64 GB machine
            raise PoolExhaustedError(str(exc)) from exc
        self.pool.extend(frames)
        self.machine.frames.charge("memento", pages)
        cycles = costs.syscall_entry_exit + pages * costs.buddy_alloc // 8
        core.charge(cycles, "kernel_page")
        if self._p_replenish is not None:
            self._p_replenish.add(cycles)
        self.stats.add("replenishments")
        self.stats.add("pool_pages_granted", pages)

    def _alloc_table_page(self) -> int:
        """Frame source for Memento page-table nodes (from the pool)."""
        if not self.pool:
            # Table growth can happen mid-walk; replenish against core 0.
            self._replenish(self.machine.core)
            if not self.pool:
                raise PoolExhaustedError(
                    "OS could not replenish the page pool"
                )
        pfn = self.pool.pop()
        self.machine.frames.move("memento", "kernel")
        self.stats.add("table_pages_created")
        self.stats.add("table_pages_live")
        live = self.stats["table_pages_live"]
        if live > self.stats["table_pages_peak"]:
            self.stats.set("table_pages_peak", live)
        return pfn

    def _free_table_page(self, pfn: int) -> None:
        self.pool.append(pfn)
        self.machine.frames.move("kernel", "memento")
        self.stats.add("table_pages_live", -1)


    def _zero_fill_leaf(self, core: "Core", pfn: int) -> None:
        """Without the bypass mechanism the hardware must zero pages
        eagerly at fill time for isolation (pool pages may have held other
        processes' data); the zero lines are written through the cache
        hierarchy just as the kernel's fault-time zeroing is, polluting it
        and eventually writing back to DRAM. With bypass on, zeroing is
        lazy — only the lines actually touched are instantiated, in the
        LLC, which is the mechanism's saving (§3.3)."""
        if self.config.bypass_enabled:
            return
        cycles = self.machine.costs.hw_page_fill // 2
        core.charge(cycles, "hw_page")
        if self._p_page_fill is not None:
            self._p_page_fill.add(cycles)
        core.caches.zero_fill_page(pfn << 12)
        self.stats.add("hw_zeroed_pages")

    # -- arena allocation (object allocator → page allocator) -----------------

    def alloc_arena(
        self,
        core: "Core",
        process: "Process",
        size_class: int,
        thread_id: int = 0,
    ) -> Tuple[int, int]:
        """Allocate an arena VA and eagerly back its header page.

        Returns ``(arena_va, header_pfn)``. Charges the AAC access, the
        bump-pointer update, and the header-page backing. With multiple
        threads, the VA comes from the requesting thread's window.
        """
        costs = self.machine.costs
        state = self.state_of(process)
        aac_hit = self.aac.access(core.core_id, size_class)
        cycles = costs.aac_hit if aac_hit else costs.aac_miss
        if self._p_aac_hit is not None:
            (self._p_aac_hit if aac_hit else self._p_aac_miss).add(cycles)

        key = (thread_id, size_class)
        recycled = state.free_spans.get(key)
        if recycled:
            va = recycled.pop()
        else:
            start, limit = state.thread_slice(thread_id, size_class)
            va = state.bump.get(key, start)
            span = arena_span_bytes(size_class, self.config)
            if va + span > limit:
                raise RegionExhaustedError(
                    f"size class {size_class} exhausted thread "
                    f"{thread_id}'s window"
                )
            state.bump[key] = va + span

        header_pfn = self._take_pool_page(core)
        state.page_table.map(va >> PAGE_SHIFT, header_pfn)
        self.machine.frames.move("memento", "user")
        self._zero_fill_leaf(core, header_pfn)
        cycles += costs.hw_page_fill
        if self._p_page_fill is not None:
            self._p_page_fill.add(costs.hw_page_fill)
        core.charge(cycles, "hw_page")
        self.stats.add("arenas_allocated")
        self.stats.add("arena_pages_mapped")
        return va, header_pfn

    # -- lazy backing via marked page walks -------------------------------------

    def handle_walk(
        self, core: "Core", process: "Process", vaddr: int
    ) -> int:
        """Service a marked page-walk request for an in-region address.

        Walks the Memento page table through the cache hierarchy; invalid
        entries at any level are populated from the pool ("the page
        allocator constructs the Memento page table on page walk requests").
        Returns the leaf frame. No kernel involvement.
        """
        costs = self.machine.costs
        state = self.state_of(process)
        state.walker_cores.add(core.core_id)
        vpn = vaddr >> PAGE_SHIFT
        walk_cycles = 0
        for node_pfn in state.page_table.walk_path(vpn):
            result = core.caches.access_line(node_pfn << 6)
            core.charge(result.cycles, "walk")
            walk_cycles += result.cycles
        if self._p_walk is not None:
            self._p_walk.add(walk_cycles)
            self._h_walk.record(walk_cycles)
        pfn = state.page_table.walk(vpn)
        if pfn is not None:
            self.stats.add("walks_mapped")
            return pfn
        pfn = self._take_pool_page(core)
        state.page_table.map(vpn, pfn)
        self.machine.frames.move("memento", "user")
        self._zero_fill_leaf(core, pfn)
        core.charge(costs.hw_page_fill, "hw_page")
        if self._p_page_fill is not None:
            self._p_page_fill.add(costs.hw_page_fill)
        self.stats.add("walks_filled")
        self.stats.add("arena_pages_mapped")
        return pfn

    # -- arena free -----------------------------------------------------------------

    def free_arena(
        self, core: "Core", process: "Process", va: int, size_class: int
    ) -> int:
        """Reclaim an arena's backed pages; returns pages freed.

        Unmaps every backed page of the span, returns frames to the pool,
        invalidates page-table entries (freeing emptied table pages), and
        sends TLB shootdowns to every core that has walked this address
        space.
        """
        costs = self.machine.costs
        state = self.state_of(process)
        span = arena_span_bytes(size_class, self.config)
        vpns, released, tables = state.page_table.unmap_range(
            va >> PAGE_SHIFT, span // PAGE_SIZE
        )
        freed = len(vpns)
        # Frames and emptied table pages go back in teardown order: the
        # pool is LIFO, so that order picks the frames later fills get.
        self.pool.extend(released)
        if freed:
            self.machine.frames.move("user", "memento", freed)
        if tables:
            self.machine.frames.move("kernel", "memento", tables)
            self.stats.add("table_pages_live", -tables)
        for core_id in state.walker_cores:
            self.machine.cores[core_id].tlb.invalidate_pages(vpns)
        remote = len(state.walker_cores - {core.core_id})
        free_cycles = freed * costs.hw_arena_free_per_page
        shootdown_cycles = remote * costs.tlb_shootdown
        core.charge(free_cycles + shootdown_cycles, "hw_page")
        if self._p_arena_free is not None:
            self._p_arena_free.add(free_cycles)
            if remote:
                self._p_shootdown.count += remote
                self._p_shootdown.cycles += shootdown_cycles
        owner = state.owner_thread(size_class, va)
        state.free_spans.setdefault((owner, size_class), []).append(va)
        self.stats.add("arenas_freed")
        self.stats.add("arena_pages_freed", freed)
        return freed

    # -- teardown ------------------------------------------------------------------

    def release_process(self, core: "Core", process: "Process") -> int:
        """Batch-release every arena page of an exiting process.

        The hardware walks the Memento page table once, returning all leaf
        frames to the pool; this is the low-latency batch free of §1.
        Returns pages released.
        """
        costs = self.machine.costs
        state = self._states.pop(process.pid, None)
        if state is None:
            return 0
        leaf_pfns, _interior = state.page_table.clear()
        self.pool.extend(leaf_pfns)
        if leaf_pfns:
            self.machine.frames.move("user", "memento", len(leaf_pfns))
        # clear() already routed interior node frames through
        # _free_table_page; release_root() sends the root back the same
        # way, keeping table_pages and the pool ledger in lockstep
        # (audit rule: pool-balance) instead of split-brain manual
        # accounting here.
        state.page_table.release_root()
        for core_id in state.walker_cores:
            self.machine.cores[core_id].tlb.flush()
        core.charge(
            len(leaf_pfns) * costs.hw_arena_free_per_page // 4, "hw_page"
        )
        self.stats.add("process_released_pages", len(leaf_pfns))
        return len(leaf_pfns)

    def return_pool_to_os(self, core: "Core") -> int:
        """Give pool pages back to the kernel (e.g. machine teardown)."""
        returned = len(self.pool)
        self.kernel.buddy.free_pages(self.pool)
        if returned:
            self.machine.frames.credit("memento", returned)
        self.pool.clear()
        core.charge(self.machine.costs.syscall_entry_exit, "kernel_page")
        return returned
