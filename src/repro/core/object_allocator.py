"""The hardware object allocator: the Fig. 6 state machines.

Allocation and free execute against the HOT-resident arena header of the
request's size class. Hits complete in two cycles. Misses perform header
write-back, list surgery, header fetches from the cache hierarchy, and —
when no available arena exists — an arena request to the hardware page
allocator. The eager-refill optimization starts that work when the last
free object of the resident arena is taken, hiding the miss latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.arena import ArenaHeader, HEADER_BYTES
from repro.core.config import MementoConfig
from repro.core.errors import MementoDoubleFreeError
from repro.core.hot import HardwareObjectTable
from repro.core.lists import ArenaList
from repro.core.region import MementoRegion
from repro.obs.instruments import current as current_instruments
from repro.sim.params import LINE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.page_allocator import HardwarePageAllocator
    from repro.kernel.process import Process
    from repro.sim.machine import Core


class HardwareObjectAllocator:
    """Per-core object allocator bound to one process's Memento region."""

    def __init__(
        self,
        core: "Core",
        process: "Process",
        region: MementoRegion,
        page_allocator: "HardwarePageAllocator",
        config: MementoConfig,
        thread_id: int = 0,
    ) -> None:
        self.core = core
        self.process = process
        self.thread_id = thread_id
        self.region = region
        self.page_allocator = page_allocator
        self.config = config
        self.machine = core.machine
        self.costs = self.machine.costs
        stats = self.machine.stats
        self.stats = stats.scoped("memento.obj")
        self.hot = HardwareObjectTable(config, stats.scoped("memento.hot"))
        self.available: List[ArenaList] = [
            ArenaList("available", stats.scoped("memento.list.available"))
            for _ in range(config.num_size_classes)
        ]
        self.full: List[ArenaList] = [
            ArenaList("full", stats.scoped("memento.list.full"))
            for _ in range(config.num_size_classes)
        ]
        #: The in-memory view of every live arena header, keyed by base VA.
        self.headers: Dict[int, ArenaHeader] = {}
        #: Arena refills already started by the eager-refill optimization.
        self._refill_hidden: Dict[int, bool] = {}
        # Hot-path hoists: obj-alloc/obj-free run once per trace Alloc/Free
        # event, so the region geometry, HOT entry array, fixed cycle
        # charges, and counter cells are all bound here once.
        self._mrs = region.mrs
        self._mre = region.mre
        self._per_class = region.per_class_bytes
        self._spans = region.spans
        self._hot_entries = self.hot.entries
        self._hot_alloc_hits = self.hot._alloc_hits
        self._hot_alloc_misses = self.hot._alloc_misses
        self._hot_free_hits = self.hot._free_hits
        self._hot_free_misses = self.hot._free_misses
        self._base_cycles = self.costs.isa_issue + self.costs.hot_hit
        self._small_threshold = config.small_threshold
        self._eager_refill = config.eager_refill
        self._hw_alloc_cell = core.cycle_counter("hw_alloc")
        self._hw_free_cell = core.cycle_counter("hw_free")
        self._allocs_cell = self.stats.counter("allocs")
        self._frees_cell = self.stats.counter("frees")
        self._hidden_cell = self.stats.counter("hidden_miss_cycles")
        # Cycle-attribution cells, bound at construction: disabled costs
        # one None test per obj-alloc/obj-free; the cells never charge
        # cycles.
        profile = current_instruments().profile
        if profile is None:
            self._p_alloc_hit = None
            self._p_alloc_miss = None
            self._p_free_hit = None
            self._p_free_miss = None
            self._h_alloc = None
            self._h_free = None
        else:
            self._p_alloc_hit = profile.cell("hot.alloc_hit")
            self._p_alloc_miss = profile.cell("hot.alloc_miss")
            self._p_free_hit = profile.cell("hot.free_hit")
            self._p_free_miss = profile.cell("hot.free_miss")
            self._h_alloc = profile.hist("op.alloc")
            self._h_free = profile.hist("op.free")

    # -- obj-alloc (Fig. 6 steps 5-9) ----------------------------------------

    def obj_alloc(self, size: int) -> int:
        """Execute obj-alloc: returns the allocated virtual address."""
        if not 0 < size <= self._small_threshold:
            raise ValueError(
                f"obj-alloc size {size} outside (0, "
                f"{self.config.small_threshold}]"
            )
        size_class = (size + 7) // 8 - 1
        cycles = self._base_cycles
        header = self._hot_entries[size_class].header

        if header is not None and header.bitmap != header.full_mask:
            self._hot_alloc_hits.pending += 1
            if self._p_alloc_hit is not None:
                self._p_alloc_hit.add(cycles)
        else:
            miss_cycles = self._switch_arena(size_class)
            header = self._hot_entries[size_class].header
            if self._refill_hidden.pop(size_class, False):
                # The eager refill already completed this work off the
                # critical path; only the HOT access itself is paid.
                self._hidden_cell.pending += miss_cycles
            else:
                cycles += miss_cycles
            self._hot_alloc_misses.pending += 1
            if self._p_alloc_miss is not None:
                self._p_alloc_miss.add(cycles)

        # Priority-encoder scan + bitmap set, fused (find_free_slot +
        # set_slot; the arena is guaranteed non-full here).
        inverted = ~header.bitmap & header.full_mask
        bit = inverted & -inverted
        header.bitmap |= bit
        if not inverted - bit and self._eager_refill:
            # That was the last free object: start loading/requesting the
            # next arena now so the coming miss is already satisfied (§3.1).
            self._refill_hidden[size_class] = True
        core = self.core
        core.cycles += cycles
        self._hw_alloc_cell.pending += cycles
        self._allocs_cell.pending += 1
        if self._h_alloc is not None:
            self._h_alloc.record(cycles)
        return (
            header.va
            + HEADER_BYTES
            + (bit.bit_length() - 1)
            * (header.obj_size or self.config.object_size(size_class))
        )

    def _switch_arena(self, size_class: int) -> int:
        """Replace the resident arena of ``size_class``; returns cycles.

        Covers Fig. 6 steps 8 (load from the available list) and 9 (no
        valid arena — request a new one from the page allocator).
        """
        cycles = 0
        available = self.available[size_class]
        if available:
            header = available.pop_head()
            cycles += self.costs.hot_miss_header_fetch
            cycles += self.costs.list_op  # available-head update
        else:
            header = self._request_arena(size_class)
            cycles += self.costs.arena_request
        replaced = self.hot.fill(size_class, header)
        if replaced is not None:
            cycles += self.costs.hot_writeback
            self._writeback_header(replaced)
            target = (
                self.full[size_class]
                if replaced.is_full
                else self.available[size_class]
            )
            cycles += self.costs.list_op * target.push_head(replaced)
        return cycles

    def _request_arena(self, size_class: int) -> ArenaHeader:
        """Fig. 6 steps 1-4: new arena from the page allocator, header
        initialized and instantiated in the cache (never fetched from
        DRAM — its contents are new)."""
        va, header_pfn = self.page_allocator.alloc_arena(
            self.core, self.process, size_class, self.thread_id
        )
        header = ArenaHeader(
            va=va,
            size_class=size_class,
            pa=header_pfn << 12,
            objects=self.config.objects_per_arena,
            obj_size=self.config.object_size(size_class),
        )
        self.headers[va] = header
        self.core.caches.instantiate(header.pa, write=True)
        self.stats.add("arenas_initialized")
        return header

    # -- obj-free (Fig. 6 steps 10-13) ------------------------------------------

    def obj_free(self, addr: int, header: Optional[ArenaHeader] = None) -> None:
        """Execute obj-free for an in-region address.

        Callers that already hold the covering header (the runtime resolves
        it for the bypass hook anyway) may pass it to skip re-deriving the
        arena base — the derived values are identical by construction.
        """
        core = self.core
        if header is not None:
            size_class = header.size_class
            arena_base = header.va
        else:
            offset = addr - self._mrs
            if offset < 0 or addr >= self._mre:
                raise ValueError(
                    f"{addr:#x} is outside the Memento region"
                )
            size_class = offset // self._per_class
            class_offset = offset - size_class * self._per_class
            arena_base = addr - class_offset % self._spans[size_class]
        cycles = self._base_cycles
        resident = self._hot_entries[size_class].header

        if resident is not None and resident.va == arena_base:
            header = resident
            self._hot_free_hits.pending += 1
            # Inlined _clear_checked: recover the slot index and clear its
            # bitmap bit, validating the operand like the hardware does.
            offset = addr - arena_base - HEADER_BYTES
            obj_size = header.obj_size or self.config.object_size(size_class)
            if offset < 0 or offset % obj_size:
                raise ValueError(f"{addr:#x} is not an object boundary")
            index = offset // obj_size
            if index >= header.objects:
                raise ValueError(f"object index {index} out of range")
            mask = 1 << index
            if not header.bitmap & mask:
                raise MementoDoubleFreeError(
                    f"double free of {addr:#x} (arena {header.va:#x} slot "
                    f"{index})"
                )
            header.bitmap &= ~mask
            if self._p_free_hit is not None:
                self._p_free_hit.add(cycles)
        else:
            self._hot_free_misses.pending += 1
            header = self.headers.get(arena_base)
            if header is None:
                raise MementoDoubleFreeError(
                    f"{addr:#x} does not belong to a live arena"
                )
            # Translate the arena base (TLB first, marked walk on a miss)
            # and fetch the header line from the hierarchy.
            vpn = arena_base >> 12
            pfn = core.tlb.lookup(vpn)
            if pfn is None:
                pfn = self.page_allocator.handle_walk(
                    core, self.process, arena_base
                )
                core.tlb.insert(vpn, pfn)
            result = core.caches.access_line(
                (pfn << 12 | (arena_base & 0xFFF)) >> LINE_SHIFT, write=True
            )
            cycles += result.cycles
            was_full = header.is_full
            self._clear_checked(header, addr)
            if was_full:
                # Move full -> available (head insert), Fig. 6 step 13.
                cycles += self.costs.list_op * self.full[size_class].remove(
                    header
                )
                cycles += self.costs.list_op * self.available[
                    size_class
                ].push_head(header)
            if header.is_empty:
                cycles += self._release_empty_arena(header)
            if self._p_free_miss is not None:
                self._p_free_miss.add(cycles)
        core.cycles += cycles
        self._hw_free_cell.pending += cycles
        self._frees_cell.pending += 1
        if self._h_free is not None:
            self._h_free.record(cycles)

    def _clear_checked(self, header: ArenaHeader, addr: int) -> None:
        index = header.object_index(addr, self.config)
        if not header.clear_slot(index):
            raise MementoDoubleFreeError(
                f"double free of {addr:#x} (arena {header.va:#x} slot "
                f"{index})"
            )

    def _release_empty_arena(self, header: ArenaHeader) -> int:
        """A non-resident arena lost its last object: return its pages."""
        cycles = 0
        if header.list_name == "available":
            cycles += self.costs.list_op * self.available[
                header.size_class
            ].remove(header)
        elif header.list_name == "full":  # pragma: no cover - empty≠full
            cycles += self.costs.list_op * self.full[
                header.size_class
            ].remove(header)
        del self.headers[header.va]
        self.page_allocator.free_arena(
            self.core, self.process, header.va, header.size_class
        )
        self.stats.add("arenas_released")
        return cycles

    # -- write-back / flush -----------------------------------------------------

    def _writeback_header(self, header: ArenaHeader) -> None:
        """Replaced HOT entries are written back to their memory location
        using the entry's PA field (§3.1)."""
        self.core.caches.access_line(header.pa >> LINE_SHIFT, write=True)

    def flush_for_switch(self, core: "Core") -> int:
        """Context switch: write back and drop every valid HOT entry.

        Resident arenas return to the appropriate per-class list so a
        later switch-in finds them through memory. Returns the number of
        entries flushed (the kernel charges the per-entry cost, §6.6).
        """
        flushed = 0
        for size_class in range(self.config.num_size_classes):
            entry = self.hot.lookup(size_class)
            if not entry.valid:
                continue
            header = entry.header
            self._writeback_header(header)
            target = (
                self.full[size_class]
                if header.is_full
                else self.available[size_class]
            )
            target.push_head(header)
            flushed += 1
        self.hot.flush()
        self._refill_hidden.clear()
        return flushed

    # -- introspection ------------------------------------------------------------

    def header_of(self, addr: int) -> Optional[ArenaHeader]:
        """The live arena header covering ``addr`` (bypass engine hook).

        Runs once per touched object and per routed free, so the region
        arithmetic is inlined against the hoisted geometry.
        """
        offset = addr - self._mrs
        if offset < 0 or addr >= self._mre:
            return None
        size_class = offset // self._per_class
        class_offset = offset - size_class * self._per_class
        arena_base = addr - class_offset % self._spans[size_class]
        header = self.headers.get(arena_base)
        if header is None or addr < arena_base + HEADER_BYTES:
            return None  # unknown arena, or the header line itself
        return header

    def occupancy_fraction(self, include_empty: bool = False) -> float:
        """Allocated fraction of live arena slots (fragmentation probe).

        By default empty arenas (resident-but-idle size classes) are
        excluded: the §6.6 fragmentation metric asks how densely the
        memory actively given to the HOT is used.
        """
        capacity = used = 0
        for header in self.headers.values():
            if header.is_empty and not include_empty:
                continue
            capacity += header.objects
            used += header.live_objects
        return used / capacity if capacity else 1.0

    @property
    def live_arenas(self) -> int:
        return len(self.headers)
