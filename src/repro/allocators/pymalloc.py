"""Behavioral model of CPython's pymalloc (§2.1).

The allocator requests memory from the OS in 256 KB arenas, splits them
into 4 KB pools, and serves each pool to a single 8-byte size class with an
intra-pool free list. Frees return objects to their pool; entirely-free
pools go back to the free-pool list; entirely-free arenas are munmapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.allocators.base import (
    Allocation,
    AllocationError,
    SoftwareAllocator,
    size_class_index,
)
from repro.sim.params import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Core

ARENA_BYTES = 256 * 1024
POOL_BYTES = PAGE_SIZE  # 4 KB pools


@dataclass
class Pool:
    """One 4 KB pool serving a single size class."""

    base: int
    arena_base: int
    size_class: int = -1  # -1 while on the free-pool list
    capacity: int = 0
    free_offsets: List[int] = field(default_factory=list)
    allocated: Set[int] = field(default_factory=set)

    def assign(self, size_class: int) -> None:
        """Dedicate this pool to ``size_class`` and build its free list."""
        object_size = (size_class + 1) * 8
        self.size_class = size_class
        self.capacity = POOL_BYTES // object_size
        self.free_offsets = [
            index * object_size
            for index in range(self.capacity - 1, -1, -1)
        ]
        self.allocated = set()

    @property
    def is_full(self) -> bool:
        return not self.free_offsets

    @property
    def is_empty(self) -> bool:
        return not self.allocated


@dataclass
class Arena:
    """One 256 KB mmap'd arena carved into pools."""

    base: int
    pools: List[Pool] = field(default_factory=list)
    free_pools: List[Pool] = field(default_factory=list)

    @property
    def free_pool_count(self) -> int:
        return len(self.free_pools)

    @property
    def fully_free(self) -> bool:
        return self.free_pool_count == len(self.pools)


class PymallocAllocator(SoftwareAllocator):
    """CPython 3.8-style small-object allocator."""

    language = "python"
    name = "pymalloc"

    def __init__(
        self, kernel, process, touch=None, arena_bytes: int = ARENA_BYTES
    ) -> None:
        super().__init__(kernel, process, touch)
        self.arena_bytes = arena_bytes
        self.arenas: Dict[int, Arena] = {}
        # usedpools: size class -> pools with at least one free object.
        self.used_pools: Dict[int, List[Pool]] = {}
        self._pool_of: Dict[int, Pool] = {}  # pool base -> Pool
        self._bind_fast_paths(
            self._make_malloc_small(), self._make_free_small()
        )

    # -- allocation (Fig. 1 steps 1-4) --------------------------------------

    def _make_malloc_small(self):
        used_pools = self.used_pools
        usable_pool = self._usable_pool
        c_alloc = self._c_alloc_fast
        ua_cycles = self._ua_cycles
        alloc_fast = self._alloc_fast
        touch = self.touch

        def _malloc_small(core, size):
            aligned = (size + 7) & ~7
            if size <= 0 or aligned > 512:
                size_class_index(size)  # raises with the canonical message
            size_class = aligned // 8 - 1
            # Fast path of _usable_pool, inlined: a used pool already exists.
            pools = used_pools.get(size_class)
            if pools:
                pool = pools[0]
            else:
                pool = usable_pool(core, size_class)
            offset = pool.free_offsets.pop()
            pool.allocated.add(offset)
            addr = pool.base + offset
            if not pool.free_offsets:
                # Step off the usedpools list; it returns on the next free.
                used_pools[size_class].remove(pool)
            core.cycles += c_alloc
            ua_cycles.pending += c_alloc
            alloc_fast.pending += 1
            # Free-list head update touches the pool header line.
            touch(core, pool.base, True, "user_alloc")
            return Allocation(addr, size, size_class)

        return _malloc_small

    def _usable_pool(self, core: "Core", size_class: int) -> Pool:
        """Steps 2-4: used pool → free pool → new arena from mmap.

        Free pools are taken from the most-utilized arena (fewest free
        pools), CPython's usable_arenas policy: it consolidates usage so
        lightly-used arenas can drain empty and be returned to the OS.
        """
        pools = self.used_pools.setdefault(size_class, [])
        if pools:
            return pools[0]
        donor = self._most_utilized_arena()
        if donor is None:
            self._grow_arena(core)
            donor = self._most_utilized_arena()
        pool = donor.free_pools.pop()
        pool.assign(size_class)
        pools.append(pool)
        self._charge_alloc(core, self.costs.alloc_slow, fast=False)
        return pool

    def _most_utilized_arena(self) -> Optional[Arena]:
        """The arena with the fewest (but nonzero) free pools."""
        best = None
        for arena in self.arenas.values():
            if not arena.free_pools:
                continue
            if best is None or arena.free_pool_count < best.free_pool_count:
                best = arena
        return best

    def _grow_arena(self, core: "Core") -> None:
        base = self._mmap(core, self.arena_bytes)
        arena = Arena(base)
        for pool_index in range(self.arena_bytes // POOL_BYTES):
            pool = Pool(base + pool_index * POOL_BYTES, arena_base=base)
            arena.pools.append(pool)
            arena.free_pools.append(pool)
            self._pool_of[pool.base] = pool
        self.arenas[base] = arena
        self.stats.add("arenas_mapped")

    # -- free (Fig. 1 step 5) -------------------------------------------------

    def _make_free_small(self):
        pool_of = self._pool_of
        used_pools = self.used_pools
        retire_pool = self._retire_pool
        c_free = self._c_free_fast
        uf_cycles = self._uf_cycles
        free_fast = self._free_fast
        touch = self.touch
        pool_mask = ~(POOL_BYTES - 1)

        def _free_small(core, allocation):
            addr = allocation.addr
            pool = pool_of.get(addr & pool_mask)
            if pool is None or pool.size_class != allocation.size_class:
                raise AllocationError(
                    f"{addr:#x} does not belong to a live pool"
                )
            offset = addr - pool.base
            was_full = not pool.free_offsets
            pool.allocated.remove(offset)
            pool.free_offsets.append(offset)
            core.cycles += c_free
            uf_cycles.pending += c_free
            free_fast.pending += 1
            touch(core, pool.base, True, "user_free")
            if was_full:
                used_pools[pool.size_class].append(pool)
            if not pool.allocated:
                retire_pool(core, pool)

        return _free_small

    def _retire_pool(self, core: "Core", pool: Pool) -> None:
        """Return an empty pool to its arena; munmap empty arenas."""
        self.used_pools[pool.size_class].remove(pool)
        pool.size_class = -1
        arena = self.arenas[pool.arena_base]
        arena.free_pools.append(pool)
        self._charge_free(core, self.costs.free_slow, fast=False)
        if arena.fully_free:
            self._release_arena(core, arena)

    def _release_arena(self, core: "Core", arena: Arena) -> None:
        for pool in arena.pools:
            del self._pool_of[pool.base]
        del self.arenas[arena.base]
        self._munmap(core, arena.base)
        self.stats.add("arenas_unmapped")

    # -- introspection ---------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of pool slots currently allocated (fragmentation probe)."""
        capacity = used = 0
        for pool in self._pool_of.values():
            if pool.size_class >= 0:
                capacity += pool.capacity
                used += len(pool.allocated)
        return used / capacity if capacity else 1.0
