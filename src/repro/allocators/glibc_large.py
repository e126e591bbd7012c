"""Large-allocation path (glibc-style).

Requests above 512 B are "directly serviced by malloc in glibc, which
eventually calls mmap as well" (§2.1). The model keeps per-request mmap for
huge blocks and a coarse free-list heap for mid-sized blocks, which is
enough to produce the syscall/fault behaviour large allocations cause.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.allocators.base import Allocation, SoftwareAllocator, align8
from repro.sim.params import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Core

#: Above this, glibc mmaps the request directly (M_MMAP_THRESHOLD).
MMAP_THRESHOLD = 128 * 1024

#: Heap chunks are grown in this granularity for mid-sized requests.
HEAP_CHUNK = 1024 * 1024


class LargeAllocator(SoftwareAllocator):
    """Mid/huge allocation path shared by every language runtime."""

    language = "cpp"
    name = "glibc_large"

    def __init__(self, kernel, process, touch=None) -> None:
        super().__init__(kernel, process, touch)
        self._bins: Dict[int, List[int]] = {}  # rounded size -> free addrs
        self._heap_top = 0
        self._heap_end = 0
        self._huge: Dict[int, int] = {}  # addr -> mapped length
        self._bind_fast_paths(self._malloc_small, self._free_small)

    def _malloc_small(self, core: "Core", size: int) -> Allocation:
        """Any size is accepted here — 'small' routing never recurses."""
        rounded = self._round(size)
        if rounded >= MMAP_THRESHOLD:
            addr = self._mmap(core, rounded)
            self._huge[addr] = rounded
            self._charge_alloc(core, self.costs.alloc_slow, fast=False)
            return Allocation(addr, size, -1)
        free_list = self._bins.get(rounded)
        if free_list:
            addr = free_list.pop()
            self._charge_alloc(core, self.costs.alloc_fast, fast=True)
            return Allocation(addr, size, -1)
        if self._heap_top + rounded > self._heap_end:
            base = self._mmap(core, max(HEAP_CHUNK, rounded))
            self._heap_top = base
            self._heap_end = base + max(HEAP_CHUNK, rounded)
        addr = self._heap_top
        self._heap_top += rounded
        self._charge_alloc(core, self.costs.alloc_fast * 2, fast=True)
        return Allocation(addr, size, -1)

    def _free_small(self, core: "Core", allocation: Allocation) -> None:
        if allocation.addr in self._huge:
            del self._huge[allocation.addr]
            self._munmap(core, allocation.addr)
            self._charge_free(core, self.costs.free_slow, fast=False)
            return
        rounded = self._round(allocation.size)
        self._bins.setdefault(rounded, []).append(allocation.addr)
        self._charge_free(core, self.costs.free_fast, fast=True)

    @staticmethod
    def _round(size: int) -> int:
        """Round to 64 B below a page, to whole pages above."""
        aligned = align8(size)
        if aligned < PAGE_SIZE:
            return (aligned + 63) & ~63
        return -(-aligned // PAGE_SIZE) * PAGE_SIZE
