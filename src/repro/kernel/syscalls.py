"""The mmap/munmap system-call interface (§2.1).

``mmap`` reserves virtual addresses and VMA metadata without physical
backing (unless MAP_POPULATE). ``munmap`` tears down the VMA, walks the
covered PTEs, frees physical pages, and releases emptied page-table pages.
Both charge the syscall entry/exit cost plus the kernel work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.params import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.sim.machine import Core


class SyscallInterface:
    """Kernel entry points used by the userspace allocators."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.stats = kernel.machine.stats.scoped("kernel.syscall")

    def mmap(
        self,
        core: "Core",
        process: "Process",
        length: int,
        populate: bool = False,
    ) -> int:
        """Reserve ``length`` bytes of anonymous memory; return the base.

        With ``populate`` (MAP_POPULATE, §6.6) every page is faulted in
        eagerly inside the call, trading syscall-time work and footprint
        for the absence of later faults.
        """
        costs = self.kernel.machine.costs
        vma = process.vmas.reserve(length, populate)
        core.charge(costs.syscall_entry_exit + costs.mmap_base, "kernel_page")
        self.stats.add("mmap_calls")
        self.stats.add("mmap_bytes", vma.end - vma.start)
        self.kernel.machine.dram.record_bulk_bytes(512, write=False)
        if populate:
            self._populate(core, process, vma)
        return vma.start

    def _populate(self, core: "Core", process: "Process", vma) -> None:
        """MAP_POPULATE batch backing (§6.6): a tight kernel loop maps and
        clears every page with no per-page trap — far cheaper per page
        than a fault, but it backs pages that may never be used."""
        costs = self.kernel.machine.costs
        self.kernel.back_range(process, vma.start >> PAGE_SHIFT, vma.pages)
        core.charge(vma.pages * costs.populate_per_page, "kernel_page")
        # Zeroing streams through non-temporal stores straight to DRAM.
        self.kernel.machine.dram.record_bulk_bytes(
            vma.pages * PAGE_SIZE, write=True
        )
        self.stats.add("populated_pages", vma.pages)

    def madvise_dontneed(
        self, core: "Core", process: "Process", addr: int, length: int
    ) -> int:
        """MADV_DONTNEED over ``[addr, addr+length)``: drop physical backing
        but keep the VMA. Next access refaults. This is how allocator decay
        purging (jemalloc) returns memory to the OS; returns pages dropped.
        """
        costs = self.kernel.machine.costs
        cycles = costs.syscall_entry_exit + costs.munmap_base // 2
        vpns = self.kernel.release_range(
            process, addr >> PAGE_SHIFT, -(-length // PAGE_SIZE)
        )
        dropped = len(vpns)
        core.tlb.invalidate_pages(vpns)
        cycles += dropped * (costs.munmap_per_page + costs.buddy_free)
        core.charge(cycles, "kernel_page")
        self.stats.add("madvise_calls")
        self.stats.add("madvise_pages", dropped)
        return dropped

    def munmap(self, core: "Core", process: "Process", addr: int) -> None:
        """Unmap the mapping that starts at ``addr``.

        Walks the PTEs of the range, frees backed pages to the buddy
        allocator, and releases page-table pages emptied by the teardown.
        """
        costs = self.kernel.machine.costs
        vma = process.vmas.remove(addr)
        cycles = costs.syscall_entry_exit + costs.munmap_base
        vpns = self.kernel.release_range(
            process, vma.start >> PAGE_SHIFT, vma.pages
        )
        freed_pages = len(vpns)
        core.tlb.invalidate_pages(vpns)
        cycles += freed_pages * (costs.munmap_per_page + costs.buddy_free)
        core.charge(cycles, "kernel_page")
        self.stats.add("munmap_calls")
        self.stats.add("munmap_pages", freed_pages)
        self.kernel.machine.dram.record_bulk_bytes(
            256 + 64 * freed_pages, write=False
        )
