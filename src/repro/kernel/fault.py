"""Demand-paging page-fault handler (§2.1 steps 6-7).

On a first access to an mmap'd page the hardware raises a fault; the
handler finds the covering VMA, requests a free physical page from the
buddy allocator, zeroes it, and installs the PTE. All of that executes in
the kernel on the function's critical path — the cost Memento's hardware
page allocator removes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.obs.instruments import current as current_instruments
from repro.sim.params import PAGE_SHIFT, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.sim.machine import Core


class PageFaultError(Exception):
    """Access to an address no VMA covers (the process would SIGSEGV)."""


class PageFaultHandler:
    """Kernel page-fault servicing with cycle and traffic accounting."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.stats = kernel.machine.stats.scoped("kernel.fault")
        # Interned cells: the handler runs for every first touch of a page
        # on the baseline stack — one of the hottest kernel-side emitters.
        self._faults = self.stats.counter("faults")
        self._fault_cycles = self.stats.counter("cycles")
        self._spurious = self.stats.counter("spurious")
        self._segv = self.stats.counter("segv")
        # Cycle-attribution cell/histogram, bound at construction (one
        # None test per fault when disabled; see obs/profile.py).
        profile = current_instruments().profile
        if profile is None:
            self._p_fault = None
            self._h_fault = None
        else:
            self._p_fault = profile.cell("kernel.fault")
            self._h_fault = profile.hist("op.page_fault")

    def handle(
        self, core: "Core", process: "Process", vaddr: int
    ) -> int:
        """Service a fault at ``vaddr``; return the newly mapped frame.

        Charges the full kernel path: trap + handler + buddy allocation +
        page zeroing + PTE install. Raises :class:`PageFaultError` for
        addresses outside any VMA.
        """
        costs = self.kernel.machine.costs
        vma = process.vmas.find(vaddr)
        if vma is None:
            self._segv.add()
            raise PageFaultError(f"no VMA covers {vaddr:#x}")

        vpn = vaddr >> PAGE_SHIFT
        existing = process.page_table.walk(vpn)
        if existing is not None:
            # Spurious fault (page already backed, e.g. populated or
            # raced): the handler returns after the lookup.
            spurious_cycles = costs.page_fault // 4
            core.charge(spurious_cycles, "kernel_page")
            if self._p_fault is not None:
                self._p_fault.add(spurious_cycles)
                self._h_fault.record(spurious_cycles)
            self._spurious.add()
            return existing
        pfn = self.kernel.buddy.alloc(0)
        process.charge_user_page()
        created_tables = process.page_table.map(vpn, pfn)

        cycles = (
            costs.page_fault
            + costs.buddy_alloc
            + costs.page_zero
            + created_tables * costs.buddy_alloc
        )
        core.charge(cycles, "kernel_page")
        if self._p_fault is not None:
            self._p_fault.add(cycles)
            self._h_fault.record(cycles)
        self._faults.add()
        self._fault_cycles.add(cycles)
        # Zeroing the fresh page writes its 64 lines through the caches;
        # the faulting access then hits warm lines, and the zeroes reach
        # DRAM later as dirty evictions.
        core.caches.zero_fill_page(pfn << PAGE_SHIFT)
        # Handler instruction/data footprint reaches DRAM for short-lived
        # processes whose kernel paths are cold.
        self.kernel.machine.dram.record_bulk_bytes(1024, write=False)
        return pfn

    def handle_range(
        self, core: "Core", process: "Process", vaddr: int, pages: int
    ) -> List[int]:
        """Service first-touch faults on ``pages`` pages from ``vaddr`` up,
        as that many :meth:`handle` calls in address order would; return
        the newly mapped frames.

        The frames and table pages come from one
        :meth:`~repro.kernel.kernel.Kernel.back_range`; the pages are
        then zeroed in the same order by one
        :meth:`~repro.sim.cache.CacheHierarchy.zero_fill_pages`, and
        nothing touches the caches in between, so the cache state and
        every counter end up as page-at-a-time faults leave them. Already backed pages
        cost a spurious fault. Raises :class:`PageFaultError`, backing
        nothing, unless one VMA covers the whole range.
        """
        if pages <= 0:
            return []
        costs = self.kernel.machine.costs
        vma = process.vmas.find(vaddr)
        if vma is None or vaddr + pages * PAGE_SIZE > vma.end:
            self._segv.add()
            raise PageFaultError(
                f"no VMA covers {vaddr:#x} + {pages} pages"
            )
        frames, created = self.kernel.back_range(
            process, vaddr >> PAGE_SHIFT, pages
        )
        spurious = pages - len(frames)
        spurious_cycles = costs.page_fault // 4
        per_page = costs.page_fault + costs.buddy_alloc + costs.page_zero
        tables = sum(built for _, built in created)
        fault_cycles = len(frames) * per_page + tables * costs.buddy_alloc
        core.charge(fault_cycles + spurious * spurious_cycles, "kernel_page")
        if self._p_fault is not None:
            # One sample per page at that page's own cost; the first page
            # of a new leaf table carries the table pages it built.
            cell, hist = self._p_fault, self._h_fault
            cell.count += pages
            cell.cycles += fault_cycles + spurious * spurious_cycles
            hist.record(spurious_cycles, spurious)
            hist.record(per_page, len(frames) - len(created))
            for _, built in created:
                hist.record(per_page + built * costs.buddy_alloc)
        self._faults.pending += len(frames)
        self._fault_cycles.pending += fault_cycles
        self._spurious.pending += spurious
        core.caches.zero_fill_pages(frames)
        self.kernel.machine.dram.record_bulk_bytes(
            1024 * len(frames), write=False
        )
        return frames
