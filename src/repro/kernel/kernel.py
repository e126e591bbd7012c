"""The kernel facade: physical memory, processes, syscalls, faults.

Owns the buddy allocator over the machine's frame space and wires together
the syscall interface, the fault handler, and process lifecycle (creation,
context switch, exit-time batch teardown — the path that frees the
"long-lived" allocations of Fig. 3 when a function exits).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kernel.buddy import BuddyAllocator
from repro.kernel.fault import PageFaultHandler
from repro.kernel.process import Process
from repro.kernel.syscalls import SyscallInterface
from repro.obs.instruments import current as current_instruments
from repro.sim.machine import Core, Machine


class Kernel:
    """OS substrate bound to one :class:`~repro.sim.machine.Machine`."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.buddy = BuddyAllocator(
            base=0,
            total_frames=machine.frames.total_frames,
            stats=machine.stats,
        )
        self.syscalls = SyscallInterface(self)
        self.fault_handler = PageFaultHandler(self)
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._running: Optional[Process] = None
        self.stats = machine.stats.scoped("kernel")
        # Cycle-attribution cells, bound at construction (obs/profile.py).
        profile = current_instruments().profile
        if profile is None:
            self._p_switch = None
            self._p_walk = None
            self._h_walk = None
        else:
            self._p_switch = profile.cell("kernel.switch")
            self._p_walk = profile.cell("walk.page_walk")
            self._h_walk = profile.hist("op.page_walk")

    # -- frame helpers for page tables ------------------------------------

    def alloc_kernel_page(self) -> int:
        """Allocate one frame for kernel metadata (page-table pages)."""
        pfn = self.buddy.alloc(0)
        self.machine.frames.charge("kernel")
        return pfn

    def free_kernel_page(self, pfn: int) -> None:
        self.buddy.free(pfn)
        self.machine.frames.credit("kernel")

    # -- process lifecycle -------------------------------------------------

    def create_process(self) -> Process:
        """Create a process (one page-table root is charged immediately)."""
        process = Process(self._next_pid, self)
        self.processes[process.pid] = process
        self._next_pid += 1
        self.stats.add("processes_created")
        return process

    def context_switch(self, core: Core, to: Process) -> None:
        """Switch ``core`` to ``to``: direct cost + TLB flush (+ HOT flush
        cost if the outgoing process used Memento, per §6.6)."""
        costs = self.machine.costs
        cycles = costs.context_switch
        outgoing = self._running
        if outgoing is not None and outgoing.memento is not None:
            allocator = outgoing.memento.object_allocator
            flushed = allocator.flush_for_switch(core)
            cycles += flushed * costs.hot_flush_per_entry
        core.context_switch_flush()
        core.charge(cycles, "kernel_other")
        if self._p_switch is not None:
            self._p_switch.add(cycles)
        self._running = to
        self.stats.add("context_switches")

    def exit_process(self, core: Core, process: Process) -> None:
        """Tear down a process at function exit.

        The OS batch-frees everything still mapped: user pages, page
        tables, VMAs, and (with Memento) notifies the hardware page
        allocator to release its arenas and pool pages.
        """
        if process.exited:
            raise ValueError(f"process {process.pid} already exited")
        costs = self.machine.costs
        freed_pfns, _interior = process.page_table.clear()
        self.buddy.free_pages(freed_pfns)
        if freed_pfns:
            process.credit_user_page(len(freed_pfns))
        cycles = (
            costs.syscall_entry_exit
            + costs.munmap_base
            + len(freed_pfns) * (costs.munmap_per_page + costs.buddy_free)
        )
        core.charge(cycles, "kernel_page")
        if process.memento is not None:
            process.memento.release_all(core)
        process.exited = True
        if self._running is process:
            self._running = None
        self.stats.add("processes_exited")
        self.stats.add("exit_freed_pages", len(freed_pfns))

    # -- page ranges ----------------------------------------------------------

    def back_range(
        self, process: Process, vpn: int, pages: int
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Back every unmapped page of ``[vpn, vpn + pages)`` with a fresh
        frame, charging no cycles.

        The frames and table pages come from the buddy in the order
        backing the pages one at a time would draw them
        (:meth:`PageTable.map_range`). Returns ``map_range``'s
        ``(frames, created)``; callers charge the work their path costs.
        """
        frames, created = process.page_table.map_range(
            vpn, pages, self.buddy.alloc_pages
        )
        if frames:
            process.charge_user_page(len(frames))
        return frames, created

    def release_range(
        self, process: Process, vpn: int, pages: int
    ) -> List[int]:
        """Unmap every backed page of ``[vpn, vpn + pages)``; return the
        frames and emptied table pages to the buddy in one call. Returns
        the pages that were backed, for the caller's TLB shootdown."""
        vpns, released, tables = process.page_table.unmap_range(vpn, pages)
        self.buddy.free_pages(released)
        if vpns:
            process.credit_user_page(len(vpns))
        if tables:
            self.machine.frames.credit("kernel", tables)
        return vpns

    # -- memory access (baseline translation path) --------------------------

    def translate(
        self, core: Core, process: Process, vaddr: int
    ) -> Optional[int]:
        """Kernel-page-table walk for ``vaddr``'s page.

        Charges the walk's memory accesses through the cache hierarchy (one
        per level, hitting for hot upper levels). Returns the frame or None
        if unmapped (caller invokes the fault handler).
        """
        from repro.sim.params import PAGE_SHIFT

        vpn = vaddr >> PAGE_SHIFT
        walk_cycles = 0
        for node_pfn in process.page_table.walk_path(vpn):
            result = core.caches.access_line(node_pfn << 6)
            core.charge(result.cycles, "walk")
            walk_cycles += result.cycles
        if self._p_walk is not None:
            self._p_walk.add(walk_cycles)
            self._h_walk.record(walk_cycles)
        return process.page_table.walk(vpn)
