"""Process model: address space, page table, and per-process accounting.

Serverless functions run one process per container instance. The process
owns its VMA set and page table; page frames it consumes are charged to the
machine's frame ledger as ``user`` (heap data) or ``kernel`` (page tables
and VMA metadata), the split Fig. 11 reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.kernel.page_table import PageTable
from repro.kernel.vma import VmaManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import MementoProcessContext
    from repro.kernel.kernel import Kernel


class Process:
    """One simulated process (function instance / platform daemon)."""

    def __init__(self, pid: int, kernel: "Kernel") -> None:
        self.pid = pid
        self.kernel = kernel
        # Each process gets a 1 TB mmap window; bases stay canonical for
        # hundreds of pids.
        self.vmas = VmaManager(mmap_base=0x6000_0000_0000 + pid * (1 << 40))
        self.page_table = PageTable(
            alloc_table_page=kernel.alloc_kernel_page,
            free_table_page=kernel.free_kernel_page,
        )
        #: Attached by the Memento runtime when the OS reserves a Memento
        #: region for this process (§3.2); None on the baseline.
        self.memento: Optional["MementoProcessContext"] = None
        self.user_pages_live = 0
        self.user_pages_aggregate = 0
        self.exited = False

    def charge_user_page(self, pages: int = 1) -> None:
        """Account heap pages faulted in for this process."""
        self.user_pages_live += pages
        self.user_pages_aggregate += pages
        self.kernel.machine.frames.charge("user", pages)

    def credit_user_page(self, pages: int = 1) -> None:
        self.user_pages_live -= pages
        self.kernel.machine.frames.credit("user", pages)

    def kernel_pages_aggregate(self) -> int:
        """Aggregate kernel pages for Fig. 11.

        Page-table pages are counted through the frame ledger as they are
        created; VMA metadata is derived from the aggregate VMA count.
        """
        return self.page_table.table_pages + self.vmas.aggregate_metadata_pages()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, user_pages={self.user_pages_live})"
