"""Physical frame space: capacity and per-category usage ledger.

Fig. 11 of the paper reports *aggregate* memory usage — the total number of
physical pages allocated during execution — split into userspace and kernel
pages. The ledger tracks both live usage and the aggregate (monotonic) count
per category so the harness can reproduce that figure, while the buddy
allocator owns the actual frame numbers.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.params import MachineParams, PAGE_SIZE


class FrameSpace:
    """Capacity bookkeeping for physical memory.

    Categories in use:

    * ``user``     — pages backing application heap data
    * ``kernel``   — page tables, VMA metadata, and other kernel bookkeeping
    * ``memento``  — pages held in Memento's free page pool (not yet given
      to an arena; arena pages are charged to ``user`` when handed out)
    """

    def __init__(self, params: MachineParams) -> None:
        self.total_frames = params.dram_gb * (1 << 30) // PAGE_SIZE
        self._live: Dict[str, int] = {}
        self._aggregate: Dict[str, int] = {}
        self._peak: Dict[str, int] = {}

    def charge(self, category: str, pages: int = 1) -> None:
        """Record ``pages`` newly allocated under ``category``."""
        if pages < 0:
            raise ValueError("pages must be non-negative")
        live = self._live.get(category, 0) + pages
        self._live[category] = live
        self._aggregate[category] = self._aggregate.get(category, 0) + pages
        if live > self._peak.get(category, 0):
            self._peak[category] = live
        if self.live_total > self.total_frames:
            raise MemoryError(
                f"physical memory exhausted: {self.live_total} frames live"
            )

    def credit(self, category: str, pages: int = 1) -> None:
        """Record ``pages`` freed from ``category``."""
        live = self._live.get(category, 0) - pages
        if live < 0:
            raise ValueError(
                f"freeing more {category} pages than were allocated"
            )
        self._live[category] = live

    def move(self, src: str, dst: str, pages: int = 1) -> None:
        """Re-categorize live pages (e.g. pool page handed to an arena).

        Unlike credit+charge, a move does not inflate the aggregate count of
        ``dst`` — the page was already counted when first allocated.
        """
        self.credit(src, pages)
        live = self._live.get(dst, 0) + pages
        self._live[dst] = live
        if live > self._peak.get(dst, 0):
            self._peak[dst] = live

    def live(self, category: str) -> int:
        """Pages currently allocated under ``category``."""
        return self._live.get(category, 0)

    def aggregate(self, category: str) -> int:
        """Total pages ever allocated under ``category`` (Fig. 11 metric)."""
        return self._aggregate.get(category, 0)

    def peak(self, category: str) -> int:
        """High-water mark of live pages under ``category``."""
        return self._peak.get(category, 0)

    @property
    def live_total(self) -> int:
        return sum(self._live.values())

    def usage_report(self) -> Dict[str, Dict[str, int]]:
        """Return ``{category: {live, aggregate, peak}}`` for all cats."""
        cats = set(self._live) | set(self._aggregate)
        return {
            cat: {
                "live": self.live(cat),
                "aggregate": self.aggregate(cat),
                "peak": self.peak(cat),
            }
            for cat in sorted(cats)
        }
