"""The Hardware Object Table (HOT), §3.1.

A per-core direct-mapped structure of 64 entries — one per size class —
each holding the most recently used arena header of that class plus the
header's physical address and the size class's available/full list heads
(Fig. 5b). Hits complete in 2 cycles without memory requests (§6.4);
lookup uses the size class as a direct index, no associative search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.arena import ArenaHeader
from repro.core.config import MementoConfig
from repro.obs.instruments import current as current_instruments
from repro.sim.stats import ScopedStats


@dataclass(slots=True)
class HotEntry:
    """One HOT entry: cached header + PA + list heads (Fig. 5b).

    Behaviorally the entry references the live header object; the cached
    copy/write-back discipline shows up as cycle and traffic costs charged
    by the object allocator, not as a second copy of the bits.
    """

    header: Optional[ArenaHeader] = None

    @property
    def valid(self) -> bool:
        return self.header is not None


class HardwareObjectTable:
    """64-entry direct-mapped cache of per-size-class arena headers."""

    __slots__ = (
        "config",
        "stats",
        "entries",
        "_fills",
        "_alloc_hits",
        "_alloc_misses",
        "_free_hits",
        "_free_misses",
        "_ring",
    )

    def __init__(self, config: MementoConfig, stats: ScopedStats) -> None:
        self.config = config
        self.stats = stats
        self.entries: List[HotEntry] = [
            HotEntry() for _ in range(config.num_size_classes)
        ]
        # Interned counter cells: record_alloc/record_free run once per
        # obj-alloc/obj-free — the hottest counters in the Memento stack.
        self._fills = stats.counter("fills")
        self._alloc_hits = stats.counter("alloc_hits")
        self._alloc_misses = stats.counter("alloc_misses")
        self._free_hits = stats.counter("free_hits")
        self._free_misses = stats.counter("free_misses")
        #: Sampled hardware-event ring, bound at construction (None keeps
        #: the record paths to a single attribute test when sampling is off).
        self._ring = current_instruments().ring

    def lookup(self, size_class: int) -> HotEntry:
        """Direct-mapped index by size class (no search)."""
        return self.entries[size_class]

    def fill(self, size_class: int, header: ArenaHeader) -> Optional[ArenaHeader]:
        """Install ``header``; return the replaced header for write-back."""
        entry = self.entries[size_class]
        replaced = entry.header
        entry.header = header
        self._fills.add()
        return replaced

    def record_alloc(self, hit: bool) -> None:
        (self._alloc_hits if hit else self._alloc_misses).pending += 1
        if self._ring is not None:
            self._ring.record("hot.alloc_hit" if hit else "hot.alloc_miss")

    def record_free(self, hit: bool) -> None:
        (self._free_hits if hit else self._free_misses).pending += 1
        if self._ring is not None:
            self._ring.record("hot.free_hit" if hit else "hot.free_miss")

    def alloc_hit_rate(self) -> float:
        """Fraction of obj-alloc requests satisfied by the resident entry."""
        hits = self.stats["alloc_hits"]
        total = hits + self.stats["alloc_misses"]
        return hits / total if total else 1.0

    def free_hit_rate(self) -> float:
        hits = self.stats["free_hits"]
        total = hits + self.stats["free_misses"]
        return hits / total if total else 1.0

    def flush(self) -> int:
        """Invalidate every entry (context switch, §6.6).

        Returns the number of valid entries flushed so the kernel can
        charge the per-entry write-back cost.
        """
        flushed = 0
        for entry in self.entries:
            if entry.valid:
                entry.header = None
                flushed += 1
        self.stats.add("flushes")
        self.stats.add("flushed_entries", flushed)
        return flushed

    @property
    def valid_entries(self) -> int:
        return sum(1 for entry in self.entries if entry.valid)
