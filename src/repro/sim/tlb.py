"""Two-level TLB model (Table 3: L1 64-entry 4-way, L2 2048-entry 12-way).

The TLB caches virtual-page to physical-frame translations. Misses trigger
a page walk through whichever page table owns the address — the kernel's
(via the CR3-rooted table) or Memento's (via the MPTR-rooted table); that
dispatch lives in the harness, not here.

Lookups run once per simulated line touch, so counters are interned
:class:`~repro.sim.stats.Counter` cells and the L1 probe is inlined into
``TlbHierarchy.lookup``. ``l1_hits`` is exposed so the harness's
consecutive-line fast path can account a hit without re-probing.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sim.params import MachineParams, TlbParams
from repro.sim.stats import Counter, ScopedStats, Stats


class Tlb:
    """One set-associative TLB level, LRU-replaced, keyed by virtual page.

    Each set is a plain ``dict`` from virtual page to frame in LRU order,
    probed and filled with the same two spellings as a cache set (see
    :class:`~repro.sim.cache.Cache`).
    """

    __slots__ = (
        "params",
        "stats",
        "_num_sets",
        "_ways",
        "_sets",
        "_hits",
        "_misses",
        "_evictions",
        "_flushes",
    )

    def __init__(self, params: TlbParams, stats: ScopedStats) -> None:
        self.params = params
        self.stats = stats
        self._num_sets = max(1, params.entries // params.ways)
        self._ways = params.ways
        self._sets = [{} for _ in range(self._num_sets)]
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._evictions = stats.counter("evictions")
        self._flushes = stats.counter("flushes")

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached frame for virtual page ``vpn``, or ``None``."""
        tlb_set = self._sets[vpn % self._num_sets]
        if vpn in tlb_set:
            tlb_set[vpn] = pfn = tlb_set.pop(vpn)
            self._hits.pending += 1
            return pfn
        self._misses.pending += 1
        return None

    def insert(self, vpn: int, frame: int) -> None:
        """Install a translation, evicting LRU if the set is full."""
        tlb_set = self._sets[vpn % self._num_sets]
        if vpn in tlb_set:
            tlb_set.pop(vpn)
            tlb_set[vpn] = frame
            return
        if len(tlb_set) >= self._ways:
            tlb_set.pop(next(iter(tlb_set)))
            self._evictions.pending += 1
        tlb_set[vpn] = frame

    def invalidate(self, vpn: int) -> bool:
        """Shoot down one translation; return whether it was present."""
        tlb_set = self._sets[vpn % self._num_sets]
        if vpn in tlb_set:
            del tlb_set[vpn]
            return True
        return False

    def flush(self) -> None:
        """Drop every translation (context switch without ASIDs)."""
        for tlb_set in self._sets:
            tlb_set.clear()
        self._flushes.add()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class TlbHierarchy:
    """L1 + L2 TLB; a hit in either avoids the page walk."""

    __slots__ = (
        "l1",
        "l2",
        "l1_hits",
        "_l1_sets",
        "_l1_num_sets",
        "_l1_misses",
    )

    def __init__(self, params: MachineParams, stats: Stats) -> None:
        self.l1 = Tlb(params.tlb_l1, stats.scoped("tlb_l1"))
        self.l2 = Tlb(params.tlb_l2, stats.scoped("tlb_l2"))
        #: Interned L1-hit cell, public for the harness's same-page fast
        #: path (a consecutive-line access that skips the probe still hits
        #: the L1 TLB in hardware and must be counted as one).
        self.l1_hits: Counter = self.l1._hits
        self._l1_sets = self.l1._sets
        self._l1_num_sets = self.l1._num_sets
        self._l1_misses = self.l1._misses

    def lookup(self, vpn: int) -> Optional[int]:
        """Translate ``vpn`` if cached; promotes L2 hits into the L1."""
        # Inlined L1 probe — the common case on replay.
        tlb_set = self._l1_sets[vpn % self._l1_num_sets]
        if vpn in tlb_set:
            tlb_set[vpn] = pfn = tlb_set.pop(vpn)
            self.l1_hits.pending += 1
            return pfn
        self._l1_misses.pending += 1
        frame = self.l2.lookup(vpn)
        if frame is not None:
            self.l1.insert(vpn, frame)
        return frame

    def insert(self, vpn: int, frame: int) -> None:
        """Install a completed walk into both levels."""
        self.l1.insert(vpn, frame)
        self.l2.insert(vpn, frame)

    def invalidate_pages(self, vpns: Iterable[int]) -> None:
        """Shoot down the translations of every page in ``vpns``."""
        for vpn in vpns:
            self.l1.invalidate(vpn)
            self.l2.invalidate(vpn)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
