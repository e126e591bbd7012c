"""Set-associative cache models and the three-level hierarchy.

Caches are write-back, write-allocate, LRU. The hierarchy is non-inclusive
(each level tracks its own contents; dirty evictions are installed into the
next level down). This matches the fidelity the evaluation needs: hit/miss
classification, DRAM traffic, and the LLC-instantiation path used by the
main-memory bypass mechanism (§3.3).

This module is the innermost ring of the replay hot loop (one access per
simulated line touch, walk step, and allocator metadata update), so it is
written for speed: counters are interned :class:`~repro.sim.stats.Counter`
cells, per-level latencies are hoisted into instance attributes at
construction, the L1 probe is inlined into ``access_line``, and the
``AccessResult`` for each (level, cycles) outcome is preallocated once —
a hit allocates nothing.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.instruments import current as current_instruments
from repro.sim.params import (
    LINE_SHIFT,
    LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SHIFT,
    CacheParams,
    MachineParams,
)
from repro.sim.stats import ScopedStats, Stats


#: Shorter ranges zero-fill line by line: copying a template costs about
#: as much as filling 20 pages.
ZERO_FILL_TEMPLATE_MIN_PAGES = 32
#: Templates kept per process, oldest dropped first. A cold fleet fills
#: three ranges (two 400-page container set-ups and a 128-page jemalloc
#: pool) in content-key order, so fewer than that turns hits into misses.
ZERO_FILL_TEMPLATE_CAP = 4
#: ``(llc num_sets, ways, frames)`` -> the LLC sets that zero-filling
#: ``frames`` into an empty LLC leaves behind (see ``zero_fill_pages``).
_zero_fill_templates: Dict[tuple, List[dict]] = {}
#: Held to store a template: threads of one process replay concurrently.
_zero_fill_templates_lock = threading.Lock()


class MemLevel(enum.IntEnum):
    """The level of the hierarchy that satisfied an access."""

    L1 = 1
    L2 = 2
    LLC = 3
    DRAM = 4


class AccessResult(NamedTuple):
    """Outcome of one line access through the hierarchy.

    A named tuple rather than a dataclass so results unpack like
    ``(level, cycles)`` pairs and the hierarchy can hand back preallocated
    instances on the hot path.
    """

    level: MemLevel
    cycles: int


class Cache:
    """One set-associative cache level.

    Lines are identified by their line address (byte address >> 6). Each
    set is a plain ``dict`` mapping line address to a dirty bit, whose
    insertion order is the LRU order (least-recently used first): a hit
    re-inserts its line, ``s[line] = s.pop(line)``, and the victim is the
    first key, ``s.pop(next(iter(s)))``. Every inlined copy of a probe or
    fill in this module and in :mod:`repro.harness.system` spells the
    two operations exactly so. A set holds only ints and bools, so the
    cyclic collector never tracks it.
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
        "_dirty_evictions",
    )

    def __init__(self, params: CacheParams, stats: ScopedStats) -> None:
        self.params = params
        self.stats = stats
        self._num_sets = params.num_sets
        self._ways = params.ways
        self._sets = [{} for _ in range(self._num_sets)]
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._evictions = stats.counter("evictions")
        self._dirty_evictions = stats.counter("dirty_evictions")

    def lookup(self, line_addr: int, write: bool) -> bool:
        """Probe for ``line_addr``; update LRU and dirty state on a hit."""
        cache_set = self._sets[line_addr % self._num_sets]
        if line_addr in cache_set:
            cache_set[line_addr] = cache_set.pop(line_addr) or write
            self._hits.pending += 1
            return True
        self._misses.pending += 1
        return False

    def insert(
        self, line_addr: int, dirty: bool
    ) -> Optional[Tuple[int, bool]]:
        """Install ``line_addr``; return ``(victim, victim_dirty)`` if one
        was evicted, else ``None``."""
        cache_set = self._sets[line_addr % self._num_sets]
        if line_addr in cache_set:
            cache_set[line_addr] = cache_set.pop(line_addr) or dirty
            return None
        victim = None
        if len(cache_set) >= self._ways:
            victim_addr = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_addr)
            victim = (victim_addr, victim_dirty)
            self._evictions.pending += 1
            if victim_dirty:
                self._dirty_evictions.pending += 1
        cache_set[line_addr] = dirty
        return victim

    def invalidate(self, line_addr: int) -> bool:
        """Drop ``line_addr`` if present; return whether it was present."""
        cache_set = self._sets[line_addr % self._num_sets]
        if line_addr in cache_set:
            del cache_set[line_addr]
            return True
        return False

    def contains(self, line_addr: int) -> bool:
        """Probe without touching LRU or stats (used by tests)."""
        return line_addr in self._sets[line_addr % self._num_sets]

    def flush(self) -> int:
        """Drop all contents; return the number of dirty lines discarded."""
        dirty = 0
        for cache_set in self._sets:
            dirty += sum(1 for flag in cache_set.values() if flag)
            cache_set.clear()
        return dirty

    def flush_dirty(self) -> List[int]:
        """Drop all contents; return the dirty line addresses so the
        caller can write them back (the hierarchy installs them into the
        next level down instead of silently losing the traffic)."""
        dirty: List[int] = []
        for cache_set in self._sets:
            dirty.extend(
                line for line, flag in cache_set.items() if flag
            )
            cache_set.clear()
        return dirty

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class CacheHierarchy:
    """L1D/L2/LLC hierarchy with DRAM traffic accounting.

    ``access`` walks an address down the hierarchy charging each level's
    latency until it hits; a full miss charges the DRAM latency and records
    64 B of read traffic. Dirty victims evicted from the LLC record
    writeback traffic. ``instantiate`` implements the main-memory bypass
    fill: the line is created in the LLC (then promoted inward) without
    touching DRAM.
    """

    __slots__ = (
        "params",
        "dram",
        "on_writeback",
        "l1d",
        "l2",
        "llc",
        "stats",
        "_l1_sets",
        "_l1_num_sets",
        "_l1_ways",
        "_l1_hits",
        "_l1_misses",
        "_l1_evictions",
        "_l1_dirty_evictions",
        "_l2_sets",
        "_l2_num_sets",
        "_l2_ways",
        "_l2_hits",
        "_l2_misses",
        "_l2_evictions",
        "_l2_dirty_evictions",
        "_llc_sets",
        "_llc_num_sets",
        "_llc_ways",
        "_llc_hits",
        "_llc_misses",
        "_llc_evictions",
        "_llc_dirty_evictions",
        "_dram_read_lines",
        "_dram_read_bytes",
        "_dram_write_lines",
        "_dram_write_bytes",
        "_bypass_fills",
        "_zero_filled_pages",
        "_r_l1",
        "_r_l2",
        "_r_llc",
        "_r_dram",
        "_r_bypass",
        "access_line",
        "instantiate",
    )

    def __init__(
        self, params: MachineParams, stats: Stats, dram, on_writeback=None
    ) -> None:
        self.params = params
        self.dram = dram
        #: Charged per dirty LLC eviction (bandwidth backpressure on the
        #: requesting core); wired by Core.
        self.on_writeback = on_writeback or (lambda: None)
        self.l1d = Cache(params.l1d, stats.scoped("l1d"))
        self.l2 = Cache(params.l2, stats.scoped("l2"))
        self.llc = Cache(params.llc, stats.scoped("llc"))
        self.stats = stats.scoped("hierarchy")
        # Hot-path state: the L1 probe is inlined into access_line, and
        # the (level, cycles) result of every outcome is a constant of the
        # configured geometry, so each is built exactly once.
        self._l1_sets = self.l1d._sets
        self._l1_num_sets = self.l1d._num_sets
        self._l1_ways = self.l1d._ways
        self._l1_hits = self.l1d._hits
        self._l1_misses = self.l1d._misses
        self._l1_evictions = self.l1d._evictions
        self._l1_dirty_evictions = self.l1d._dirty_evictions
        self._l2_sets = self.l2._sets
        self._l2_num_sets = self.l2._num_sets
        self._l2_ways = self.l2._ways
        self._l2_hits = self.l2._hits
        self._l2_misses = self.l2._misses
        self._l2_evictions = self.l2._evictions
        self._l2_dirty_evictions = self.l2._dirty_evictions
        self._llc_sets = self.llc._sets
        self._llc_num_sets = self.llc._num_sets
        self._llc_ways = self.llc._ways
        self._llc_hits = self.llc._hits
        self._llc_misses = self.llc._misses
        self._llc_evictions = self.llc._evictions
        self._llc_dirty_evictions = self.llc._dirty_evictions
        self._dram_read_lines = dram._read_lines
        self._dram_read_bytes = dram._read_bytes
        self._dram_write_lines = dram._write_lines
        self._dram_write_bytes = dram._write_bytes
        self._bypass_fills = self.stats.counter("bypass_fills")
        self._zero_filled_pages = self.stats.counter("zero_filled_pages")
        l1_lat = params.l1d.latency
        l2_lat = l1_lat + params.l2.latency
        llc_lat = l2_lat + params.llc.latency
        self._r_l1 = AccessResult(MemLevel.L1, l1_lat)
        self._r_l2 = AccessResult(MemLevel.L2, l2_lat)
        self._r_llc = AccessResult(MemLevel.LLC, llc_lat)
        self._r_dram = AccessResult(MemLevel.DRAM, llc_lat + params.dram_latency)
        self._r_bypass = AccessResult(MemLevel.LLC, llc_lat)
        # The two hot entry points are built as closures over the hoisted
        # state above: every cell, set list, and constant loads from a
        # captured local instead of an attribute chase through ``self``.
        self.access_line = self._make_access_line()
        self.instantiate = self._make_instantiate()

    def access(self, addr: int, write: bool = False) -> AccessResult:
        """Access the byte address ``addr``; returns level and cycles."""
        return self.access_line(addr >> LINE_SHIFT, write)

    def _make_access_line(self):
        """Build ``access_line``: one line address through L1 → L2 → LLC
        → DRAM.

        Every probe and fill is inlined: on any outcome the line lands in
        the L1 (and inner levels fill on the way up), victims cascade
        outward exactly as the per-level ``lookup``/``insert`` methods
        would move them, and the same counters advance — this is the
        single hottest function of a replay, so it pays for the
        duplication.
        """
        l1_sets = self._l1_sets
        l1_num_sets = self._l1_num_sets
        l1_ways = self._l1_ways
        l1_hits = self._l1_hits
        l1_misses = self._l1_misses
        l1_evictions = self._l1_evictions
        l1_dirty_evictions = self._l1_dirty_evictions
        l2_sets = self._l2_sets
        l2_num_sets = self._l2_num_sets
        l2_ways = self._l2_ways
        l2_hits = self._l2_hits
        l2_misses = self._l2_misses
        l2_evictions = self._l2_evictions
        l2_dirty_evictions = self._l2_dirty_evictions
        llc_sets = self._llc_sets
        llc_num_sets = self._llc_num_sets
        llc_ways = self._llc_ways
        llc_hits = self._llc_hits
        llc_misses = self._llc_misses
        llc_evictions = self._llc_evictions
        llc_dirty_evictions = self._llc_dirty_evictions
        dram_read_lines = self._dram_read_lines
        dram_read_bytes = self._dram_read_bytes
        dram_write_lines = self._dram_write_lines
        dram_write_bytes = self._dram_write_bytes
        on_writeback = self.on_writeback
        r_l1 = self._r_l1
        r_l2 = self._r_l2
        r_llc = self._r_llc
        r_dram = self._r_dram
        line_size = LINE_SIZE

        def access_line(line, write=False):
            # Inlined L1 probe — the overwhelmingly common case.
            l1_set = l1_sets[line % l1_num_sets]
            if line in l1_set:
                l1_set[line] = l1_set.pop(line) or write
                l1_hits.pending += 1
                return r_l1
            l1_misses.pending += 1

            l2_set = l2_sets[line % l2_num_sets]
            if line in l2_set:
                l2_set[line] = l2_set.pop(line)
                l2_hits.pending += 1
                result = r_l2
            else:
                l2_misses.pending += 1
                llc_set = llc_sets[line % llc_num_sets]
                if line in llc_set:
                    llc_set[line] = llc_set.pop(line)
                    llc_hits.pending += 1
                    result = r_llc
                else:
                    # Full miss: fetch from DRAM and fill the LLC.
                    llc_misses.pending += 1
                    dram_read_lines.pending += 1
                    dram_read_bytes.pending += line_size
                    if len(llc_set) >= llc_ways:
                        victim_dirty = llc_set.pop(next(iter(llc_set)))
                        llc_evictions.pending += 1
                        if victim_dirty:
                            llc_dirty_evictions.pending += 1
                            dram_write_lines.pending += 1
                            dram_write_bytes.pending += line_size
                            on_writeback()
                    llc_set[line] = False
                    result = r_dram
                # Fill the L2 (the line was not present — we missed it).
                if len(l2_set) >= l2_ways:
                    victim_addr = next(iter(l2_set))
                    victim_dirty = l2_set.pop(victim_addr)
                    l2_evictions.pending += 1
                    if victim_dirty:
                        l2_dirty_evictions.pending += 1
                        # Inlined llc.insert(victim, dirty=True); its own
                        # victim is dropped without a DRAM writeback,
                        # exactly as the insert-call form discarded the
                        # return value.
                        v_set = llc_sets[victim_addr % llc_num_sets]
                        if victim_addr in v_set:
                            v_set.pop(victim_addr)
                            v_set[victim_addr] = True
                        else:
                            if len(v_set) >= llc_ways:
                                llc_evictions.pending += 1
                                if v_set.pop(next(iter(v_set))):
                                    llc_dirty_evictions.pending += 1
                            v_set[victim_addr] = True
                l2_set[line] = False
            # Fill the L1 (missed above; victims spill dirty into L2).
            if len(l1_set) >= l1_ways:
                victim_addr = next(iter(l1_set))
                victim_dirty = l1_set.pop(victim_addr)
                l1_evictions.pending += 1
                if victim_dirty:
                    l1_dirty_evictions.pending += 1
                    # Inlined l2.insert(victim, dirty=True), victim dropped.
                    v_set = l2_sets[victim_addr % l2_num_sets]
                    if victim_addr in v_set:
                        v_set.pop(victim_addr)
                        v_set[victim_addr] = True
                    else:
                        if len(v_set) >= l2_ways:
                            l2_evictions.pending += 1
                            if v_set.pop(next(iter(v_set))):
                                l2_dirty_evictions.pending += 1
                        v_set[victim_addr] = True
            l1_set[line] = write
            return result

        # Cycle-attribution profiling is bound at construction: with no
        # profile bound (the default) the un-wrapped closure is returned, so
        # the disabled replay path is byte-identical. The wrapper only
        # samples outer-level outcomes into latency histograms and the
        # cross-category ``dram.access`` overlay — it never charges
        # cycles, so results are unchanged either way.
        profile = current_instruments().profile
        if profile is None:
            return access_line
        h_llc = profile.hist("op.llc_access")
        h_dram = profile.hist("op.dram_access")
        dram_cell = profile.cell("dram.access")
        inner = access_line

        def access_line(line, write=False):
            result = inner(line, write)
            if result is r_dram:
                h_dram.record(r_dram.cycles)
                dram_cell.count += 1
                dram_cell.cycles += r_dram.cycles
            elif result is r_llc:
                h_llc.record(r_llc.cycles)
            return result

        return access_line

    def _make_instantiate(self):
        """Build ``instantiate``: the bypass fill (§3.3) — create the line
        in the LLC without DRAM.

        The request propagates regularly to the LLC to keep coherence
        simple; the line is zero-instantiated there and promoted inward.
        Fills (LLC dirty, then L2, then L1) are inlined — this runs once
        per bypassed line on the Memento stack, second only to
        ``access_line``.
        """
        l1_sets = self._l1_sets
        l1_num_sets = self._l1_num_sets
        l1_ways = self._l1_ways
        l1_evictions = self._l1_evictions
        l1_dirty_evictions = self._l1_dirty_evictions
        l2_sets = self._l2_sets
        l2_num_sets = self._l2_num_sets
        l2_ways = self._l2_ways
        l2_evictions = self._l2_evictions
        l2_dirty_evictions = self._l2_dirty_evictions
        llc_sets = self._llc_sets
        llc_num_sets = self._llc_num_sets
        llc_ways = self._llc_ways
        llc_evictions = self._llc_evictions
        llc_dirty_evictions = self._llc_dirty_evictions
        dram_write_lines = self._dram_write_lines
        dram_write_bytes = self._dram_write_bytes
        on_writeback = self.on_writeback
        bypass_fills = self._bypass_fills
        r_bypass = self._r_bypass
        line_size = LINE_SIZE
        line_shift = LINE_SHIFT

        def instantiate(addr, write=True):
            line = addr >> line_shift
            bypass_fills.pending += 1
            llc_set = llc_sets[line % llc_num_sets]
            if line in llc_set:
                llc_set.pop(line)
                llc_set[line] = True
            else:
                if len(llc_set) >= llc_ways:
                    victim_dirty = llc_set.pop(next(iter(llc_set)))
                    llc_evictions.pending += 1
                    if victim_dirty:
                        llc_dirty_evictions.pending += 1
                        dram_write_lines.pending += 1
                        dram_write_bytes.pending += line_size
                        on_writeback()
                llc_set[line] = True
            l2_set = l2_sets[line % l2_num_sets]
            if line in l2_set:
                l2_set[line] = l2_set.pop(line)
            else:
                if len(l2_set) >= l2_ways:
                    victim_addr = next(iter(l2_set))
                    victim_dirty = l2_set.pop(victim_addr)
                    l2_evictions.pending += 1
                    if victim_dirty:
                        l2_dirty_evictions.pending += 1
                        # Inlined llc.insert(victim, True), victim dropped.
                        v_set = llc_sets[victim_addr % llc_num_sets]
                        if victim_addr in v_set:
                            v_set.pop(victim_addr)
                            v_set[victim_addr] = True
                        else:
                            if len(v_set) >= llc_ways:
                                llc_evictions.pending += 1
                                if v_set.pop(next(iter(v_set))):
                                    llc_dirty_evictions.pending += 1
                            v_set[victim_addr] = True
                l2_set[line] = False
            l1_set = l1_sets[line % l1_num_sets]
            if line in l1_set:
                l1_set[line] = l1_set.pop(line) or write
            else:
                if len(l1_set) >= l1_ways:
                    victim_addr = next(iter(l1_set))
                    victim_dirty = l1_set.pop(victim_addr)
                    l1_evictions.pending += 1
                    if victim_dirty:
                        l1_dirty_evictions.pending += 1
                        # Inlined l2.insert(victim, True), victim dropped.
                        v_set = l2_sets[victim_addr % l2_num_sets]
                        if victim_addr in v_set:
                            v_set.pop(victim_addr)
                            v_set[victim_addr] = True
                        else:
                            if len(v_set) >= l2_ways:
                                l2_evictions.pending += 1
                                if v_set.pop(next(iter(v_set))):
                                    l2_dirty_evictions.pending += 1
                            v_set[victim_addr] = True
                l1_set[line] = write
            return r_bypass

        return instantiate

    def zero_fill_page(self, paddr_base: int) -> None:
        """Model kernel page zeroing at fault time: the 64 lines of the
        page are written through the hierarchy (temporal stores), landing
        dirty in the LLC and warming it for the faulting access. Their
        eventual dirty evictions produce the zeroing's DRAM write traffic.
        """
        # 64 dirty LLC fills with the insert bodies inlined — page faults
        # run this for every mapped page, which makes it the hottest bulk
        # operation on the baseline stack.
        base_line = paddr_base >> LINE_SHIFT
        llc_sets = self._llc_sets
        num_sets = self._llc_num_sets
        ways = self._llc_ways
        record_write = self.dram.record_write_line
        on_writeback = self.on_writeback
        evictions = self._llc_evictions
        dirty_evictions = self._llc_dirty_evictions
        for line in range(base_line, base_line + 64):
            cache_set = llc_sets[line % num_sets]
            if line in cache_set:
                cache_set.pop(line)
                cache_set[line] = True
                continue
            if len(cache_set) >= ways:
                victim_dirty = cache_set.pop(next(iter(cache_set)))
                evictions.pending += 1
                if victim_dirty:
                    dirty_evictions.pending += 1
                    record_write()
                    on_writeback()
            cache_set[line] = True
        self._zero_filled_pages.pending += 1

    def zero_fill_pages(self, frames: Sequence[int]) -> None:
        """Zero-fill the pages of ``frames`` in order, exactly as one
        :meth:`zero_fill_page` per frame would.

        Into an empty LLC, a fill that evicts nothing leaves LLC sets
        that depend only on the geometry and the frames: no victim means
        no DRAM write, no writeback charge and no eviction count. The
        first such fill of a range of at least
        :data:`ZERO_FILL_TEMPLATE_MIN_PAGES` pages runs line by line and
        keeps a copy of the sets; a later one copies them back instead.
        """
        llc_sets = self._llc_sets
        key = None
        if len(frames) >= ZERO_FILL_TEMPLATE_MIN_PAGES and not any(llc_sets):
            key = (self._llc_num_sets, self._llc_ways, tuple(frames))
            template = _zero_fill_templates.get(key)
            if template is not None:
                # In place: Cache._sets and the access closures share it.
                llc_sets[:] = [s.copy() for s in template]
                self._zero_filled_pages.pending += len(frames)
                return
        zero_fill = self.zero_fill_page
        for pfn in frames:
            zero_fill(pfn << PAGE_SHIFT)
        if key is not None and (
            sum(map(len, llc_sets)) == len(frames) * LINES_PER_PAGE
        ):
            # Every line of the range is resident: nothing was evicted.
            template = [s.copy() for s in llc_sets]
            with _zero_fill_templates_lock:
                if len(_zero_fill_templates) >= ZERO_FILL_TEMPLATE_CAP:
                    del _zero_fill_templates[next(iter(_zero_fill_templates))]
                _zero_fill_templates[key] = template

    def present(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is anywhere in the hierarchy."""
        line = addr >> LINE_SHIFT
        return (
            self.l1d.contains(line)
            or self.l2.contains(line)
            or self.llc.contains(line)
        )

    def flush_all(self) -> None:
        """Write back and drop everything (context-switch / cold-start).

        Dirty lines are not lost: L1 victims install into the L2, L2
        victims into the LLC (evictions cascading to DRAM as usual), and
        dirty LLC lines write back to DRAM directly — so the flush's DRAM
        write traffic is fully accounted.
        """
        for line in self.l1d.flush_dirty():
            victim = self.l2.insert(line, dirty=True)
            if victim is not None and victim[1]:
                self._fill_llc(victim[0], dirty=True)
        for line in self.l2.flush_dirty():
            self._fill_llc(line, dirty=True)
        dirty = self.llc.flush()
        for _ in range(dirty):
            self.dram.record_write_line()

    # -- internal fills ---------------------------------------------------

    def _fill_llc(self, line: int, dirty: bool) -> None:
        victim = self.llc.insert(line, dirty=dirty)
        if victim is not None and victim[1]:
            self.dram.record_write_line()
            self.on_writeback()
