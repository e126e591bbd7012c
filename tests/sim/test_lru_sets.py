"""Plain-dict LRU sets against a frozen ``OrderedDict`` reference.

Every cache, TLB and AAC set is a plain ``dict`` whose insertion order
is the LRU order: a hit re-inserts (``s[k] = s.pop(k)``) and the victim
is the first key (``s.pop(next(iter(s)))``). The reference models below
keep the ``OrderedDict`` spelling (``move_to_end``/``popitem``) and are
frozen: they define the replacement policy the simulator must keep.

Random probe, insert, write-hit, invalidate and flush sequences run on
tiny geometries, where nearly every fill evicts, and after every step
the victims, dirty bits, each set's key order and every counter must
match. The hierarchy case drives ``access_line``, ``instantiate`` and
``zero_fill_page`` (whose probes and fills are inlined) against the
same reference composed from per-level ``lookup``/``insert`` calls.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MementoConfig
from repro.core.page_allocator import ArenaAllocationCache
from repro.sim.cache import Cache, CacheHierarchy
from repro.sim.dram import Dram
from repro.sim.params import (
    LINE_SHIFT,
    CacheParams,
    MachineParams,
    TlbParams,
)
from repro.sim.stats import Stats
from repro.sim.tlb import Tlb, TlbHierarchy

# -- the frozen OrderedDict reference ----------------------------------------


class ReferenceLru:
    """One set-associative LRU level: ``OrderedDict`` sets, least- to
    most-recently used, counting into ``stats`` under the simulator's
    counter names."""

    def __init__(self, num_sets, ways, stats):
        self.num_sets = num_sets
        self.ways = ways
        self.stats = stats
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def lookup(self, key, write=False):
        s = self.sets[key % self.num_sets]
        if key in s:
            s.move_to_end(key)
            if write:
                s[key] = True
            self.stats.add("hits")
            return True
        self.stats.add("misses")
        return False

    def get(self, key):
        """TLB probe: the cached value (refreshing LRU), or ``None``."""
        s = self.sets[key % self.num_sets]
        if key in s:
            s.move_to_end(key)
            self.stats.add("hits")
            return s[key]
        self.stats.add("misses")
        return None

    def insert(self, key, value):
        """Cache fill: OR the dirty bit into a resident line."""
        s = self.sets[key % self.num_sets]
        if key in s:
            s.move_to_end(key)
            s[key] = s[key] or value
            return None
        victim = None
        if len(s) >= self.ways:
            victim = s.popitem(last=False)
            self.stats.add("evictions")
            if victim[1]:
                self.stats.add("dirty_evictions")
        s[key] = value
        return victim

    def put(self, key, value):
        """TLB fill: replace a resident translation."""
        s = self.sets[key % self.num_sets]
        if key in s:
            s.move_to_end(key)
            s[key] = value
            return
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.stats.add("evictions")
        s[key] = value

    def invalidate(self, key):
        s = self.sets[key % self.num_sets]
        if key in s:
            del s[key]
            return True
        return False

    def flush(self):
        dirty = sum(1 for s in self.sets for flag in s.values() if flag)
        for s in self.sets:
            s.clear()
        return dirty


class ReferenceHierarchy:
    """L1/L2/LLC + DRAM from per-level calls: what the inlined
    ``access_line``/``instantiate``/``zero_fill_page`` must equal."""

    def __init__(self, params, stats):
        self.l1 = _level(params.l1d, stats.scoped("l1d"))
        self.l2 = _level(params.l2, stats.scoped("l2"))
        self.llc = _level(params.llc, stats.scoped("llc"))
        self.dram = stats.scoped("dram")
        self.hierarchy = stats.scoped("hierarchy")
        self.writebacks = 0

    def _dram_write(self):
        self.dram.add("write_lines")
        self.dram.add("write_bytes", 64)

    def _fill_llc_to_dram(self, line, dirty):
        victim = self.llc.insert(line, dirty)
        if victim is not None and victim[1]:
            self._dram_write()
            self.writebacks += 1

    def _fill_l2(self, line, dirty):
        victim = self.l2.insert(line, dirty)
        if victim is not None and victim[1]:
            self.llc.insert(victim[0], True)

    def _fill_l1(self, line, write):
        victim = self.l1.insert(line, write)
        if victim is not None and victim[1]:
            self.l2.insert(victim[0], True)

    def access_line(self, line, write):
        if self.l1.lookup(line, write):
            return 1
        if self.l2.lookup(line):
            level = 2
        else:
            if self.llc.lookup(line):
                level = 3
            else:
                self.dram.add("read_lines")
                self.dram.add("read_bytes", 64)
                self._fill_llc_to_dram(line, False)
                level = 4
            self._fill_l2(line, False)
        self._fill_l1(line, write)
        return level

    def instantiate(self, addr, write):
        line = addr >> LINE_SHIFT
        self.hierarchy.add("bypass_fills")
        self._fill_llc_to_dram(line, True)
        self._fill_l2(line, False)
        self._fill_l1(line, write)

    def zero_fill_page(self, paddr_base):
        base = paddr_base >> LINE_SHIFT
        for line in range(base, base + 64):
            self._fill_llc_to_dram(line, True)
        self.hierarchy.add("zero_filled_pages")


def _level(params, stats):
    return ReferenceLru(params.num_sets, params.ways, stats)


def set_contents(sets):
    """Each set's (key, value) pairs in LRU order."""
    return [list(s.items()) for s in sets]


# -- strategies --------------------------------------------------------------

#: About twice the largest geometry's 16 entries: hits and evictions
#: are both frequent.
KEYS = st.integers(min_value=0, max_value=31)
GEOMETRIES = st.tuples(
    st.integers(min_value=1, max_value=4),  # sets
    st.integers(min_value=1, max_value=4),  # ways
)
CACHE_OPS = st.lists(
    st.tuples(
        # Flushes empty every set, so they are drawn rarely.
        st.sampled_from(
            ["probe"] * 4 + ["write_hit"] * 2 + ["insert"] * 4
            + ["invalidate", "flush", "flush_dirty"]
        ),
        KEYS,
        st.booleans(),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(geometry=GEOMETRIES, ops=CACHE_OPS)
def test_cache_matches_ordered_dict_reference(geometry, ops):
    num_sets, ways = geometry
    stats, ref_stats = Stats(), Stats()
    cache = Cache(
        CacheParams(size_bytes=num_sets * ways * 64, ways=ways, latency=1),
        stats.scoped("c"),
    )
    ref = ReferenceLru(num_sets, ways, ref_stats.scoped("c"))
    for op, key, flag in ops:
        if op == "probe":
            assert cache.lookup(key, flag) == ref.lookup(key, flag)
        elif op == "write_hit":
            # Install clean, then dirty it with a write hit.
            assert cache.insert(key, False) == ref.insert(key, False)
            assert cache.lookup(key, True) is ref.lookup(key, True) is True
        elif op == "insert":
            assert cache.insert(key, flag) == ref.insert(key, flag)
        elif op == "invalidate":
            assert cache.invalidate(key) == ref.invalidate(key)
        elif op == "flush":
            assert cache.flush() == ref.flush()
        else:
            expected = [
                k for s in ref.sets for k, dirty in s.items() if dirty
            ]
            ref.flush()
            assert cache.flush_dirty() == expected
        assert set_contents(cache._sets) == set_contents(ref.sets)
        assert stats.snapshot() == ref_stats.snapshot()
        assert cache.occupancy == sum(len(s) for s in ref.sets)


TLB_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["lookup"] * 4 + ["insert"] * 4 + ["invalidate", "flush"]
        ),
        KEYS,
        st.integers(min_value=0, max_value=7),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(geometry=GEOMETRIES, ops=TLB_OPS)
def test_tlb_matches_ordered_dict_reference(geometry, ops):
    num_sets, ways = geometry
    stats, ref_stats = Stats(), Stats()
    tlb = Tlb(TlbParams(entries=num_sets * ways, ways=ways), stats.scoped("t"))
    ref = ReferenceLru(num_sets, ways, ref_stats.scoped("t"))
    for op, vpn, frame in ops:
        if op == "lookup":
            assert tlb.lookup(vpn) == ref.get(vpn)
        elif op == "insert":
            tlb.insert(vpn, frame)
            ref.put(vpn, frame)
        elif op == "invalidate":
            assert tlb.invalidate(vpn) == ref.invalidate(vpn)
        else:
            tlb.flush()
            ref.flush()
            ref_stats.add("t.flushes")
        assert set_contents(tlb._sets) == set_contents(ref.sets)
        assert stats.snapshot() == ref_stats.snapshot()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=TLB_OPS)
def test_tlb_hierarchy_matches_ordered_dict_reference(ops):
    """The hierarchy's inlined L1 probe, L2 promotion and shootdowns."""
    params = MachineParams(tlb_l1=TlbParams(4, 2), tlb_l2=TlbParams(8, 4))
    stats, ref_stats = Stats(), Stats()
    tlb = TlbHierarchy(params, stats)
    ref_l1 = ReferenceLru(2, 2, ref_stats.scoped("tlb_l1"))
    ref_l2 = ReferenceLru(2, 4, ref_stats.scoped("tlb_l2"))
    for op, vpn, frame in ops:
        if op == "lookup":
            expected = ref_l1.get(vpn)
            if expected is None:
                expected = ref_l2.get(vpn)
                if expected is not None:
                    ref_l1.put(vpn, expected)
            assert tlb.lookup(vpn) == expected
        elif op == "insert":
            tlb.insert(vpn, frame)
            ref_l1.put(vpn, frame)
            ref_l2.put(vpn, frame)
        elif op == "invalidate":
            tlb.invalidate_pages([vpn, vpn + 2])
            for page in (vpn, vpn + 2):
                ref_l1.invalidate(page)
                ref_l2.invalidate(page)
        else:
            tlb.flush()
            for level, ref in (("tlb_l1", ref_l1), ("tlb_l2", ref_l2)):
                ref.flush()
                ref_stats.add(level + ".flushes")
        assert set_contents(tlb.l1._sets) == set_contents(ref_l1.sets)
        assert set_contents(tlb.l2._sets) == set_contents(ref_l2.sets)
        assert stats.snapshot() == ref_stats.snapshot()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    budget=st.integers(min_value=1, max_value=4),
    touches=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=70),  # core (wraps at 32)
            st.integers(min_value=0, max_value=8),  # size class
        ),
        max_size=150,
    ),
)
def test_aac_matches_ordered_dict_reference(budget, touches):
    stats, ref_stats = Stats(), Stats()
    aac = ArenaAllocationCache(
        MementoConfig(aac_classes_per_core=budget), stats.scoped("aac")
    )
    ref_entries = {}
    for core, size_class in touches:
        entry = ref_entries.setdefault(core % 32, OrderedDict())
        if size_class in entry:
            entry.move_to_end(size_class)
            hit = True
            ref_stats.add("aac.hits")
        else:
            if len(entry) >= budget:
                entry.popitem(last=False)
            entry[size_class] = True
            hit = False
            ref_stats.add("aac.misses")
        assert aac.access(core, size_class) is hit
        assert {
            slot: list(entry.items()) for slot, entry in aac.entries.items()
        } == {slot: list(entry.items()) for slot, entry in ref_entries.items()}
        assert stats.snapshot() == ref_stats.snapshot()


#: L1 2 sets x 2 ways, L2 4 x 2, LLC 4 x 4: 64-line pages and a few dozen
#: hot lines overflow every level. The 8 x 8 LLC holds a whole page, so
#: a zero fill also hits lines it will keep.
MACHINES = st.sampled_from([
    MachineParams(
        l1d=CacheParams(2 * 2 * 64, 2, 2),
        l2=CacheParams(4 * 2 * 64, 2, 14),
        llc=CacheParams(size_bytes, ways, 40),
    )
    for size_bytes, ways in ((4 * 4 * 64, 4), (8 * 8 * 64, 8))
])
HIERARCHY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["access", "instantiate", "zero_fill"]),
        st.integers(min_value=0, max_value=191),  # line
        st.booleans(),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=MACHINES, ops=HIERARCHY_OPS)
def test_hierarchy_matches_ordered_dict_reference(params, ops):
    stats, ref_stats = Stats(), Stats()
    writebacks = []
    caches = CacheHierarchy(
        params,
        stats,
        Dram(params, stats),
        on_writeback=lambda: writebacks.append(1),
    )
    ref = ReferenceHierarchy(params, ref_stats)
    for op, line, write in ops:
        if op == "access":
            result = caches.access_line(line, write)
            assert result.level == ref.access_line(line, write)
        elif op == "instantiate":
            caches.instantiate(line << LINE_SHIFT, write)
            ref.instantiate(line << LINE_SHIFT, write)
        else:
            page_base = (line >> 6) << 12  # the page holding the line
            caches.zero_fill_page(page_base)
            ref.zero_fill_page(page_base)
        for level, ref_level in (
            (caches.l1d, ref.l1),
            (caches.l2, ref.l2),
            (caches.llc, ref.llc),
        ):
            assert set_contents(level._sets) == set_contents(ref_level.sets)
        assert stats.snapshot() == ref_stats.snapshot()
        assert len(writebacks) == ref.writebacks
