"""Tests for the arena lists and the Hardware Object Table."""

import pytest

from repro.core.arena import ArenaHeader
from repro.core.config import MementoConfig
from repro.core.hot import HardwareObjectTable
from repro.core.lists import ArenaList
from repro.sim.stats import Stats


def header(va):
    return ArenaHeader(va=va, size_class=0, pa=va)


@pytest.fixture
def arena_list():
    stats = Stats()
    return ArenaList("available", stats.scoped("list")), stats


def test_push_pop_lifo(arena_list):
    lst, _ = arena_list
    a, b = header(0x1000), header(0x2000)
    lst.push_head(a)
    lst.push_head(b)
    assert len(lst) == 2
    assert lst.pop_head() is b
    assert lst.pop_head() is a
    assert lst.pop_head() is None


def test_push_sets_list_name(arena_list):
    lst, _ = arena_list
    a = header(0x1000)
    lst.push_head(a)
    assert a.list_name == "available"
    lst.remove(a)
    assert a.list_name is None


def test_remove_middle_relinks(arena_list):
    lst, _ = arena_list
    a, b, c = header(0x1000), header(0x2000), header(0x3000)
    for h in (a, b, c):
        lst.push_head(h)
    lst.remove(b)
    assert list(lst) == [c, a]
    assert c.next is a and a.prev is c


def test_double_push_rejected(arena_list):
    lst, _ = arena_list
    a = header(0x1000)
    lst.push_head(a)
    with pytest.raises(ValueError):
        lst.push_head(a)


def test_remove_not_on_list_rejected(arena_list):
    lst, _ = arena_list
    with pytest.raises(ValueError):
        lst.remove(header(0x9000))


def test_pointer_updates_counted(arena_list):
    lst, stats = arena_list
    a, b = header(0x1000), header(0x2000)
    assert lst.push_head(a) == 1  # just the head pointer
    assert lst.push_head(b) == 2  # head + old head's prev
    assert stats["list.pointer_updates"] == 3
    assert stats["list.pushes"] == 2


def test_contains_and_iter(arena_list):
    lst, _ = arena_list
    a, b = header(0x1000), header(0x2000)
    lst.push_head(a)
    assert a in lst and b not in lst
    assert list(lst) == [a]


# ---------------------------------------------------------------- HOT


@pytest.fixture
def hot():
    stats = Stats()
    return HardwareObjectTable(MementoConfig(), stats.scoped("hot")), stats


def test_hot_has_64_entries(hot):
    table, _ = hot
    assert len(table.entries) == 64
    assert all(not entry.valid for entry in table.entries)


def test_fill_and_lookup_direct_mapped(hot):
    table, _ = hot
    h = header(0x1000)
    assert table.fill(3, h) is None
    assert table.lookup(3).header is h
    assert not table.lookup(4).valid


def test_fill_returns_replaced_header(hot):
    table, _ = hot
    old, new = header(0x1000), header(0x2000)
    table.fill(0, old)
    assert table.fill(0, new) is old
    assert table.lookup(0).header is new


def test_hit_rate_accounting(hot):
    table, _ = hot
    # The object allocator bumps the table's cells inline, like this.
    table._alloc_hits.pending += 2
    table._alloc_misses.pending += 1
    assert table.alloc_hit_rate() == pytest.approx(2 / 3)
    table._free_misses.pending += 1
    assert table.free_hit_rate() == 0.0


def test_hit_rate_vacuous_is_one(hot):
    table, _ = hot
    assert table.alloc_hit_rate() == 1.0
    assert table.free_hit_rate() == 1.0


def test_flush_counts_valid_entries(hot):
    table, stats = hot
    table.fill(0, header(0x1000))
    table.fill(5, header(0x2000))
    assert table.flush() == 2
    assert table.valid_entries == 0
    assert stats["hot.flushed_entries"] == 2
    assert table.flush() == 0  # idempotent
