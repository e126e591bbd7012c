"""Unit and property tests for the 4-level page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.page_table import PageTable, split_vpn


def test_split_vpn_round_trips():
    vpn = 0b101010101_110110110_011011011_000111000
    l4, l3, l2, l1 = split_vpn(vpn)
    rebuilt = (((l4 << 9 | l3) << 9 | l2) << 9) | l1
    assert rebuilt == vpn


def test_map_then_walk():
    table = PageTable()
    assert table.walk(0x12345) is None
    created = table.map(0x12345, 777)
    assert created == 3  # three interior nodes below the root
    assert table.walk(0x12345) == 777


def test_sibling_pages_share_tables():
    table = PageTable()
    table.map(0x1000, 1)
    created = table.map(0x1001, 2)
    assert created == 0
    assert table.table_pages == 4  # root + 3 interior


def test_double_map_raises():
    table = PageTable()
    table.map(5, 1)
    with pytest.raises(ValueError):
        table.map(5, 2)


def test_unmap_returns_pfn_and_frees_empty_tables():
    table = PageTable()
    table.map(0x2000, 42)
    vpns, released, freed_tables = table.unmap_range(0x2000, 1)
    assert vpns == [0x2000]
    assert released[-1] == 42  # after the three tables it emptied
    assert freed_tables == 3
    assert table.table_pages == 1  # only the root survives
    assert table.walk(0x2000) is None


def test_unmap_keeps_shared_tables():
    table = PageTable()
    table.map(0x3000, 1)
    table.map(0x3001, 2)
    _, released, freed = table.unmap_range(0x3000, 1)
    assert (released, freed) == ([1], 0)
    assert table.walk(0x3001) == 2


def test_unmap_range_of_unmapped_pages_is_empty():
    table = PageTable()
    assert table.unmap_range(99, 1) == ([], [], 0)
    table.map(100, 7)
    assert table.unmap_range(99, 1) == ([], [], 0)
    assert table.walk(100) == 7


def test_walk_path_grows_with_mapping():
    table = PageTable()
    assert len(table.walk_path(0x5000)) == 1  # only the root
    table.map(0x5000, 7)
    assert len(table.walk_path(0x5000)) == 4


def test_walk_path_frames_are_node_pfns():
    frames = iter(range(100, 200))
    table = PageTable(alloc_table_page=lambda: next(frames))
    table.map(0x700, 9)
    path = table.walk_path(0x700)
    assert path[0] == 100  # root got the first frame
    assert len(set(path)) == len(path)


def test_clear_returns_all_leaves():
    table = PageTable()
    table.map(0x100, 1)
    table.map(0x200000, 2)
    leaves, interior = table.clear()
    assert sorted(leaves) == [1, 2]
    assert interior > 0
    assert table.table_pages == 1
    assert table.mapped_pages == 0
    assert table.walk(0x100) is None


def test_free_callback_invoked():
    freed = []
    counter = iter(range(1000))
    table = PageTable(
        alloc_table_page=lambda: next(counter),
        free_table_page=freed.append,
    )
    table.map(0x9000, 5)
    table.clear()
    assert len(freed) == 3
    table.release_root()
    assert len(freed) == 4


def test_mappings_iterates_everything():
    table = PageTable()
    expected = {}
    for i in range(20):
        vpn = i * 0x1111
        table.map(vpn, i)
        expected[vpn] = i
    assert dict(table.mappings()) == expected


@settings(max_examples=40, deadline=None)
@given(
    vpns=st.lists(
        st.integers(min_value=0, max_value=(1 << 36) - 1),
        unique=True,
        max_size=40,
    )
)
def test_map_unmap_roundtrip_property(vpns):
    """After mapping and unmapping everything, only the root remains and
    mapped_pages returns to zero."""
    table = PageTable()
    for i, vpn in enumerate(vpns):
        table.map(vpn, i + 1)
    assert table.mapped_pages == len(vpns)
    for i, vpn in enumerate(vpns):
        unmapped, released, _ = table.unmap_range(vpn, 1)
        assert unmapped == [vpn] and released[-1] == i + 1
    assert table.mapped_pages == 0
    assert table.table_pages == 1


@settings(max_examples=40, deadline=None)
@given(
    vpns=st.lists(
        st.integers(min_value=0, max_value=(1 << 36) - 1),
        unique=True,
        min_size=1,
        max_size=30,
    )
)
def test_walk_agrees_with_mappings_property(vpns):
    table = PageTable()
    for i, vpn in enumerate(vpns):
        table.map(vpn, i + 1000)
    for i, vpn in enumerate(vpns):
        assert table.walk(vpn) == i + 1000
    assert dict(table.mappings()) == {
        vpn: i + 1000 for i, vpn in enumerate(vpns)
    }
