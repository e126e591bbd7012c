"""Unit and property tests for the buddy allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.buddy import BuddyAllocator, MAX_ORDER, OutOfMemoryError
from repro.sim.stats import Stats


def make_buddy(frames=1024, base=0):
    return BuddyAllocator(base=base, total_frames=frames, stats=Stats())


def test_simple_alloc_free():
    buddy = make_buddy()
    frame = buddy.alloc(0)
    assert 0 <= frame < 1024
    assert buddy.free_frames == 1023
    buddy.free(frame)
    assert buddy.free_frames == 1024


def test_alloc_returns_aligned_blocks():
    buddy = make_buddy()
    for order in range(5):
        block = buddy.alloc(order)
        assert block % (1 << order) == 0
        buddy.free(block)


def test_split_and_coalesce_roundtrip():
    buddy = make_buddy(frames=16)
    frames = [buddy.alloc(0) for _ in range(16)]
    assert buddy.free_frames == 0
    with pytest.raises(OutOfMemoryError):
        buddy.alloc(0)
    for frame in frames:
        buddy.free(frame)
    # Everything should coalesce back into one order-4 block... but
    # MAX_ORDER allows it only if 16 frames coalesce fully.
    assert buddy.free_frames == 16
    assert buddy.free_lists[4] == {0}


def test_double_free_rejected():
    buddy = make_buddy()
    frame = buddy.alloc(0)
    buddy.free(frame)
    with pytest.raises(ValueError):
        buddy.free(frame)


def test_free_unallocated_rejected():
    buddy = make_buddy()
    with pytest.raises(ValueError):
        buddy.free(123)


def test_free_with_wrong_order_rejected():
    buddy = make_buddy()
    block = buddy.alloc(2)
    with pytest.raises(ValueError):
        buddy.free(block, order=1)
    buddy.free(block, order=2)


def test_nonzero_base():
    buddy = make_buddy(frames=64, base=1000)
    frame = buddy.alloc(0)
    assert 1000 <= frame < 1064
    buddy.free(frame)
    buddy.check_invariants()


def test_non_power_of_two_range():
    buddy = make_buddy(frames=100)
    buddy.check_invariants()
    assert buddy.free_frames == 100
    blocks = [buddy.alloc(0) for _ in range(100)]
    assert len(set(blocks)) == 100
    with pytest.raises(OutOfMemoryError):
        buddy.alloc(0)


def test_alloc_order_out_of_range():
    buddy = make_buddy()
    with pytest.raises(ValueError):
        buddy.alloc(MAX_ORDER + 1)
    with pytest.raises(ValueError):
        buddy.alloc(-1)


def test_alloc_pages_bulk():
    buddy = make_buddy()
    frames = buddy.alloc_pages(10)
    assert len(frames) == len(set(frames)) == 10
    assert buddy.allocated_frames == 10


def test_stats_recorded():
    stats = Stats()
    buddy = BuddyAllocator(base=0, total_frames=64, stats=stats)
    frame = buddy.alloc(0)
    buddy.free(frame)
    assert stats["buddy.allocs"] == 1
    assert stats["buddy.frees"] == 1
    assert stats["buddy.splits"] > 0
    assert stats["buddy.coalesces"] > 0


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=4)),
        max_size=60,
    )
)
def test_invariants_hold_under_random_ops(ops):
    """Free blocks stay disjoint, aligned, and tile the range."""
    buddy = make_buddy(frames=256)
    live = []
    for is_alloc, order in ops:
        if is_alloc:
            try:
                live.append(buddy.alloc(order))
            except OutOfMemoryError:
                pass
        elif live:
            buddy.free(live.pop())
    buddy.check_invariants()


@settings(max_examples=30, deadline=None)
@given(orders=st.lists(st.integers(min_value=0, max_value=3), max_size=30))
def test_full_free_restores_all_frames(orders):
    buddy = make_buddy(frames=512)
    blocks = []
    for order in orders:
        try:
            blocks.append(buddy.alloc(order))
        except OutOfMemoryError:
            pass
    for block in blocks:
        buddy.free(block)
    assert buddy.free_frames == 512
    buddy.check_invariants()


def reference_seed(base, total_frames):
    """The original block-at-a-time seeding loop, kept as the reference
    the bulk seeding must reproduce exactly."""
    free_lists = [set() for _ in range(MAX_ORDER + 1)]
    offset = 0
    remaining = total_frames
    while remaining > 0:
        order = MAX_ORDER
        while order > 0 and (
            (1 << order) > remaining or offset % (1 << order) != 0
        ):
            order -= 1
        free_lists[order].add(base + offset)
        offset += 1 << order
        remaining -= 1 << order
    return free_lists


def reference_buddy(base, total_frames):
    buddy = make_buddy(frames=total_frames, base=base)
    buddy.free_lists = reference_seed(base, total_frames)
    return buddy


@settings(max_examples=80, deadline=None)
@given(
    base=st.one_of(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=64).map(lambda k: k << MAX_ORDER),
    ),
    total_frames=st.one_of(
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=1, max_value=4).map(lambda k: k << MAX_ORDER),
    ),
    ops=st.lists(
        st.tuples(
            st.booleans(), st.integers(min_value=0, max_value=MAX_ORDER)
        ),
        max_size=40,
    ),
)
def test_bulk_seeding_matches_reference_loop(base, total_frames, ops):
    """Bulk seeding yields the reference loop's free lists for any base
    (aligned or not) and any size (multiple of the top order or not), and
    both allocators then hand out identical frames."""
    buddy = make_buddy(frames=total_frames, base=base)
    assert buddy.free_lists == reference_seed(base, total_frames)
    buddy.check_invariants()
    reference = reference_buddy(base, total_frames)
    live = []
    for is_alloc, order in ops:
        if is_alloc:
            try:
                block = buddy.alloc(order)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    reference.alloc(order)
                continue
            assert reference.alloc(order) == block
            live.append(block)
        elif live:
            block = live.pop(0)
            buddy.free(block)
            reference.free(block)
        assert buddy.free_lists == reference.free_lists
    buddy.check_invariants()
