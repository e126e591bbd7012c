"""Unit and property tests for the buddy allocator."""

from __future__ import annotations

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.buddy import BuddyAllocator, MAX_ORDER, OutOfMemoryError
from repro.sim.stats import ScopedStats, Stats


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
    buddy = ReferenceBuddyAllocator(
        base=base, total_frames=total_frames, stats=Stats()
    )
    buddy.free_lists = reference_seed(base, total_frames)
    return buddy


def materialized(buddy):
    """The free lists with the untouched top-order range listed as
    blocks: the form the reference allocator keeps."""
    free_lists = [set(blocks) for blocks in buddy.free_lists]
    free_lists[MAX_ORDER].update(
        range(buddy._next_top, buddy._top_end, 1 << MAX_ORDER)
    )
    return free_lists


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
    assert materialized(buddy) == reference_seed(base, total_frames)
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
        assert materialized(buddy) == reference.free_lists
    buddy.check_invariants()


def test_top_order_blocks_come_from_the_bump_range():
    buddy = make_buddy(frames=4 << MAX_ORDER, base=3)
    top = 1 << MAX_ORDER
    assert buddy.free_lists[MAX_ORDER] == set()
    first, second = buddy.alloc(MAX_ORDER), buddy.alloc(MAX_ORDER)
    assert (first, second) == (3, 3 + top)
    buddy.free(first)
    # A block freed back to the top order goes out before the untouched
    # range.
    assert buddy.free_lists[MAX_ORDER] == {3}
    assert buddy.alloc(MAX_ORDER) == 3
    frames = buddy.alloc_pages(top)
    assert frames == list(range(3 + 2 * top, 3 + 3 * top))
    for frame in frames:
        buddy.free(frame)
    # The order-0 frees coalesce back into one top-order block.
    assert buddy.free_lists[MAX_ORDER] == {3 + 2 * top}
    assert buddy.free_frames == 2 * top
    buddy.check_invariants()


def test_exhausting_the_bump_range_raises():
    buddy = make_buddy(frames=(2 << MAX_ORDER) + 1)
    buddy.alloc(MAX_ORDER)
    buddy.alloc(MAX_ORDER)
    with pytest.raises(OutOfMemoryError):
        buddy.alloc(MAX_ORDER)
    assert buddy.alloc(0) == 2 << MAX_ORDER
    assert buddy.free_frames == 0
    buddy.check_invariants()


@settings(max_examples=150, deadline=None)
@given(
    base=st.one_of(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=64).map(lambda k: k << MAX_ORDER),
    ),
    tops=st.integers(min_value=0, max_value=4),
    tail=st.one_of(
        st.just(0), st.integers(min_value=1, max_value=(1 << MAX_ORDER) - 1)
    ),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("alloc"),
                st.one_of(
                    st.integers(min_value=0, max_value=MAX_ORDER),
                    st.just(MAX_ORDER),
                ),
            ),
            st.tuples(st.just("free"), st.integers(min_value=0)),
        ),
        max_size=80,
    ),
)
def test_matches_frozen_reference_allocator(base, tops, tail, ops):
    """The bump-pointer allocator and a frozen copy of the set-seeded
    one hand out identical frames, run out at the same step and agree
    on ``free_frames``, for any base and tail, over every order and
    frees that coalesce back to the top order."""
    total_frames = max(1, (tops << MAX_ORDER) + tail)
    buddy = make_buddy(frames=total_frames, base=base)
    reference = ReferenceBuddyAllocator(
        base=base, total_frames=total_frames, stats=Stats()
    )
    live = []
    for kind, arg in ops:
        if kind == "alloc":
            try:
                block = buddy.alloc(arg)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    reference.alloc(arg)
                continue
            assert reference.alloc(arg) == block
            live.append(block)
        elif live:
            block = live.pop(arg % len(live))
            buddy.free(block)
            reference.free(block)
        assert buddy.free_frames == reference.free_frames
    assert materialized(buddy) == reference.free_lists
    buddy.check_invariants()
    for block in live:
        buddy.free(block)
        reference.free(block)
    assert buddy.free_frames == reference.free_frames == total_frames
    assert materialized(buddy) == reference.free_lists
    buddy.check_invariants()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    base=st.one_of(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=64).map(lambda k: k << MAX_ORDER),
    ),
    total_frames=st.one_of(
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=1, max_value=4).map(lambda k: k << MAX_ORDER),
    ),
    history=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "pages", "free_pages"]),
            st.integers(min_value=0, max_value=1 << 16),
        ),
        max_size=30,
    ),
)
def test_bulk_pages_match_reference_page_loop(base, total_frames, history):
    """``alloc_pages(n)`` and ``free_pages(frames)`` against ``n`` calls
    of the frozen allocator's ``alloc(0)`` and one ``free`` per frame,
    from random prior histories of single-block allocs and frees at
    every order: the same frames in the same order, free lists,
    ``_allocated`` (in insertion order) and stats. A request larger than
    the free frames raises and changes nothing."""
    stats, ref_stats = Stats(), Stats()
    buddy = BuddyAllocator(base=base, total_frames=total_frames, stats=stats)
    reference = ReferenceBuddyAllocator(
        base=base, total_frames=total_frames, stats=ref_stats
    )
    blocks: List[int] = []  # single blocks, any order
    pages: List[int] = []  # order-0 frames from bulk calls
    for kind, arg in history:
        if kind == "alloc":
            order = arg % (MAX_ORDER + 1)
            try:
                block = buddy.alloc(order)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    reference.alloc(order)
                continue
            assert reference.alloc(order) == block
            blocks.append(block)
        elif kind == "free" and blocks:
            block = blocks.pop(arg % len(blocks))
            buddy.free(block)
            reference.free(block)
        elif kind == "pages":
            count = arg % (total_frames + 2)
            if count > buddy.free_frames:
                before = (materialized(buddy), dict(buddy._allocated))
                with pytest.raises(OutOfMemoryError):
                    buddy.alloc_pages(count)
                assert (materialized(buddy), buddy._allocated) == before
                continue
            frames = buddy.alloc_pages(count)
            assert frames == [reference.alloc(0) for _ in range(count)]
            pages.extend(frames)
        elif kind == "free_pages" and pages:
            # A random subset, in a random order.
            chosen = [
                pages.pop((arg * (i + 7)) % len(pages))
                for i in range(1 + arg % len(pages))
            ]
            buddy.free_pages(chosen)
            for frame in chosen:
                reference.free(frame)
        assert materialized(buddy) == reference.free_lists
        assert list(buddy._allocated.items()) == list(
            reference._allocated.items()
        )
        assert stats.snapshot() == ref_stats.snapshot()
    buddy.check_invariants()


def test_alloc_pages_walks_a_split_block_in_address_order():
    buddy = make_buddy(frames=64)
    assert buddy.alloc_pages(3) == [0, 1, 2]
    # The tail of the first 64-frame block: 3 (order 0), 4 (order 2),
    # 8 (order 3), 16 (order 4), 32 (order 5).
    assert [sorted(blocks) for blocks in buddy.free_lists[:6]] == [
        [3], [], [4], [8], [16], [32],
    ]
    # Six splits for frame 0, none for 1, one for 2.
    assert buddy.stats["splits"] == 7
    buddy.free_pages([2, 0, 1])
    assert buddy.free_lists[6] == {0}
    assert buddy.stats["coalesces"] == 7
    assert buddy.stats["frees"] == 3 and buddy.stats["frames_out"] == 0


def test_free_pages_rejects_unallocated_and_larger_blocks():
    buddy = make_buddy()
    block = buddy.alloc(2)
    with pytest.raises(ValueError, match="allocated at order 2"):
        buddy.free_pages([block])
    with pytest.raises(ValueError, match="not an allocated block"):
        buddy.free_pages([block + 100])


# A verbatim copy of the allocator before the untouched top-order range
# became a bump pointer: it seeds every top-order block into a set and
# takes ``min()`` over it. The property tests above hold the current
# allocator to it.
class ReferenceBuddyAllocator:
    """Buddy allocator over a contiguous frame range.

    ``free_lists[order]`` holds the start frames of free blocks of size
    ``2**order`` pages. Blocks are naturally aligned relative to ``base``,
    which makes the buddy of block ``b`` at order ``k`` simply
    ``b XOR (1 << k)`` (in base-relative coordinates).
    """

    def __init__(
        self, base: int, total_frames: int, stats: Stats | ScopedStats
    ) -> None:
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.base = base
        self.total_frames = total_frames
        self.stats = (
            stats.scoped("buddy") if isinstance(stats, Stats) else stats
        )
        self.free_lists: List[Set[int]] = [
            set() for _ in range(MAX_ORDER + 1)
        ]
        self._allocated: Dict[int, int] = {}  # start frame -> order
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Carve the initial range into maximal aligned free blocks: the
        whole top-order blocks from ``base`` up, then the tail below the
        top order in descending powers of two (each starts where a larger
        block ended, so each is aligned)."""
        top = 1 << MAX_ORDER
        full = self.total_frames - self.total_frames % top
        self.free_lists[MAX_ORDER].update(
            range(self.base, self.base + full, top)
        )
        offset = full
        for order in range(MAX_ORDER - 1, -1, -1):
            if self.total_frames & (1 << order):
                self.free_lists[order].add(self.base + offset)
                offset += 1 << order

    def alloc(self, order: int = 0) -> int:
        """Allocate a block of ``2**order`` frames; return its start frame."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order {order} out of range")
        search = order
        while search <= MAX_ORDER and not self.free_lists[search]:
            search += 1
        if search > MAX_ORDER:
            raise OutOfMemoryError(
                f"no free block of order {order} or larger"
            )
        block = min(self.free_lists[search])
        self.free_lists[search].discard(block)
        # Split down to the requested order, freeing the upper halves.
        while search > order:
            search -= 1
            upper = block + (1 << search)
            self.free_lists[search].add(upper)
            self.stats.add("splits")
        self._allocated[block] = order
        self.stats.add("allocs")
        self.stats.add("frames_out", 1 << order)
        return block

    def alloc_pages(self, pages: int) -> List[int]:
        """Allocate ``pages`` individual frames (order-0 blocks)."""
        return [self.alloc(0) for _ in range(pages)]

    def free(self, block: int, order: int | None = None) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        if block not in self._allocated:
            raise ValueError(f"frame {block} is not an allocated block")
        actual = self._allocated[block]
        if order is not None and order != actual:
            raise ValueError(
                f"block {block} was allocated at order {actual}, "
                f"freed at {order}"
            )
        del self._allocated[block]
        self.stats.add("frees")
        self.stats.add("frames_out", -(1 << actual))
        rel = block - self.base
        current = rel
        while actual < MAX_ORDER:
            buddy = current ^ (1 << actual)
            if self.base + buddy not in self.free_lists[actual]:
                break
            self.free_lists[actual].discard(self.base + buddy)
            current = min(current, buddy)
            actual += 1
            self.stats.add("coalesces")
        self.free_lists[actual].add(self.base + current)

    @property
    def free_frames(self) -> int:
        """Total frames currently on the free lists."""
        return sum(
            len(blocks) << order
            for order, blocks in enumerate(self.free_lists)
        )

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self.free_frames

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests).

        Free blocks must be disjoint, in-range, aligned, and together with
        allocated blocks exactly tile the managed range.
        """
        seen: Set[int] = set()
        for order, blocks in enumerate(self.free_lists):
            size = 1 << order
            for block in blocks:
                rel = block - self.base
                if rel % size != 0:
                    raise AssertionError(
                        f"misaligned free block {block} at order {order}"
                    )
                span = set(range(block, block + size))
                if span & seen:
                    raise AssertionError(f"overlapping free block {block}")
                seen |= span
        for block, order in self._allocated.items():
            span = set(range(block, block + (1 << order)))
            if span & seen:
                raise AssertionError(
                    f"allocated block {block} overlaps a free block"
                )
            seen |= span
        expected = set(range(self.base, self.base + self.total_frames))
        if seen != expected:
            raise AssertionError("free+allocated blocks do not tile range")
