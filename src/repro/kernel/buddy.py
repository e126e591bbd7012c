"""Binary buddy physical page allocator.

The kernel's physical allocator (§2.1 step 7) hands out naturally-aligned
power-of-two blocks of page frames, splitting larger blocks on demand and
coalescing freed buddies. Frame numbers are plain ints in
``[base, base + total_frames)``.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.sim.stats import ScopedStats, Stats

MAX_ORDER = 10  # largest block: 2**10 pages = 4 MB, matching Linux


class OutOfMemoryError(MemoryError):
    """The buddy allocator has no block large enough for the request."""


class BuddyAllocator:
    """Buddy allocator over a contiguous frame range.

    ``free_lists[order]`` holds the start frames of free blocks of size
    ``2**order`` pages. Blocks are naturally aligned relative to ``base``,
    which makes the buddy of block ``b`` at order ``k`` simply
    ``b XOR (1 << k)`` (in base-relative coordinates).

    The top-order blocks no allocation has touched yet are not listed:
    they are always the suffix ``[_next_top, _top_end)``, because an
    allocation takes the lowest free top-order block, and
    ``free_lists[MAX_ORDER]`` holds only the blocks freed back to the top
    order, all of which lie below ``_next_top``.
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
        whole top-order blocks from ``base`` up (the untouched range),
        then the tail below the top order in descending powers of two
        (each starts where a larger block ended, so each is aligned)."""
        full = self.total_frames - self.total_frames % (1 << MAX_ORDER)
        self._next_top = self.base
        self._top_end = self.base + full
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
        while search < MAX_ORDER and not self.free_lists[search]:
            search += 1
        if self.free_lists[search]:
            block = min(self.free_lists[search])
            self.free_lists[search].discard(block)
        elif self._next_top < self._top_end:
            block = self._next_top
            self._next_top += 1 << MAX_ORDER
        else:
            raise OutOfMemoryError(
                f"no free block of order {order} or larger"
            )
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
        """Total frames currently free: on the free lists or untouched."""
        return self._top_end - self._next_top + sum(
            len(blocks) << order
            for order, blocks in enumerate(self.free_lists)
        )

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self.free_frames

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests).

        Free blocks must be disjoint, in-range, aligned, and together with
        allocated blocks and the untouched top-order range exactly tile
        the managed range.
        """
        top = 1 << MAX_ORDER
        if not (
            self.base <= self._next_top <= self._top_end
            and (self._next_top - self.base) % top == 0
        ):
            raise AssertionError(
                f"untouched range [{self._next_top}, {self._top_end}) "
                "is misplaced"
            )
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
        expected = set(range(self.base, self._next_top))
        expected.update(range(self._top_end, self.base + self.total_frames))
        if seen != expected:
            raise AssertionError("free+allocated blocks do not tile range")
