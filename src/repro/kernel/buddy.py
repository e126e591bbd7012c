"""Binary buddy physical page allocator.

The kernel's physical allocator (§2.1 step 7) hands out naturally-aligned
power-of-two blocks of page frames, splitting larger blocks on demand and
coalescing freed buddies. Frame numbers are plain ints in
``[base, base + total_frames)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

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
        """Allocate ``pages`` individual frames (order-0 blocks).

        Exactly ``pages`` calls of ``alloc(0)``: the same frames in the
        same order, the same free lists and the same stats, but a whole
        block at a time. The smallest free block is the one ``alloc(0)``
        would split, and page-by-page allocation then walks it in address
        order, leaving the aligned decomposition of its tail free. Raises
        :class:`OutOfMemoryError`, changing nothing, if fewer than
        ``pages`` frames are free.
        """
        if pages <= 0:
            return []
        if pages > self.free_frames:
            raise OutOfMemoryError(f"{pages} frames requested")
        frames: List[int] = []
        free_lists = self.free_lists
        splits = 0
        order = 0
        remaining = pages
        while remaining:
            while order < MAX_ORDER and not free_lists[order]:
                order += 1
            size = 1 << order
            blocks = free_lists[order]
            if blocks:
                # Whole blocks go out lowest first, as repeated min()
                # would take them; only the last may be split.
                whole = min(len(blocks), remaining >> order)
                taken = sorted(blocks)[: whole or 1]
                blocks.difference_update(taken)
            else:
                whole = min(
                    (self._top_end - self._next_top) >> MAX_ORDER,
                    remaining >> MAX_ORDER,
                )
                taken = range(
                    self._next_top, self._next_top + (whole or 1) * size, size
                )
                self._next_top = taken[-1] + size
            for block in taken[:whole]:
                frames.extend(range(block, block + size))
            # Walking an order-k block takes k splits for its first frame
            # and trailing_zeros(i) for frame i, k + m - popcount(m) over
            # frames 0..m: 2**k - 1 for the whole block.
            splits += whole * (size - 1)
            remaining -= whole << order
            if not whole:
                block = taken[0]
                frames.extend(range(block, block + remaining))
                last = remaining - 1
                splits += order + last - bin(last).count("1")
                # The untaken tail [remaining, size) decomposes into one
                # aligned block per set bit of size - remaining, smallest
                # first.
                offset = remaining
                rest = size - remaining
                for low in range(order):
                    if rest >> low & 1:
                        free_lists[low].add(block + offset)
                        offset += 1 << low
                remaining = 0
        self._allocated.update(dict.fromkeys(frames, 0))
        if splits:
            self.stats.add("splits", splits)
        self.stats.add("allocs", pages)
        self.stats.add("frames_out", pages)
        return frames

    def free(self, block: int, order: int | None = None) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        if order is None:
            order = self._allocated.get(block, 0)
        self._free_blocks((block,), order)

    def free_pages(self, frames: Iterable[int]) -> None:
        """Free order-0 frames: ``free(frame)`` for each in turn, with the
        stats summed once."""
        self._free_blocks(frames, 0)

    def _free_blocks(self, blocks: Iterable[int], order: int) -> None:
        """Free ``blocks``, all allocated at ``order``, in turn; each
        coalesces with its free buddy as far up as the top order."""
        allocated = self._allocated
        free_lists = self.free_lists
        base = self.base
        freed = coalesces = 0
        try:
            for block in blocks:
                actual = allocated.get(block)
                if actual is None:
                    raise ValueError(
                        f"frame {block} is not an allocated block"
                    )
                if actual != order:
                    raise ValueError(
                        f"block {block} was allocated at order {actual}, "
                        f"freed at {order}"
                    )
                del allocated[block]
                freed += 1
                current = block - base
                while actual < MAX_ORDER:
                    buddy = current ^ (1 << actual)
                    buddies = free_lists[actual]
                    if base + buddy not in buddies:
                        break
                    buddies.discard(base + buddy)
                    current &= ~(1 << actual)
                    actual += 1
                    coalesces += 1
                free_lists[actual].add(base + current)
        finally:
            if freed:
                self.stats.add("frees", freed)
                self.stats.add("frames_out", -(freed << order))
            if coalesces:
                self.stats.add("coalesces", coalesces)

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
