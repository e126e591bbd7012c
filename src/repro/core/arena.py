"""Memento arenas: header layout, body layout, and bitmap operations.

An arena is a consecutive virtual range serving one size class (Fig. 5a).
Its header holds the base VA, a 256-bit allocation bitmap, an 11-bit bypass
counter, and prev/next pointers linking it onto the per-class available or
full list. The body is an array of 256 same-size objects.

Layout modeled here: the header occupies the first 64 B cache line of the
arena; the body starts right after it. A header line of 64 B fits VA (6 B)
+ bitmap (32 B) + counter (2 B) + prev/next (12 B) with room to spare, and
keeps single-page arenas for small classes ("an arena can consist of
single or multiple pages depending on the particular size class", §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import MementoConfig
from repro.sim.params import LINE_SIZE, PAGE_SIZE

#: Bytes of the in-arena header (one cache line).
HEADER_BYTES = LINE_SIZE


def arena_span_bytes(size_class: int, config: MementoConfig) -> int:
    """Page-rounded virtual span of one arena of ``size_class``.

    Known in advance for every class, which is what makes the free-path
    address rounding a pure bit operation.
    """
    body = config.objects_per_arena * config.object_size(size_class)
    raw = HEADER_BYTES + body
    return -(-raw // PAGE_SIZE) * PAGE_SIZE


@dataclass
class ArenaHeader:
    """One arena's bookkeeping state (the Fig. 5a header).

    ``prev``/``next`` link the arena onto its size class's available or
    full doubly-linked list; they reference other headers directly (the
    hardware stores physical addresses — the reference *is* our behavioral
    stand-in, with the PA kept alongside for cost accounting).
    """

    va: int  # base virtual address of the arena
    size_class: int
    pa: int  # physical address of the header (first arena page)
    bitmap: int = 0
    bypass_counter: int = 0
    prev: Optional["ArenaHeader"] = field(default=None, repr=False)
    next: Optional["ArenaHeader"] = field(default=None, repr=False)
    objects: int = 256
    #: Which per-class list the arena currently sits on ("available",
    #: "full", or None while resident in the HOT). Maintained by ArenaList.
    list_name: Optional[str] = field(default=None, repr=False)
    #: Object size in bytes; creators that replay allocations through the
    #: header set it so address math needs no config lookup.
    obj_size: int = field(default=0, repr=False, compare=False)
    #: All-allocated bitmap value, fixed by ``objects``.
    full_mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        self.full_mask = (1 << self.objects) - 1

    # -- bitmap operations (what the HOT manipulates) -----------------------

    def find_free_slot(self) -> Optional[int]:
        """Index of a clear bit, or None if the arena is full.

        Hardware scans the bitmap with a priority encoder; lowest index
        first keeps allocation addresses dense.
        """
        inverted = ~self.bitmap & self.full_mask
        if not inverted:
            return None
        return (inverted & -inverted).bit_length() - 1

    def set_slot(self, index: int) -> None:
        """Mark object ``index`` allocated."""
        mask = 1 << self._checked(index)
        if self.bitmap & mask:
            raise ValueError(f"slot {index} is already allocated")
        self.bitmap |= mask

    def clear_slot(self, index: int) -> bool:
        """Mark object ``index`` free; returns False if it was not set
        (double free — the caller raises to software)."""
        mask = 1 << self._checked(index)
        if not self.bitmap & mask:
            return False
        self.bitmap &= ~mask
        return True

    def slot_is_set(self, index: int) -> bool:
        return bool(self.bitmap & (1 << self._checked(index)))

    def _checked(self, index: int) -> int:
        if not 0 <= index < self.objects:
            raise ValueError(f"object index {index} out of range")
        return index

    @property
    def is_full(self) -> bool:
        return self.bitmap == self.full_mask

    @property
    def is_empty(self) -> bool:
        return self.bitmap == 0

    @property
    def live_objects(self) -> int:
        return self.bitmap.bit_count()

    # -- address arithmetic ---------------------------------------------------

    def object_addr(self, index: int, config: MementoConfig) -> int:
        """VA of object ``index`` (header VA + body offset)."""
        return (
            self.va
            + HEADER_BYTES
            + self._checked(index) * config.object_size(self.size_class)
        )

    def object_index(self, addr: int, config: MementoConfig) -> int:
        """Recover the object index from an object VA.

        Raises ValueError for addresses that are not object boundaries —
        hardware validates the operand of obj-free the same way.
        """
        offset = addr - self.va - HEADER_BYTES
        object_size = config.object_size(self.size_class)
        if offset < 0 or offset % object_size:
            raise ValueError(f"{addr:#x} is not an object boundary")
        index = offset // object_size
        self._checked(index)
        return index

    def body_line_index(self, addr: int) -> int:
        """Cache-line index of ``addr`` within the arena (for the bypass
        counter; the 11-bit counter covers the largest arena's lines)."""
        return (addr - self.va) // LINE_SIZE
