"""Four-level (x86-64 style) page tables.

Virtual page numbers are split into four 9-bit indices (PGD/PUD/PMD/PTE).
Each table node occupies one physical page frame obtained from a caller
supplied frame source, so kernel page usage (and Memento's pool usage) is
charged to the right ledger, and page walks can be simulated as real memory
accesses to the node frames. The same structure backs both the kernel's
CR3-rooted tables and Memento's MPTR-rooted hardware-managed tables (§3.2).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

LEVELS = 4
INDEX_BITS = 9
INDEX_MASK = (1 << INDEX_BITS) - 1


def split_vpn(vpn: int) -> Tuple[int, int, int, int]:
    """Split a virtual page number into (PGD, PUD, PMD, PTE) indices."""
    return (
        (vpn >> (3 * INDEX_BITS)) & INDEX_MASK,
        (vpn >> (2 * INDEX_BITS)) & INDEX_MASK,
        (vpn >> INDEX_BITS) & INDEX_MASK,
        vpn & INDEX_MASK,
    )


class _Node:
    """One page-table page: a sparse array of up to 512 entries."""

    __slots__ = ("entries", "pfn")

    def __init__(self, pfn: int) -> None:
        self.entries: dict = {}
        self.pfn = pfn


class PageTable:
    """A 4-level page table with per-node frame accounting.

    ``alloc_table_page()`` must return a physical frame number for each new
    table page (the root included); ``free_table_page(pfn)`` is called when
    a table page is torn down.
    """

    def __init__(
        self,
        alloc_table_page: Optional[Callable[[], int]] = None,
        free_table_page: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._alloc_page = alloc_table_page or self._default_source().__next__
        self._free_page = free_table_page or (lambda pfn: None)
        self.table_pages = 0
        self.mapped_pages = 0
        self.root = self._new_node()

    @staticmethod
    def _default_source() -> Iterator[int]:
        """Synthetic frame numbers for standalone use (tests)."""
        frame = 1 << 40
        while True:
            yield frame
            frame += 1

    def _new_node(self) -> _Node:
        node = _Node(self._alloc_page())
        self.table_pages += 1
        return node

    def _drop_node(self, node: _Node) -> None:
        self.table_pages -= 1
        self._free_page(node.pfn)

    def walk(self, vpn: int) -> Optional[int]:
        """Translate ``vpn``; return the mapped frame or None."""
        node = self.root
        indices = split_vpn(vpn)
        for index in indices[:-1]:
            child = node.entries.get(index)
            if child is None:
                return None
            node = child
        return node.entries.get(indices[-1])

    def walk_path(self, vpn: int) -> List[int]:
        """Frames of the table nodes a walk of ``vpn`` touches, root first.

        The walker issues one memory access per level; the harness replays
        these through the cache hierarchy so upper-level nodes enjoy
        realistic locality.
        """
        return [node.pfn for node in self._path(vpn)[0]]

    def _path(self, vpn: int) -> Tuple[List[_Node], Tuple[int, int, int]]:
        """The nodes on ``vpn``'s path, root first, up to the first
        missing one (all four when the leaf table exists), and the
        three upper-level indices."""
        indices = split_vpn(vpn)[:-1]
        nodes = [self.root]
        for index in indices:
            child = nodes[-1].entries.get(index)
            if child is None:
                break
            nodes.append(child)
        return nodes, indices

    def _build_path(self, vpn: int) -> Tuple[_Node, int]:
        """The leaf table of ``vpn``, building missing levels top-down;
        returns it and the number of table pages created."""
        created = 0
        node = self.root
        for index in split_vpn(vpn)[:-1]:
            child = node.entries.get(index)
            if child is None:
                child = self._new_node()
                node.entries[index] = child
                created += 1
            node = child
        return node, created

    def map(self, vpn: int, pfn: int) -> int:
        """Install ``vpn -> pfn``; return the number of table pages created.

        Remapping an already-mapped page raises — the kernel fault handler
        and Memento's walker must never double-map.
        """
        leaf, created = self._build_path(vpn)
        last = vpn & INDEX_MASK
        if last in leaf.entries:
            raise ValueError(f"vpn {vpn:#x} is already mapped")
        leaf.entries[last] = pfn
        self.mapped_pages += 1
        return created

    def map_range(
        self, vpn: int, pages: int, alloc_frames: Callable[[int], List[int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Map every unmapped page of ``[vpn, vpn + pages)`` to a frame
        from ``alloc_frames(n)`` (``n`` frames per call).

        Works one leaf table (512 entries) at a time and draws frames and
        table pages in the order page-at-a-time ``map`` calls would: the
        first page of a leaf with no table yet takes its data frame
        before the table pages built for it, then the rest of the leaf's
        frames come in one call. Mapped pages are skipped. Returns
        ``(frames, created)``: the new frames in page order, and
        ``(index into frames, table pages built)`` for each page that
        built tables.
        """
        frames: List[int] = []
        created: List[Tuple[int, int]] = []
        end = vpn + pages
        while vpn < end:
            stop = min(end, (vpn | INDEX_MASK) + 1)
            lo = vpn & INDEX_MASK
            slots = range(lo, lo + stop - vpn)
            nodes, _ = self._path(vpn)
            if len(nodes) <= LEVELS - 1:
                new = alloc_frames(1)
                leaf, built = self._build_path(vpn)
                created.append((len(frames), built))
                new += alloc_frames(len(slots) - 1)
            else:
                leaf = nodes[-1]
                slots = [i for i in slots if i not in leaf.entries]
                new = alloc_frames(len(slots))
            leaf.entries.update(zip(slots, new))
            frames += new
            vpn = stop
        self.mapped_pages += len(frames)
        return frames, created

    def unmap_range(
        self, vpn: int, pages: int
    ) -> Tuple[List[int], List[int], int]:
        """Remove every mapping in ``[vpn, vpn + pages)``, one leaf table
        at a time, tearing down the tables it empties (never the root).

        Returns ``(vpns, released, tables)``: the pages that were mapped,
        in order; their frames and the emptied table pages in the order
        page-at-a-time ``unmap`` calls free them (each table page just
        before the data frame whose unmap emptied it, leaf level first);
        and how many of ``released`` are table pages. The table pages
        leave ``table_pages`` here but are not passed to
        ``free_table_page``: the caller returns every frame of
        ``released`` to its source, in that order (a LIFO pool keeps it).
        """
        vpns: List[int] = []
        released: List[int] = []
        tables = 0
        end = vpn + pages
        while vpn < end:
            nodes, indices = self._path(vpn)
            if len(nodes) < LEVELS:
                # No table below this level: skip the span it would map.
                shift = INDEX_BITS * (LEVELS - len(nodes))
                vpn = min(end, ((vpn >> shift) + 1) << shift)
                continue
            stop = min(end, (vpn | INDEX_MASK) + 1)
            entries = nodes[-1].entries
            lo = vpn & INDEX_MASK
            hi = lo + stop - vpn
            if hi - lo <= len(entries):
                mapped = [i for i in range(lo, hi) if i in entries]
            else:
                mapped = sorted(i for i in entries if lo <= i < hi)
            frames = [entries.pop(i) for i in mapped]
            vpns.extend(vpn - lo + i for i in mapped)
            if mapped and not entries:
                released += frames[:-1]
                for depth in range(LEVELS - 1, 0, -1):
                    child = nodes[depth]
                    if child.entries:
                        break
                    del nodes[depth - 1].entries[indices[depth - 1]]
                    self.table_pages -= 1
                    released.append(child.pfn)
                    tables += 1
                released.append(frames[-1])
            else:
                released += frames
            vpn = stop
        self.mapped_pages -= len(vpns)
        return vpns, released, tables

    def mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield every ``(vpn, pfn)`` mapping (teardown/test helper)."""

        def recurse(node: _Node, prefix: int, level: int):
            for index, entry in node.entries.items():
                if level == LEVELS - 1:
                    yield (prefix << INDEX_BITS) | index, entry
                else:
                    yield from recurse(
                        entry, (prefix << INDEX_BITS) | index, level + 1
                    )

        yield from recurse(self.root, 0, 0)

    def clear(self) -> Tuple[List[int], int]:
        """Tear down the whole table (process exit / batch free).

        Returns ``(freed_pfns, table_pages_freed)``, the frames in
        :meth:`mappings` order. The root page remains allocated — an
        empty address space still has a root.
        """
        freed_pfns: List[int] = []

        def drop_children(node: _Node, level: int) -> int:
            total = 0
            for child in node.entries.values():
                if level == LEVELS - 2:
                    freed_pfns.extend(child.entries.values())
                else:
                    total += drop_children(child, level + 1)
                total += 1
                # Route through _drop_node so the node count and the
                # frame source stay in lockstep — a direct _free_page
                # with a bulk count adjustment afterwards is how the
                # two ledgers drift apart (audit rule: pool-balance).
                self._drop_node(child)
            return total

        interior = drop_children(self.root, 0)
        self.mapped_pages = 0
        self.root.entries.clear()
        return freed_pfns, interior

    def release_root(self) -> None:
        """Return the root page to the frame source (final teardown).

        Only legal on an empty table: callers must ``clear()`` (or unmap
        everything) first. After this the table must not be used again.
        Centralising the root teardown here keeps ``table_pages`` and the
        frame source in lockstep (audit rule: pool-balance) instead of
        each caller freeing the root frame and adjusting the counter by
        hand.
        """
        if self.root.entries:
            raise ValueError("release_root() on a non-empty page table")
        self._drop_node(self.root)
