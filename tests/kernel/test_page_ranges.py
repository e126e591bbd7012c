"""The kernel's page-range primitives against page-at-a-time loops.

``Kernel.back_range``/``release_range``, ``PageTable.map_range``/
``unmap_range`` and the Memento arena release must hand out and return
the same frames, in the same order, with the same counters, as backing
and unmapping one page at a time did. Each test drives two identical
systems through one seeded history: one through the range code, the
other through the page-at-a-time loops below (the reference side also
runs on the frozen set-seeded buddy of ``test_buddy``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.arena import arena_span_bytes
from repro.core.config import MementoConfig
from repro.core.page_allocator import HardwarePageAllocator
from repro.core.region import MementoRegion
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import INDEX_MASK, PageTable, split_vpn
from repro.sim.machine import Machine
from repro.sim.params import PAGE_SHIFT, PAGE_SIZE

from tests.kernel.test_buddy import ReferenceBuddyAllocator, materialized

LEAF = INDEX_MASK + 1
SEEDS = range(6)


# -- the page-at-a-time reference ----------------------------------------------


def reference_unmap(table, vpn):
    """``PageTable.unmap`` as a standalone walk: unmap one page, tearing
    down the tables it empties through ``free_table_page`` bottom-up."""
    indices = split_vpn(vpn)
    path = []
    node = table.root
    for index in indices[:-1]:
        child = node.entries.get(index)
        if child is None:
            raise KeyError(f"vpn {vpn:#x} is not mapped")
        path.append((node, index))
        node = child
    pfn = node.entries.pop(indices[-1])
    table.mapped_pages -= 1
    child = node
    for parent, index in reversed(path):
        if child.entries:
            break
        del parent.entries[index]
        table._drop_node(child)
        child = parent
    return pfn


def reference_back(kernel, process, vpn, pages):
    """The warm-prefault loop: back each unmapped page in turn."""
    table = process.page_table
    frames = []
    for page in range(vpn, vpn + pages):
        if table.walk(page) is None:
            pfn = kernel.buddy.alloc(0)
            process.charge_user_page()
            table.map(page, pfn)
            frames.append(pfn)
    return frames


def reference_release(kernel, process, vpn, pages):
    """The munmap loop: unmap and free each backed page in turn."""
    table = process.page_table
    vpns = []
    for page in range(vpn, vpn + pages):
        if table.walk(page) is None:
            continue
        kernel.buddy.free(reference_unmap(table, page))
        process.credit_user_page()
        vpns.append(page)
    return vpns


class PageLoopBuddy(ReferenceBuddyAllocator):
    """The frozen buddy, freeing a list of frames one call per frame."""

    def free_pages(self, frames):
        for frame in frames:
            self.free(frame)


def reference_free_arena(allocator, core, process, va, size_class):
    """``HardwarePageAllocator.free_arena``'s page-at-a-time loop."""
    costs = allocator.machine.costs
    state = allocator.state_of(process)
    span = arena_span_bytes(size_class, allocator.config)
    freed = 0
    for vpn in range(va >> PAGE_SHIFT, (va + span) >> PAGE_SHIFT):
        if state.page_table.walk(vpn) is None:
            continue
        allocator.pool.append(reference_unmap(state.page_table, vpn))
        allocator.machine.frames.move("user", "memento")
        freed += 1
        for core_id in state.walker_cores:
            allocator.machine.cores[core_id].tlb.invalidate_pages([vpn])
    remote = len(state.walker_cores - {core.core_id})
    core.charge(
        freed * costs.hw_arena_free_per_page + remote * costs.tlb_shootdown,
        "hw_page",
    )
    owner = state.owner_thread(size_class, va)
    state.free_spans.setdefault((owner, size_class), []).append(va)
    allocator.stats.add("arenas_freed")
    allocator.stats.add("arena_pages_freed", freed)
    return freed


# -- the two systems -----------------------------------------------------------


def kernel_side(reference):
    """A fresh system; the reference side runs the frozen buddy."""
    machine = Machine()
    kernel = Kernel(machine)
    if reference:
        kernel.buddy = PageLoopBuddy(
            base=0,
            total_frames=machine.frames.total_frames,
            stats=machine.stats,
        )
    return machine, kernel, kernel.create_process()


def assert_same_state(subject, reference):
    (machine, kernel, process), (ref_machine, ref_kernel, ref_process) = (
        subject,
        reference,
    )
    table, ref_table = process.page_table, ref_process.page_table
    assert list(table.mappings()) == list(ref_table.mappings())
    assert table.table_pages == ref_table.table_pages
    assert table.mapped_pages == ref_table.mapped_pages
    assert materialized(kernel.buddy) == ref_kernel.buddy.free_lists
    assert list(kernel.buddy._allocated.items()) == list(
        ref_kernel.buddy._allocated.items()
    )
    assert machine.frames.usage_report() == ref_machine.frames.usage_report()
    assert machine.stats.snapshot() == ref_machine.stats.snapshot()
    assert (process.user_pages_live, process.user_pages_aggregate) == (
        ref_process.user_pages_live,
        ref_process.user_pages_aggregate,
    )


def random_range(rng):
    """A page range near a leaf boundary: inside one leaf, straddling
    one or several, or covering whole leaves."""
    leaf = rng.randrange(6)
    start = leaf * LEAF + rng.choice(
        [0, rng.randrange(LEAF), LEAF - rng.randrange(1, 40)]
    )
    pages = rng.choice(
        [1, rng.randrange(1, 64), rng.randrange(1, 3 * LEAF), LEAF]
    )
    return start, pages


@pytest.mark.parametrize("seed", SEEDS)
def test_back_and_release_match_page_loops(seed):
    """Random back/release histories over ranges that straddle leaf
    boundaries and overlap earlier ranges (so partly mapped leaves and
    partly mapped ranges occur) leave both systems identical after
    every step."""
    rng = random.Random(seed)
    subject, reference = kernel_side(False), kernel_side(True)
    base = subject[2].vmas.mmap_base >> PAGE_SHIFT
    assert base == reference[2].vmas.mmap_base >> PAGE_SHIFT
    for _ in range(40):
        start, pages = random_range(rng)
        vpn = base + start
        if rng.random() < 0.6:
            frames, created = subject[1].back_range(subject[2], vpn, pages)
            assert frames == reference_back(
                reference[1], reference[2], vpn, pages
            )
            assert all(0 <= i < len(frames) for i, _ in created)
        else:
            vpns = subject[1].release_range(subject[2], vpn, pages)
            assert vpns == reference_release(
                reference[1], reference[2], vpn, pages
            )
        assert_same_state(subject, reference)
    # Process exit frees whatever is left through the bulk free.
    for machine, kernel, process in (subject, reference):
        kernel.exit_process(machine.core, process)
    assert_same_state(subject, reference)


def test_map_range_draws_the_data_frame_before_new_tables():
    frames = iter(range(100, 10_000))
    table = PageTable(alloc_table_page=lambda: next(frames))
    draw = lambda n: [next(frames) for _ in range(n)]  # noqa: E731
    # Root took 100. Pages LEAF-2 .. LEAF+1 straddle two leaves.
    new, created = table.map_range(LEAF - 2, 4, draw)
    # First leaf: data 101, tables 102-104, data 105; second leaf: data
    # 106, its leaf table 107, data 108.
    assert new == [101, 105, 106, 108]
    assert created == [(0, 3), (2, 1)]
    assert table.table_pages == 5
    # A partly mapped leaf: only the holes are backed, in page order.
    new, created = table.map_range(LEAF - 4, 8, draw)
    assert new == [109, 110, 111, 112]
    assert created == []
    assert [table.walk(v) for v in range(LEAF - 4, LEAF + 4)] == [
        109, 110, 101, 105, 106, 108, 111, 112,
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_unmap_range_keeps_lifo_pool_order(seed):
    """Against a LIFO frame pool (the Memento pool), the frames and
    emptied table pages go back in the order the page-at-a-time unmap
    returned them, so the next frames drawn are the same."""
    rng = random.Random(seed)
    tables, pools = [], []
    for _ in range(2):
        pool = list(range(50_000, 40_000, -1))
        pools.append(pool)
        tables.append(PageTable(alloc_table_page=pool.pop,
                                free_table_page=pool.append))
    table, ref_table = tables
    pool, ref_pool = pools
    for _ in range(40):
        start, pages = random_range(rng)
        if rng.random() < 0.5:
            table.map_range(
                start, pages, lambda n: [pool.pop() for _ in range(n)]
            )
            for vpn in range(start, start + pages):
                if ref_table.walk(vpn) is None:
                    ref_table.map(vpn, ref_pool.pop())
        else:
            vpns, released, freed_tables = table.unmap_range(start, pages)
            pool.extend(released)
            ref_vpns = []
            for vpn in range(start, start + pages):
                if ref_table.walk(vpn) is not None:
                    ref_pool.append(reference_unmap(ref_table, vpn))
                    ref_vpns.append(vpn)
            assert vpns == ref_vpns
            assert len(released) == len(vpns) + freed_tables
        assert pool == ref_pool
        assert list(table.mappings()) == list(ref_table.mappings())
        assert table.table_pages == ref_table.table_pages
        assert table.mapped_pages == ref_table.mapped_pages


def test_unmap_range_skips_missing_tables():
    table = PageTable()
    table.map(5, 1)
    table.map(3 << 27, 2)  # a different top-level entry
    vpns, released, tables = table.unmap_range(0, (3 << 27) + 1)
    assert vpns == [5, 3 << 27]
    # Each page emptied its three tables, which go back before it.
    assert len(released) == 8 and released[3] == 1 and released[7] == 2
    assert tables == 6
    assert table.table_pages == 1 and table.mapped_pages == 0


def memento_side(config, reference):
    machine, kernel, process = kernel_side(reference)
    allocator = HardwarePageAllocator(kernel, config)
    allocator.attach(process, MementoRegion.reserve(0x4000_0000_0000, config))
    return machine, kernel, process, allocator


def assert_same_memento_state(subject, reference):
    machine, kernel, process, allocator = subject
    ref_machine, ref_kernel, ref_process, ref_allocator = reference
    assert allocator.pool == ref_allocator.pool
    assert materialized(kernel.buddy) == ref_kernel.buddy.free_lists
    assert machine.frames.usage_report() == ref_machine.frames.usage_report()
    assert machine.stats.snapshot() == ref_machine.stats.snapshot()
    assert machine.core.cycles == ref_machine.core.cycles
    table = allocator.state_of(process).page_table
    ref_table = ref_allocator.state_of(ref_process).page_table
    assert list(table.mappings()) == list(ref_table.mappings())
    assert table.table_pages == ref_table.table_pages


@pytest.mark.parametrize("seed", SEEDS)
def test_arena_release_matches_page_loop(seed):
    """``free_arena`` against its page-at-a-time loop, pool replenishes
    against the frozen buddy: the same pool order, buddy, ledger, stats,
    cycles and Memento table after every step. The history ends by
    freeing every arena, which empties each leaf table (classes 0 and 1
    share one) and hands its table pages back through the pool."""
    rng = random.Random(seed)
    config = MementoConfig()
    subject = memento_side(config, reference=False)
    reference = memento_side(config, reference=True)

    def free(va, size_class):
        machine, _, process, allocator = subject
        freed = allocator.free_arena(machine.core, process, va, size_class)
        machine, _, process, allocator = reference
        assert freed == reference_free_arena(
            allocator, machine.core, process, va, size_class
        )

    live = []
    for _ in range(60):
        if live and rng.random() < 0.4:
            free(*live.pop(rng.randrange(len(live))))
        else:
            size_class = rng.choice([0, 1, 7, 63])
            span = arena_span_bytes(size_class, config) // PAGE_SIZE
            touched = rng.sample(range(span), rng.randrange(span + 1))
            arenas = []
            for machine, _, process, allocator in (subject, reference):
                va, _ = allocator.alloc_arena(
                    machine.core, process, size_class
                )
                for page in touched:
                    allocator.handle_walk(
                        machine.core, process, va + page * PAGE_SIZE
                    )
                arenas.append(va)
            assert arenas[0] == arenas[1]
            live.append((arenas[0], size_class))
        assert_same_memento_state(subject, reference)
    while live:
        free(*live.pop())
        assert_same_memento_state(subject, reference)
    table = subject[3].state_of(subject[2]).page_table
    assert table.table_pages == 1 and table.mapped_pages == 0
    # The pool goes back to the buddy in one bulk free.
    returned = [
        allocator.return_pool_to_os(machine.core)
        for machine, _, _, allocator in (subject, reference)
    ]
    assert returned[0] == returned[1] > 0
    assert_same_memento_state(subject, reference)
