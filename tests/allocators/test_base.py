"""Tests for shared allocator machinery (size classes, routing, errors).

The contract tests run every small-object allocator: each one's
``malloc``/``free`` is the routing body of ``SoftwareAllocator`` around
its own small-path closures.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.base import (
    SMALL_THRESHOLD,
    DoubleFreeError,
    align8,
    size_class_index,
)
from repro.allocators.glibc_large import MMAP_THRESHOLD
from repro.allocators.goalloc import GoAllocator
from repro.allocators.jemalloc import JemallocAllocator
from repro.allocators.mallacc import MallaccAllocator
from repro.allocators.pymalloc import PymallocAllocator
from repro.kernel.kernel import Kernel
from repro.sim.machine import Machine

SMALL_ALLOCATORS = (
    PymallocAllocator,
    JemallocAllocator,
    GoAllocator,
    MallaccAllocator,
)

#: Request sizes at the 8 B class edges (first and last byte of each
#: class, and one past it) and on both sides of the 512 B small/large
#: split, mixed with arbitrary sizes up to a few pages and one
#: direct-mmap request.
SIZES = st.one_of(
    st.sampled_from(
        sorted(
            {edge for k in range(1, 65) for edge in (8 * k - 7, 8 * k, 8 * k + 1)}
            | {SMALL_THRESHOLD - 1, SMALL_THRESHOLD + 8, MMAP_THRESHOLD}
        )
    ),
    st.integers(min_value=1, max_value=3 * 4096),
)


def each_allocator():
    """Yield ``(machine, allocator)`` for every small-object allocator,
    each on a fresh system."""
    for cls in SMALL_ALLOCATORS:
        machine = Machine()
        kernel = Kernel(machine)
        yield machine, cls(kernel, kernel.create_process())


def test_align8_rounds_up():
    assert align8(1) == 8
    assert align8(8) == 8
    assert align8(9) == 16
    assert align8(511) == 512


def test_align8_rejects_nonpositive():
    with pytest.raises(ValueError):
        align8(0)
    with pytest.raises(ValueError):
        align8(-5)


def test_size_class_index_covers_64_classes():
    assert size_class_index(1) == 0
    assert size_class_index(8) == 0
    assert size_class_index(9) == 1
    assert size_class_index(512) == 63


def test_size_class_index_rejects_large():
    with pytest.raises(ValueError):
        size_class_index(SMALL_THRESHOLD + 1)


def test_large_requests_route_to_large_path():
    for machine, alloc in each_allocator():
        small = alloc.malloc(machine.core, SMALL_THRESHOLD)
        assert alloc.live[small].size_class == SMALL_THRESHOLD // 8 - 1
        addr = alloc.malloc(machine.core, SMALL_THRESHOLD + 1)
        assert alloc.live[addr].size_class == -1, alloc.name
        assert machine.stats["alloc.glibc_large.allocs"] == 1
        # The small path counted only the 512 B request.
        assert machine.stats[f"alloc.{alloc.name}.allocs"] == 1
        alloc.free(machine.core, addr)
        assert addr not in alloc.live
        assert machine.stats["alloc.glibc_large.frees"] == 1


def test_double_free_detected():
    for machine, alloc in each_allocator():
        small = alloc.malloc(machine.core, 64)
        large = alloc.malloc(machine.core, 4096)
        for addr in (small, large):
            alloc.free(machine.core, addr)
            with pytest.raises(DoubleFreeError):
                alloc.free(machine.core, addr)


def test_free_of_never_allocated_detected():
    for machine, alloc in each_allocator():
        with pytest.raises(DoubleFreeError):
            alloc.free(machine.core, 0xABCDEF)
        live = alloc.malloc(machine.core, 64)
        with pytest.raises(DoubleFreeError):
            alloc.free(machine.core, live + 8)  # interior, not an object
        assert live in alloc.live, alloc.name


def test_zero_size_malloc_rejected():
    for machine, alloc in each_allocator():
        for size in (0, -1):
            with pytest.raises(ValueError):
                alloc.malloc(machine.core, size)
        assert not alloc.live, alloc.name
        assert machine.stats[f"alloc.{alloc.name}.allocs"] == 0


def test_live_bytes_tracks_outstanding():
    for machine, alloc in each_allocator():
        a = alloc.malloc(machine.core, 100)
        b = alloc.malloc(machine.core, 50)
        c = alloc.malloc(machine.core, 1000)
        assert alloc.live_bytes == 1150, alloc.name
        alloc.free(machine.core, a)
        assert alloc.live_bytes == 1050
        alloc.free(machine.core, c)
        alloc.free(machine.core, b)
        assert alloc.live_bytes == 0


def test_teardown_clears_registry():
    for machine, alloc in each_allocator():
        alloc.malloc(machine.core, 24)
        alloc.teardown(machine.core)
        assert alloc.live_bytes == 0, alloc.name


def _drained(alloc, core) -> bool:
    """Whether the allocator holds no small-object or huge-block state."""
    if isinstance(alloc, PymallocAllocator):
        small_empty = not alloc.arenas  # every arena returned to the OS
    elif isinstance(alloc, JemallocAllocator):
        small_empty = not alloc._owner and not alloc._run_of
    else:
        alloc.collect(core)  # Go frees are garbage until a sweep
        small_empty = not alloc._owner
    return small_empty and not alloc.large._huge


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(SIZES, min_size=1, max_size=80))
def test_no_overlapping_allocations_property(sizes):
    """Live allocations never overlap, for any request sequence."""
    for machine, alloc in each_allocator():
        intervals = []
        for size in sizes:
            addr = alloc.malloc(machine.core, size)
            intervals.append((addr, addr + size))
        intervals.sort()
        for (a_start, a_end), (b_start, _) in zip(intervals, intervals[1:]):
            assert a_end <= b_start, alloc.name


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    sizes=st.lists(SIZES, min_size=1, max_size=120),
)
def test_alloc_free_interleave_property(seed, sizes):
    """Random alloc/free interleavings leave every allocator consistent:
    once everything is freed, no small-object or huge-block state is left."""
    for machine, alloc in each_allocator():
        rng = random.Random(seed)
        live = []
        for size in sizes:
            if live and rng.random() < 0.45:
                alloc.free(machine.core, live.pop(rng.randrange(len(live))))
            else:
                live.append(alloc.malloc(machine.core, size))
        for addr in live:
            alloc.free(machine.core, addr)
        assert alloc.live_bytes == 0, alloc.name
        assert _drained(alloc, machine.core), alloc.name
