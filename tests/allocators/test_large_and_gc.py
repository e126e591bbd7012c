"""Additional allocator tests: the large path, GC pacing, purging."""

import pytest

from repro.allocators.base import DoubleFreeError
from repro.allocators.glibc_large import (
    HEAP_CHUNK,
    LargeAllocator,
    MMAP_THRESHOLD,
)
from repro.allocators.goalloc import GcPolicy
from repro.allocators.jemalloc import JemallocAllocator
from repro.allocators.mallacc import ACCELERATED_FRACTION, MallaccAllocator


# ---------------------------------------------------------------- large path


def test_midsize_rounding_to_64b(system):
    machine, kernel, process = system
    alloc = LargeAllocator(kernel, process)
    a = alloc.malloc(machine.core, 700)
    b = alloc.malloc(machine.core, 700)
    assert (b - a) % 64 == 0
    assert b - a >= 704


def test_page_rounding_above_page_size(system):
    machine, kernel, process = system
    alloc = LargeAllocator(kernel, process)
    a = alloc.malloc(machine.core, 5000)
    b = alloc.malloc(machine.core, 5000)
    assert b - a == 8192  # two-page granularity


def test_heap_chunk_grows_on_demand(system):
    machine, kernel, process = system
    alloc = LargeAllocator(kernel, process)
    per_chunk = HEAP_CHUNK // 65536
    for _ in range(per_chunk + 1):
        alloc.malloc(machine.core, 65536 - 64)
    assert machine.stats["kernel.syscall.mmap_calls"] == 2


def test_huge_threshold_boundary(system):
    machine, kernel, process = system
    alloc = LargeAllocator(kernel, process)
    below = alloc.malloc(machine.core, MMAP_THRESHOLD - 4096)
    assert below in {a for a in alloc.live}
    mmaps_before = machine.stats["kernel.syscall.mmap_calls"]
    alloc.malloc(machine.core, MMAP_THRESHOLD)
    assert machine.stats["kernel.syscall.mmap_calls"] == mmaps_before + 1


def test_large_double_free_detected(system):
    machine, kernel, process = system
    alloc = LargeAllocator(kernel, process)
    addr = alloc.malloc(machine.core, 4096)
    alloc.free(machine.core, addr)
    with pytest.raises(DoubleFreeError):
        alloc.free(machine.core, addr)


def test_bin_reuse_is_size_segregated(system):
    machine, kernel, process = system
    alloc = LargeAllocator(kernel, process)
    small = alloc.malloc(machine.core, 1024)
    alloc.free(machine.core, small)
    big = alloc.malloc(machine.core, 8192)  # different bin: no reuse
    assert big != small
    again = alloc.malloc(machine.core, 1024)  # same bin: reuse
    assert again == small


# ---------------------------------------------------------------- GC policy


def test_gc_policy_triggers_at_goal():
    policy = GcPolicy(trigger_ratio=2.0, min_heap_bytes=1000)
    assert not policy.on_alloc(999)
    assert policy.on_alloc(1)  # hits the floor


def test_gc_policy_repaces_after_collection():
    policy = GcPolicy(trigger_ratio=2.0, min_heap_bytes=100)
    policy.on_alloc(100)
    policy.after_gc(live_bytes=400)
    # New goal: 800 bytes; current live 400.
    assert not policy.on_alloc(399)
    assert policy.on_alloc(1)


def test_gc_policy_floor_respected():
    policy = GcPolicy(trigger_ratio=2.0, min_heap_bytes=5000)
    policy.after_gc(live_bytes=10)  # goal would be 20 -> floor wins
    assert not policy.on_alloc(4000)
    assert policy.on_alloc(1000)


# ---------------------------------------------------------------- purging


def test_purge_moves_dirty_to_clean_and_refaults(system):
    machine, kernel, process = system
    alloc = JemallocAllocator(
        kernel, process, purge_after=1, run_bytes=4096
    )
    # Fill and drain one run completely to retire it.
    addrs = [alloc.malloc(machine.core, 512) for _ in range(8)]
    for addr in addrs:
        alloc.free(machine.core, addr)
    assert machine.stats["alloc.jemalloc.purges"] >= 1
    assert machine.stats["kernel.syscall.madvise_calls"] >= 1
    faults_before = machine.stats.get("kernel.fault.faults", 0)
    # Reuse carves on the purged base: the next touch refaults.
    new = alloc.malloc(machine.core, 512)
    assert new == addrs[0]


def test_no_purge_without_decay(system):
    machine, kernel, process = system
    alloc = JemallocAllocator(kernel, process)  # purge_after=None
    addrs = [alloc.malloc(machine.core, 512) for _ in range(64)]
    for addr in addrs:
        alloc.free(machine.core, addr)
    assert machine.stats.get("alloc.jemalloc.purges", 0) == 0


# ---------------------------------------------------------------- Mallacc


def test_mallacc_charges_residual_fast_path(system, other_system):
    machine, kernel, process = system
    mallacc = MallaccAllocator(kernel, process)
    addr = mallacc.malloc(machine.core, 64)
    accelerated = machine.core.cycles_in("user_alloc")

    plain_machine, plain_kernel, plain_process = other_system
    plain = JemallocAllocator(plain_kernel, plain_process)
    plain.malloc(plain_machine.core, 64)
    full = plain_machine.core.cycles_in("user_alloc")
    # Same slow-path init costs; the fast-path delta is the accelerated
    # fraction.
    assert accelerated < full
    saved = full - accelerated
    fast = kernel.machine.costs.user("cpp").alloc_fast
    assert saved == pytest.approx(fast * ACCELERATED_FRACTION, abs=2)

    # Every small malloc/free is one accelerated fast op, including the
    # free that retires its run (a slow op too); the large path is not.
    large = mallacc.malloc(machine.core, 4096)
    mallacc.free(machine.core, addr)
    mallacc.free(machine.core, large)
    stats = machine.stats
    assert stats["alloc.mallacc.free_slow"] == 1
    assert (
        stats["alloc.mallacc.alloc_fast_accelerated"]
        == stats["alloc.mallacc.alloc_fast"]
        == 1
    )
    assert (
        stats["alloc.mallacc.free_fast_accelerated"]
        == stats["alloc.mallacc.free_fast"]
        == 1
    )
