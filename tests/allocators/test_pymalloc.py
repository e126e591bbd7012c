"""Tests for the pymalloc model."""

from repro.allocators.pymalloc import ARENA_BYTES, POOL_BYTES, PymallocAllocator


def make(system):
    machine, kernel, process = system
    return machine, PymallocAllocator(kernel, process)


def test_first_alloc_maps_an_arena(system):
    machine, alloc = make(system)
    alloc.malloc(machine.core, 16)
    assert machine.stats["alloc.pymalloc.arenas_mapped"] == 1
    assert machine.stats["kernel.syscall.mmap_bytes"] == ARENA_BYTES


def test_same_class_allocs_share_a_pool(system):
    machine, alloc = make(system)
    a = alloc.malloc(machine.core, 16)
    b = alloc.malloc(machine.core, 16)
    assert a // POOL_BYTES == b // POOL_BYTES
    assert b - a == 16


def test_different_classes_use_different_pools(system):
    machine, alloc = make(system)
    a = alloc.malloc(machine.core, 16)
    b = alloc.malloc(machine.core, 48)
    assert a // POOL_BYTES != b // POOL_BYTES


def test_fast_path_hits_after_warmup(system):
    machine, alloc = make(system)
    alloc.malloc(machine.core, 32)
    before = machine.stats["alloc.pymalloc.alloc_fast"]
    slow_before = machine.stats["alloc.pymalloc.alloc_slow"]
    alloc.malloc(machine.core, 32)
    assert machine.stats["alloc.pymalloc.alloc_fast"] == before + 1
    assert machine.stats["alloc.pymalloc.alloc_slow"] == slow_before


def test_free_then_alloc_reuses_slot(system):
    machine, alloc = make(system)
    a = alloc.malloc(machine.core, 40)
    alloc.malloc(machine.core, 40)  # keep pool non-empty
    alloc.free(machine.core, a)
    c = alloc.malloc(machine.core, 40)
    assert c == a


def test_full_pool_spills_to_next(system):
    machine, alloc = make(system)
    capacity = POOL_BYTES // 512
    addrs = [alloc.malloc(machine.core, 512) for _ in range(capacity + 1)]
    pools = {addr // POOL_BYTES for addr in addrs}
    assert len(pools) == 2


def test_empty_arena_is_unmapped(system):
    machine, alloc = make(system)
    addrs = [alloc.malloc(machine.core, 64) for _ in range(10)]
    for addr in addrs:
        alloc.free(machine.core, addr)
    assert machine.stats["alloc.pymalloc.arenas_unmapped"] == 1
    assert len(alloc.arenas) == 0


def test_arena_not_unmapped_while_any_object_lives(system):
    machine, alloc = make(system)
    addrs = [alloc.malloc(machine.core, 64) for _ in range(10)]
    for addr in addrs[:-1]:
        alloc.free(machine.core, addr)
    assert machine.stats["alloc.pymalloc.arenas_unmapped"] == 0
    assert len(alloc.arenas) == 1


def test_arena_exhaustion_maps_another(system):
    machine, alloc = make(system)
    pools_per_arena = ARENA_BYTES // POOL_BYTES
    per_pool = POOL_BYTES // 512
    total = pools_per_arena * per_pool + 1
    for _ in range(total):
        alloc.malloc(machine.core, 512)
    assert machine.stats["alloc.pymalloc.arenas_mapped"] == 2


def test_custom_arena_size(system):
    machine, kernel, process = system
    alloc = PymallocAllocator(kernel, process, arena_bytes=64 * 1024)
    alloc.malloc(machine.core, 16)
    assert machine.stats["kernel.syscall.mmap_bytes"] == 64 * 1024


def test_utilization_reflects_occupancy(system):
    machine, alloc = make(system)
    assert alloc.utilization() == 1.0  # vacuous before any pools
    alloc.malloc(machine.core, 8)
    util = alloc.utilization()
    assert 0 < util < 1


def test_alloc_charges_user_cycles(system):
    machine, alloc = make(system)
    alloc.malloc(machine.core, 16)
    assert machine.core.cycles_in("user_alloc") > 0
    addr = alloc.malloc(machine.core, 16)
    alloc.free(machine.core, addr)
    assert machine.core.cycles_in("user_free") > 0
