"""Additional syscall-path tests: madvise, MAP_POPULATE batching."""

import pytest

from repro.allocators.pymalloc import PymallocAllocator
from repro.kernel.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.params import PAGE_SHIFT, PAGE_SIZE


@pytest.fixture
def system():
    machine = Machine()
    kernel = Kernel(machine)
    return machine, kernel, kernel.create_process()


def test_madvise_drops_backed_pages(system):
    machine, kernel, process = system
    addr = kernel.syscalls.mmap(machine.core, process, 8 * PAGE_SIZE)
    for page in range(4):
        kernel.fault_handler.handle(
            machine.core, process, addr + page * PAGE_SIZE
        )
    dropped = kernel.syscalls.madvise_dontneed(
        machine.core, process, addr, 8 * PAGE_SIZE
    )
    assert dropped == 4  # only the backed pages
    assert process.user_pages_live == 0
    # The VMA survives; the next access refaults.
    assert process.vmas.find(addr) is not None
    kernel.fault_handler.handle(machine.core, process, addr)
    assert process.user_pages_live == 1


def test_madvise_invalidates_tlb(system):
    machine, kernel, process = system
    addr = kernel.syscalls.mmap(machine.core, process, PAGE_SIZE)
    pfn = kernel.fault_handler.handle(machine.core, process, addr)
    machine.core.tlb.insert(addr >> 12, pfn)
    kernel.syscalls.madvise_dontneed(machine.core, process, addr, PAGE_SIZE)
    assert machine.core.tlb.lookup(addr >> 12) is None


def test_madvise_on_unbacked_range_is_cheap_noop(system):
    machine, kernel, process = system
    addr = kernel.syscalls.mmap(machine.core, process, 4 * PAGE_SIZE)
    dropped = kernel.syscalls.madvise_dontneed(
        machine.core, process, addr, 4 * PAGE_SIZE
    )
    assert dropped == 0
    assert machine.stats["kernel.syscall.madvise_calls"] == 1


def test_populate_is_batched_not_per_fault(system):
    machine, kernel, process = system
    kernel.syscalls.mmap(machine.core, process, 64 * PAGE_SIZE, populate=True)
    # No per-page faults: the batch loop backs everything.
    assert machine.stats.get("kernel.fault.faults", 0) == 0
    assert machine.stats["kernel.syscall.populated_pages"] == 64
    assert process.user_pages_live == 64


def test_populate_cost_well_below_faulting(system):
    machine, kernel, process = system
    kernel.syscalls.mmap(machine.core, process, 64 * PAGE_SIZE, populate=True)
    populate_cycles = machine.core.cycles_in("kernel_page")
    machine2 = Machine()
    kernel2 = Kernel(machine2)
    process2 = kernel2.create_process()
    addr = kernel2.syscalls.mmap(machine2.core, process2, 64 * PAGE_SIZE)
    for page in range(64):
        kernel2.fault_handler.handle(
            machine2.core, process2, addr + page * PAGE_SIZE
        )
    fault_cycles = machine2.core.cycles_in("kernel_page")
    assert populate_cycles < fault_cycles / 5


def test_spurious_fault_returns_existing_mapping(system):
    machine, kernel, process = system
    addr = kernel.syscalls.mmap(machine.core, process, PAGE_SIZE)
    first = kernel.fault_handler.handle(machine.core, process, addr)
    again = kernel.fault_handler.handle(machine.core, process, addr)
    assert first == again
    assert machine.stats["kernel.fault.spurious"] == 1
    assert process.user_pages_live == 1


def test_populated_pages_freed_at_exit(system):
    machine, kernel, process = system
    kernel.syscalls.mmap(machine.core, process, 16 * PAGE_SIZE, populate=True)
    kernel.exit_process(machine.core, process)
    assert process.user_pages_live == 0
    assert machine.stats["kernel.exit_freed_pages"] == 16


def test_warm_prefault_is_unmetered(system):
    machine, kernel, process = system
    addr = kernel.syscalls.mmap(machine.core, process, 4 * PAGE_SIZE)
    vpn = addr >> PAGE_SHIFT
    before = machine.core.cycles
    frames, created = kernel.back_range(process, vpn, 4)
    assert machine.core.cycles == before  # no cycles charged
    assert len(frames) == 4
    assert created == [(0, 3)]  # the first page built the three tables
    assert [process.page_table.walk(vpn + i) for i in range(4)] == frames
    assert process.user_pages_live == 4
    assert "kernel.fault.faults" not in machine.stats
    # Idempotent on already-backed pages.
    assert kernel.back_range(process, vpn, 4) == ([], [])
    assert process.user_pages_live == 4


def test_warm_allocator_counts_prefaulted_pages(system):
    machine, kernel, process = system
    allocator = PymallocAllocator(kernel, process)
    allocator.warm = True
    allocator.malloc(machine.core, 64)
    pages = process.user_pages_live
    assert pages > 0
    assert machine.stats["kernel.warm_prefaulted_pages"] == pages
    assert "kernel.fault.faults" not in machine.stats
