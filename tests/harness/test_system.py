"""Integration tests: full replays on baseline and Memento stacks."""

from dataclasses import replace

import pytest

from repro.audit import Auditor
from repro.core.config import MementoConfig
from repro.harness.system import SimulatedSystem
from repro.obs.instruments import instrumented
from repro.workloads.registry import get_workload
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import Touch, Trace


def small(name="html", **kwargs):
    spec = replace(get_workload(name), num_allocs=2_000)
    return replace(spec, **kwargs) if kwargs else spec


@pytest.fixture(scope="module")
def html_pair():
    base = SimulatedSystem(small(), stack="baseline").run()
    mem = SimulatedSystem(small(), stack="memento").run()
    return base, mem


def test_replay_is_deterministic():
    a = SimulatedSystem(small(), stack="baseline").run()
    b = SimulatedSystem(small(), stack="baseline").run()
    assert a.total_cycles == b.total_cycles
    assert a.dram_bytes == b.dram_bytes


def test_memento_is_faster(html_pair):
    base, mem = html_pair
    assert mem.total_cycles < base.total_cycles


def test_app_cycles_identical_across_stacks(html_pair):
    base, mem = html_pair
    assert base.cycles["app"] == mem.cycles["app"]


def test_mm_cycles_shrink(html_pair):
    base, mem = html_pair
    assert mem.mm_cycles < base.mm_cycles


def test_baseline_uses_software_categories(html_pair):
    base, _ = html_pair
    assert base.cycles.get("user_alloc", 0) > 0
    assert base.cycles.get("kernel_page", 0) > 0
    assert "hw_alloc" not in base.cycles


def test_memento_uses_hardware_categories(html_pair):
    _, mem = html_pair
    assert mem.cycles.get("hw_alloc", 0) > 0
    assert mem.cycles.get("hw_page", 0) > 0


def test_alloc_free_counts_match_trace(html_pair):
    base, mem = html_pair
    trace = generate_trace(small().resolved())
    assert base.allocs == trace.alloc_count == mem.allocs
    assert base.frees == trace.free_count == mem.frees


def test_hot_rates_populated_only_for_memento(html_pair):
    base, mem = html_pair
    assert base.hot_alloc_hit_rate is None
    assert 0.9 < mem.hot_alloc_hit_rate <= 1.0
    assert 0 <= mem.hot_free_hit_rate <= 1.0


def test_function_exit_releases_memory():
    system = SimulatedSystem(small(), stack="memento")
    system.run()
    assert system.machine.frames.live("user") == 0
    assert system.process.exited


def test_dataproc_does_not_exit():
    spec = replace(get_workload("Redis"), num_allocs=2_000)
    system = SimulatedSystem(spec, stack="baseline")
    system.run()
    assert not system.process.exited


def test_cold_start_adds_setup_work():
    cold = SimulatedSystem(small(), stack="baseline", cold_start=True).run()
    warm = SimulatedSystem(small(), stack="baseline").run()
    assert cold.total_cycles > warm.total_cycles
    assert cold.stats["kernel.fault.faults"] > warm.stats[
        "kernel.fault.faults"
    ]


def test_populate_rejected_on_memento():
    with pytest.raises(ValueError):
        SimulatedSystem(small(), stack="memento", mmap_populate=True)


def test_populate_increases_footprint():
    lazy = SimulatedSystem(small("html-go"), stack="baseline").run()
    eager = SimulatedSystem(
        small("html-go"), stack="baseline", mmap_populate=True
    ).run()
    assert eager.peak_pages > lazy.peak_pages


def test_warm_heap_suppresses_faults():
    cpp = replace(get_workload("US"), num_allocs=2_000)
    warm = SimulatedSystem(cpp, stack="baseline").run()
    cold = SimulatedSystem(
        replace(cpp, warm_heap=False), stack="baseline"
    ).run()
    assert warm.stats.get("kernel.fault.faults", 0) < cold.stats[
        "kernel.fault.faults"
    ]


def test_bypass_disabled_increases_dram_reads():
    on = SimulatedSystem(small(), stack="memento").run()
    off = SimulatedSystem(
        small(), stack="memento", memento_config=MementoConfig(
            bypass_enabled=False
        )
    ).run()
    assert off.stats["dram.read_bytes"] >= on.stats["dram.read_bytes"]


def test_shared_machine_multi_process():
    from repro.core.page_allocator import HardwarePageAllocator
    from repro.kernel.kernel import Kernel
    from repro.sim.machine import Machine

    machine = Machine()
    kernel = Kernel(machine)
    config = MementoConfig()
    pa = HardwarePageAllocator(kernel, config)
    a = SimulatedSystem(
        small("aes"), stack="memento", memento_config=config,
        machine=machine, kernel=kernel, page_allocator=pa,
    )
    b = SimulatedSystem(
        small("jl"), stack="memento", memento_config=config,
        machine=machine, kernel=kernel, page_allocator=pa,
    )
    a.run()
    b.run()
    assert a.process.pid != b.process.pid
    assert machine.stats["kernel.processes_exited"] == 2


def test_memory_aggregates_positive(html_pair):
    base, mem = html_pair
    assert base.user_pages_aggregate > 0
    assert base.kernel_pages_aggregate > 0
    assert mem.user_pages_aggregate > 0
    assert mem.kernel_pages_aggregate > 0


class _TaggedTouch(Touch):
    """A Touch subclass: not one of the four exact trace types."""

    __slots__ = ()


def _with_unknown_event(kind):
    spec = small(num_allocs=100)
    trace = generate_trace(spec)
    events = list(trace.events)
    index = next(i for i, e in enumerate(events) if type(e) is Touch)
    event = events[index]
    events[index] = (
        _TaggedTouch(event.obj, event.lines, event.line_offset, event.write)
        if kind == "subclass"
        else object()
    )
    trace = Trace(trace.name, trace.language, trace.category, events)
    return spec, trace, index


@pytest.mark.parametrize("kind", ["subclass", "foreign"])
@pytest.mark.parametrize("audited", [False, True], ids=["columnar", "audit"])
def test_unknown_event_type_raises_with_its_index(kind, audited):
    # Events must be exactly Alloc/Free/Touch/Compute: anything else
    # fails the run, naming the type and its position, instead of being
    # dropped from the replay.
    spec, trace, index = _with_unknown_event(kind)
    name = "_TaggedTouch" if kind == "subclass" else "object"
    with instrumented(audit=Auditor(epoch="event") if audited else None):
        system = SimulatedSystem(spec, stack="memento")
        with pytest.raises(ValueError, match=rf"{name}.*index {index}\b"):
            system.run(trace)
