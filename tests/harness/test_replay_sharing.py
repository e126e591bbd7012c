"""One replay per distinct trajectory: a batch replays each replay key
once and derives every sharing member, bit-identical to running each
request on its own."""

import itertools
from dataclasses import replace

import pytest

from repro import stacks as stack_registry
from repro.allocators import base as allocator_base
from repro.harness import system as harness_system
from repro.harness.engine import ExperimentEngine, RunRequest, _split_groups
from repro.harness.system import SimulatedSystem
from repro.obs.instruments import instrumented
from repro.obs.profile import CycleProfile
from repro.sim.cycles import DEFAULT_COSTS
from repro.sim.params import MachineParams
from repro.workloads.registry import all_workloads, get_workload

STACKS = stack_registry.stack_names()


def small(name: str, num_allocs: int = 400):
    return replace(get_workload(name), num_allocs=num_allocs)


def every_stack(spec):
    """Every registered stack, warm and cold, on one spec."""
    return [
        RunRequest(spec, stack=stack, cold_start=cold)
        for stack, cold in itertools.product(STACKS, (False, True))
    ]


@pytest.fixture
def builds(monkeypatch):
    """Counts every SimulatedSystem the test builds."""
    count = [0]
    init = SimulatedSystem.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(harness_system.SimulatedSystem, "__init__", counting)
    return count


@pytest.mark.parametrize(
    "name, warm_heap, replays", [("html", False, 5), ("US", True, 6)]
)
def test_batch_equals_independent_runs(name, warm_heap, replays, builds):
    spec = small(name)
    assert spec.warm_heap is warm_heap
    requests = every_stack(spec)
    engine = ExperimentEngine(use_disk_cache=False)
    batch = engine.run_many(requests)
    assert builds[0] == replays
    assert len({r.replay_key() for r in requests} - {None}) + 2 == replays
    for request, result in zip(requests, batch):
        assert result.to_dict() == request.execute().to_dict(), request.stack


def test_jobs_2_keeps_sharing_and_results(tmp_path):
    requests = every_stack(small("US")) + every_stack(small("html"))
    serial = ExperimentEngine(cache_dir=tmp_path / "serial").run_many(
        requests, jobs=1
    )
    pooled_engine = ExperimentEngine(cache_dir=tmp_path / "pooled")
    try:
        pooled = pooled_engine.run_many(requests, jobs=2)
    finally:
        pooled_engine.close()
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]


def test_split_groups_never_splits_a_replay():
    # Members "a1"/"a2" share a replay, as do "b1"/"b2"; "c" replays
    # alone. However many workers ask, a shared replay stays in one task.
    group = ["a1", "b1", "c", "a2", "b2"]

    def key(member):
        return None if member == "c" else member[0]

    for workers in (1, 2, 3, 8):
        tasks = _split_groups([group], workers, key)
        assert sorted(m for task in tasks for m in task) == sorted(group)
        for task in tasks:
            for shared in ("a", "b"):
                members = [m for m in task if m[0] == shared]
                assert members in ([], [shared + "1", shared + "2"])
    assert _split_groups([group], 3, key) == [
        ["a1", "a2"],
        ["b1", "b2"],
        ["c"],
    ]


def test_replay_key_shares_only_what_replays_alike():
    spec = small("US")
    key = {
        (stack, cold): RunRequest(spec, stack=stack, cold_start=cold)
        .replay_key()
        for stack, cold in itertools.product(STACKS, (False, True))
    }
    # Memento's hardware replays alone; US keeps a warm heap, so a warm
    # baseline and a warm snapshot restore replay the same machine, as
    # do the cold snapshot record and every reclaim run's cold heap.
    assert key["memento", False] is None and key["memento", True] is None
    assert key["baseline", False] == key["snapshot", False]
    assert key["snapshot", True] == key["reclaim", True]
    assert key["reclaim", False] != key["baseline", False]
    assert key["baseline", True] != key["snapshot", True]
    # Anything else the content key holds still separates replays.
    other = RunRequest(
        spec, machine_params=MachineParams().with_iso_storage_l1d()
    )
    assert other.replay_key() != key["baseline", False]
    # A knob the stack rejects replays alone, so it fails when built.
    assert RunRequest(
        spec, stack="snapshot", mmap_populate=True
    ).replay_key() is None


def test_profiled_batches_replay_every_member(builds):
    requests = every_stack(small("html", num_allocs=200))
    with instrumented(profile=CycleProfile()) as bundle:
        assert all(r.replay_key() is None for r in requests)
        ExperimentEngine(use_disk_cache=False).run_many(requests)
    assert builds[0] == len(requests)
    assert len(bundle.profile.runs) == len(requests)


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("cold", [False, True])
def test_uncharged_run_plus_charges_is_the_run(stack, cold):
    spec = small("US", num_allocs=200)
    system = SimulatedSystem(spec, stack, cold_start=cold)
    uncharged = system.run(charge=False)
    charges = system.stack.charges(cold, system.facts, DEFAULT_COSTS)
    derived = uncharged.with_charges(charges, MachineParams())
    direct = SimulatedSystem(spec, stack, cold_start=cold).run()
    assert derived.to_dict() == direct.to_dict()


def test_warm_prefaulted_stat_counts_every_warm_page(monkeypatch):
    # ReplayFacts.warm_pages reads the kernel.warm_prefaulted_pages stat:
    # on every registry workload it equals the summed pages of the warm
    # mmaps, the count snapshot's restore is priced by.
    summed = [0]
    pages_for = allocator_base.pages_for

    def recording(nbytes):
        pages = pages_for(nbytes)
        summed[0] += pages
        return pages

    monkeypatch.setattr(allocator_base, "pages_for", recording)
    for spec in all_workloads():
        summed[0] = 0
        system = SimulatedSystem(replace(spec, num_allocs=150), "snapshot")
        system.run()
        assert summed[0] > 0, spec.name
        assert system.facts.warm_pages == summed[0], spec.name
