"""Tests for the sampled hardware-event ring (:mod:`repro.obs.events`)."""

import pytest

from repro.obs.events import EventRing
from repro.obs.instruments import current, instrumented


def test_counts_are_exact_samples_every_nth():
    ring = EventRing(capacity=16, sample_every=4)
    for i in range(10):
        ring.record("hot.alloc_hit", i)
    assert ring.counts == {"hot.alloc_hit": 10}
    # Occurrences 4 and 8 were sampled, carrying their values (3 and 7).
    assert ring.events() == [
        (4, "hot.alloc_hit", 3),
        (8, "hot.alloc_hit", 7),
    ]


def test_per_kind_sampling_is_independent():
    ring = EventRing(capacity=16, sample_every=2)
    ring.record("a")
    ring.record("b")
    ring.record("a")  # 2nd "a": sampled
    assert [e[1] for e in ring.events()] == ["a"]
    assert ring.counts == {"a": 2, "b": 1}


def test_ring_rotates_keeping_most_recent():
    ring = EventRing(capacity=3, sample_every=1)
    for i in range(5):
        ring.record("k", i)
    events = ring.events()
    assert len(events) == 3
    assert [value for _, _, value in events] == [2, 3, 4]  # oldest first
    assert ring.counts["k"] == 5  # counts never truncate


def test_to_dict_and_clear():
    ring = EventRing(capacity=4, sample_every=1)
    ring.record("x", 7)
    payload = ring.to_dict()
    assert payload["capacity"] == 4
    assert payload["sample_every"] == 1
    assert payload["counts"] == {"x": 1}
    assert payload["events"] == [[1, "x", 7]]
    ring.clear()
    assert ring.counts == {} and ring.events() == []


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        EventRing(capacity=0)
    with pytest.raises(ValueError):
        EventRing(sample_every=0)


def test_install_ring_protocol():
    assert current().ring is None
    ring = EventRing()
    with instrumented(ring=ring) as bundle:
        assert current() is bundle and bundle.ring is ring
        with instrumented(ring=None):
            assert current().ring is None
        assert current().ring is ring
    assert current().ring is None
    with pytest.raises(RuntimeError):
        with instrumented(ring=ring):
            raise RuntimeError("boom")
    assert current().ring is None


def test_memento_system_emits_events_when_ring_installed():
    """End to end: a Memento replay populates the ring; without a ring
    the same construction path emits nothing (the sites are gated)."""
    from dataclasses import replace

    from repro.harness.system import SimulatedSystem
    from repro.workloads.registry import get_workload
    from repro.workloads.synth import generate_trace

    spec = replace(get_workload("html").resolved(), num_allocs=1_500)
    trace = generate_trace(spec)

    ring = EventRing(sample_every=8)
    with instrumented(ring=ring):
        SimulatedSystem(spec, stack="memento").run(trace)
    assert ring.counts.get("hot.alloc_hit", 0) > 0
    assert ring.counts.get("hot.free_hit", 0) > 0
    assert any(kind.startswith("aac.") for kind in ring.counts)
    assert ring.events(), "sampling should have captured records"

    # Ring removed: a fresh system must not touch the old ring.
    before = dict(ring.counts)
    SimulatedSystem(spec, stack="memento").run(generate_trace(spec))
    assert ring.counts == before
