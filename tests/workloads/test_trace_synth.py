"""Tests for trace events, validation, and the synthetic generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.oracle import replay_events
from repro.harness import system as harness_system
from repro.harness.engine import ExperimentEngine, RunRequest, spec_from_dict
from repro.harness.system import SimulatedSystem
from repro.stacks import stack_names
from repro.workloads.profiles import LifetimeProfile
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import (
    OP_ALLOC,
    OP_FREE,
    OP_TOUCH,
    Alloc,
    Compute,
    Free,
    Touch,
    Trace,
)


def small_spec(**kwargs):
    defaults = dict(
        name="t", language="python", seed=7, num_allocs=2_000
    )
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


# ---------------------------------------------------------------- trace


def test_trace_validate_accepts_wellformed():
    trace = Trace("x", "python", "function",
                  [Alloc(0, 16), Touch(0), Free(0)])
    trace.validate()


def test_validate_rejects_double_alloc():
    trace = Trace("x", "python", "function", [Alloc(0, 16), Alloc(0, 16)])
    with pytest.raises(ValueError):
        trace.validate()


def test_validate_rejects_free_of_unknown():
    trace = Trace("x", "python", "function", [Free(9)])
    with pytest.raises(ValueError):
        trace.validate()


def test_validate_rejects_touch_after_free():
    trace = Trace("x", "python", "function",
                  [Alloc(0, 16), Free(0), Touch(0)])
    with pytest.raises(ValueError):
        trace.validate()


def test_validate_rejects_nonpositive_size():
    trace = Trace("x", "python", "function", [Alloc(0, 0)])
    with pytest.raises(ValueError):
        trace.validate()


def test_trace_summary_properties():
    trace = Trace("x", "python", "function",
                  [Alloc(0, 16), Alloc(1, 32), Free(0), Compute(100)])
    assert trace.alloc_count == 2
    assert trace.free_count == 1
    assert trace.total_alloc_bytes == 48
    assert len(list(trace.allocs())) == 2


# ---------------------------------------------------------------- synth


def test_generation_is_deterministic():
    a = generate_trace(small_spec())
    b = generate_trace(small_spec())
    assert a.events == b.events


def test_different_seeds_differ():
    a = generate_trace(small_spec(seed=1))
    b = generate_trace(small_spec(seed=2))
    assert a.events != b.events


def test_generated_trace_is_valid():
    generate_trace(small_spec()).validate()


def test_alloc_count_matches_spec():
    trace = generate_trace(small_spec(num_allocs=1234))
    assert trace.alloc_count == 1234


def test_small_fraction_approximates_spec():
    trace = generate_trace(
        small_spec(num_allocs=5000, small_fraction=0.93, large_every=None)
    )
    small = sum(1 for a in trace.allocs() if a.size <= 512)
    assert small / trace.alloc_count == pytest.approx(0.93, abs=0.02)


def test_large_every_injects_large_allocs():
    trace = generate_trace(
        small_spec(num_allocs=1000, small_fraction=1.0, large_every=100)
    )
    large = [a for a in trace.allocs() if a.size > 512]
    assert len(large) == 10


def test_all_small_when_disabled():
    trace = generate_trace(
        small_spec(num_allocs=500, small_fraction=1.0, large_every=None)
    )
    assert all(a.size <= 512 for a in trace.allocs())


def test_short_lifetimes_free_quickly():
    spec = small_spec(
        num_allocs=4000,
        lifetime=LifetimeProfile(short=1.0, medium=0.0),
        small_fraction=1.0,
        large_every=None,
        phases=1,
    )
    trace = generate_trace(spec)
    # Everything short-lived: nearly every alloc frees within the trace.
    assert trace.free_count / trace.alloc_count > 0.98


def test_never_freed_objects_stay_live():
    spec = small_spec(
        num_allocs=2000,
        lifetime=LifetimeProfile(short=0.0, medium=0.0),
        small_fraction=1.0,
        large_every=None,
        phases=1,
    )
    trace = generate_trace(spec)
    assert trace.free_count == 0


def test_phase_boundaries_batch_free():
    spec = small_spec(
        num_allocs=4000,
        phases=4,
        phase_local=1.0,
        small_fraction=1.0,
        large_every=None,
        lifetime=LifetimeProfile(short=0.0, medium=0.0),
    )
    trace = generate_trace(spec)
    # All phase-local: frees arrive in 4 batches of ~1000.
    assert trace.free_count == trace.alloc_count
    # Find positions of frees; they should cluster at 4 points.
    free_runs = 0
    prev_was_free = False
    for event in trace:
        is_free = isinstance(event, Free)
        if is_free and not prev_was_free:
            free_runs += 1
        prev_was_free = is_free
    assert free_runs == 4


def test_touch_follows_each_alloc():
    trace = generate_trace(small_spec(num_allocs=300))
    live_touched = set()
    for event in trace:
        if isinstance(event, Touch):
            live_touched.add(event.obj)
    for alloc in trace.allocs():
        assert alloc.obj in live_touched


def test_compute_events_carry_cycles_and_dram():
    trace = generate_trace(small_spec(num_allocs=100, compute_per_alloc=500))
    computes = [e for e in trace if isinstance(e, Compute)]
    assert len(computes) == 100
    mean = sum(c.cycles for c in computes) / len(computes)
    assert 350 < mean < 650  # jittered around 500
    assert all(c.dram_bytes >= 0 for c in computes)


def test_resolved_fills_language_defaults():
    spec = WorkloadSpec(name="x", language="cpp").resolved()
    assert spec.small_fraction == 0.95
    assert spec.lifetime is not None
    assert spec.size_modes is not None


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=99),
    phases=st.integers(min_value=1, max_value=6),
    short=st.floats(min_value=0.0, max_value=1.0),
)
def test_any_spec_generates_valid_trace_property(seed, phases, short):
    spec = WorkloadSpec(
        name="p",
        language="go",
        seed=seed,
        num_allocs=600,
        phases=phases,
        phase_local=0.3 if phases > 1 else 0.0,
        lifetime=LifetimeProfile(short=short, medium=min(0.2, 1 - short)),
    )
    generate_trace(spec).validate()


# ---------------------------------------------------------------- columnar


class Odd:
    pass


def odd_trace():
    return Trace("x", "python", "function", [Alloc(0, 16), Odd()])


def test_columnar_rejects_noncanonical_events():
    # An event list is packed when the trace is built, so the error
    # comes before any replay.
    with pytest.raises(ValueError, match="index 1"):
        odd_trace()


def test_replay_rejects_noncanonical_events_with_the_pack_error():
    with pytest.raises(ValueError) as packed:
        odd_trace()
    assert str(packed.value) == (
        "unknown trace event type 'Odd' at index 1: "
        "expected Alloc, Free, Touch or Compute"
    )
    system = SimulatedSystem(small_spec(), "memento")
    with pytest.raises(ValueError) as stepped:
        system.step(Odd(), 1)
    assert str(stepped.value) == str(packed.value)


def test_pack_folds_compute_and_keeps_line_offsets():
    trace = Trace("x", "python", "function", [
        Alloc(obj=0, size=4096),
        Compute(cycles=10, dram_bytes=96),
        Touch(obj=0, lines=1, line_offset=3, write=1),
        Compute(cycles=5, dram_bytes=0),
        Touch(obj=0, lines=4, line_offset=2, write=False),
        Free(obj=0),
    ])
    packed = trace.columnar()
    # Computes leave the stream, folded into two exact sums; each keeps
    # its position among the packed rows.
    assert packed.compute_cycles == 15
    assert packed.compute_bytes == 96
    assert packed.computes == [(1, 10, 96), (2, 5, 0)]
    assert len(packed) == 6
    assert packed.ops == [OP_ALLOC, OP_TOUCH, OP_TOUCH, OP_FREE]
    assert packed.f0 == [0, 0, 0, 0]
    assert packed.f1 == [4096, 1, 4, 0]
    # Touch offsets stay in line units, single-line touches included.
    assert packed.f2 == [0, 3, 2, 0]
    # A truthy write flag is stored as a bool: cache dirty bits must be.
    assert packed.writes == [False, True, False, False]
    assert all(type(w) is bool for w in packed.writes)
    # The event list comes back from the columns unchanged.
    assert trace.events == [
        Alloc(0, 4096),
        Compute(10, 96),
        Touch(0, 1, 3, True),
        Compute(5, 0),
        Touch(0, 4, 2, False),
        Free(0),
    ]
    empty = Trace("x", "python", "function").columnar()
    assert len(empty) == 0 and empty.ops == [] and empty.computes == []


def test_summary_properties_match_events_and_refresh():
    trace = generate_trace(small_spec())
    allocs = [e for e in trace.events if isinstance(e, Alloc)]
    frees = [e for e in trace.events if isinstance(e, Free)]
    assert trace.alloc_count == len(allocs)
    assert trace.free_count == len(frees)
    assert trace.total_alloc_bytes == sum(e.size for e in allocs)


def test_columnar_replay_matches_event_replay():
    spec = small_spec(num_allocs=800)
    fast = SimulatedSystem(spec, stack="baseline").run(generate_trace(spec))
    slow = replay_events(
        SimulatedSystem(spec, stack="baseline"), generate_trace(spec)
    )
    assert fast.to_dict() == slow.to_dict()


# ------------------------------------------------------- generated form


def test_generated_trace_builds_events_only_when_read():
    trace = generate_trace(small_spec(num_allocs=300))
    packed = trace.columnar()
    assert (len(trace), trace.alloc_count) == (len(packed), 300)
    assert len(packed.computes) == 300
    # Each read builds a fresh list from the columns: no cache to drift.
    events = trace.events
    assert trace.events is not events and trace.events == events
    assert len(events) == len(packed)
    assert sum(isinstance(e, Compute) for e in events) == 300
    assert trace.columnar() is packed


def test_engine_replays_never_build_event_objects(tmp_path, monkeypatch):
    generated = []
    real_generate = harness_system.generate_trace
    reads = []
    real_events = Trace.events

    def recording_generate(spec):
        generated.append(real_generate(spec))
        return generated[-1]

    def counted_events(trace):
        reads.append(trace)
        return real_events.fget(trace)

    monkeypatch.setattr(harness_system, "generate_trace", recording_generate)
    monkeypatch.setattr(Trace, "events", property(counted_events))
    engine = ExperimentEngine(cache_dir=tmp_path, use_disk_cache=False)
    spec = small_spec(num_allocs=400)
    # A group of two shares one trace; a lone request generates its own
    # inside SimulatedSystem.run.
    engine.run_many(
        [RunRequest(spec, stack=stack) for stack in ("baseline", "memento")],
        jobs=1,
    )
    engine.run(RunRequest(small_spec(num_allocs=300), stack="reclaim"))
    assert len(generated) == 2
    assert reads == []


#: Wire-valid: startup sizes scale by 0.01, so every startup draw would
#: round to 0 B without the 1 B clamp.
TINY_STARTUP = {
    "name": "tiny-startup",
    "language": "python",
    "num_allocs": 400,
    "startup_fraction": 0.5,
    "startup_size_multiplier": 0.01,
}


def test_tiny_startup_multiplier_clamps_to_one_byte():
    spec = spec_from_dict(TINY_STARTUP)
    trace = generate_trace(spec)
    trace.validate()
    startup = [alloc.size for alloc in trace.allocs()][:200]
    # Draws below 100 B scale below 1 B; they allocate 1 B.
    assert min(startup) == 1 and max(startup) <= 5


@pytest.mark.parametrize("stack", stack_names())
def test_tiny_startup_multiplier_runs_on_every_stack(stack):
    result = SimulatedSystem(spec_from_dict(TINY_STARTUP), stack).run()
    assert result.allocs == 400
