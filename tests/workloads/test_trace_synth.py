"""Tests for trace events, validation, and the synthetic generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.profiles import LifetimeProfile
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import (
    OP_ALLOC,
    OP_FREE,
    OP_TOUCH_MULTI,
    OP_TOUCH_SINGLE,
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


def test_columnar_round_trips_canonical_events():
    trace = generate_trace(small_spec())
    packed = trace.columnar()
    assert packed is not None
    assert len(packed) == len(trace)
    assert packed.to_events() == trace.events


def test_columnar_is_memoized_and_refreshed_on_growth():
    trace = generate_trace(small_spec())
    first = trace.columnar()
    assert trace.columnar() is first
    trace.events.append(Touch(0))
    second = trace.columnar()
    assert second is not first
    assert len(second) == len(trace)


def test_columnar_rejects_noncanonical_events():
    class Odd:
        pass

    trace = Trace("x", "python", "function", [Alloc(0, 16), Odd()])
    assert trace.columnar() is None


def test_segments_extract_compute_and_split_touches():
    trace = Trace("x", "python", "function", [
        Alloc(obj=0, size=4096),
        Compute(cycles=10, dram_bytes=96),
        Touch(obj=0, lines=1, line_offset=3, write=True),
        Compute(cycles=5, dram_bytes=0),
        Touch(obj=0, lines=4, line_offset=2, write=False),
        Free(obj=0),
    ])
    segments = trace.columnar().segments()
    assert segments.compute_cycles == 15
    assert segments.compute_bytes == 96
    assert segments.events == 6
    assert segments.ops == [
        OP_ALLOC, OP_TOUCH_SINGLE, OP_TOUCH_MULTI, OP_FREE
    ]
    # Single-line byte offset premultiplied; multi-line keeps line units.
    assert segments.f2 == [0, 3 * 64, 2, 0]
    assert segments.writes == [False, True, False, False]
    assert all(isinstance(w, bool) for w in segments.writes)


def test_segments_memoized_and_empty_trace():
    columnar = Trace("x", "python", "function", []).columnar()
    segments = columnar.segments()
    assert segments is columnar.segments()
    assert len(segments) == 0 and segments.events == 0
    assert segments.compute_cycles == 0 and segments.compute_bytes == 0


def test_summary_properties_match_events_and_refresh():
    trace = generate_trace(small_spec())
    allocs = [e for e in trace.events if isinstance(e, Alloc)]
    frees = [e for e in trace.events if isinstance(e, Free)]
    assert trace.alloc_count == len(allocs)
    assert trace.free_count == len(frees)
    assert trace.total_alloc_bytes == sum(e.size for e in allocs)
    trace.events.append(Alloc(1 << 40, 24))
    assert trace.alloc_count == len(allocs) + 1
    assert trace.total_alloc_bytes == sum(e.size for e in allocs) + 24


def test_columnar_replay_matches_event_replay():
    from repro.harness.system import SimulatedSystem

    spec = small_spec(num_allocs=800)
    trace = generate_trace(spec)
    fast = SimulatedSystem(spec, stack="baseline").run(trace)
    slow_trace = generate_trace(spec)
    slow_trace.columnar = lambda: None  # force the per-event fallback
    slow = SimulatedSystem(spec, stack="baseline").run(slow_trace)
    assert fast.to_dict() == slow.to_dict()
