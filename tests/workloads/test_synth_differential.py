"""``generate_trace`` against its reference form, event for event.

``reference_synth.generate_trace`` is the generator that appends one
event object per event and draws through ``random.choices``,
``random.uniform`` and ``random.expovariate``. The generator in
``repro.workloads.synth`` writes packed columns and draws through the
standard library's own expressions on ``random()``. For every registered
workload and over random specs both must give the same trace: the same
events (exact types, field values of the same types), the same packed
columns as packing the reference's events, and the same length and
summary counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import all_workloads
from repro.workloads.profiles import LifetimeProfile
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import PackedTrace
from tests.workloads import reference_synth


def typed(events):
    """Each event as its exact type plus ``(type, value)`` per field."""
    return [
        (type(event),)
        + tuple((type(v), v) for v in dataclasses.astuple(event))
        for event in events
    ]


def columns(packed):
    return (
        packed.ops,
        packed.f0,
        packed.f1,
        packed.f2,
        packed.writes,
        packed.compute_cycles,
        packed.compute_bytes,
        len(packed),
    )


def assert_matches_reference(spec):
    trace = generate_trace(spec)
    reference = reference_synth.generate_trace(spec)
    # The summaries and the columns first, while the generated trace
    # still holds no event list.
    assert len(trace) == len(reference)
    assert trace.alloc_count == reference.alloc_count
    assert trace.free_count == reference.free_count
    assert trace.total_alloc_bytes == reference.total_alloc_bytes
    packed = trace.columnar()
    assert columns(packed) == columns(PackedTrace.pack(reference.events))
    assert all(type(w) is bool for w in packed.writes)
    assert typed(trace.events) == typed(reference.events)
    assert (trace.name, trace.language, trace.category) == (
        reference.name,
        reference.language,
        reference.category,
    )


@pytest.mark.parametrize(
    "spec", all_workloads(), ids=lambda spec: spec.name
)
@pytest.mark.parametrize("seed", [1, 2])
def test_registered_workloads_match_reference(spec, seed):
    assert_matches_reference(replace(spec, seed=seed, num_allocs=1_500))


def fraction():
    return st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


size_modes = st.lists(
    st.tuples(
        st.integers(1, 512),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0),
    ),
    min_size=1,
    max_size=6,
).filter(lambda modes: any(weight > 0 for _, weight in modes))

lifetimes = st.builds(
    lambda short, medium, short_max, extra: LifetimeProfile(
        short=short,
        medium=medium,
        short_max=short_max,
        medium_max=short_max + extra,
    ),
    fraction(),
    fraction(),
    st.integers(1, 40),
    st.integers(1, 300),
)

specs = st.builds(
    WorkloadSpec,
    name=st.just("random"),
    language=st.sampled_from(["python", "cpp", "go"]),
    category=st.sampled_from(["function", "dataproc", "platform"]),
    seed=st.integers(0, 2**32),
    num_allocs=st.sampled_from([1, 2]) | st.integers(1, 400),
    small_fraction=st.none() | fraction(),
    size_modes=st.none() | size_modes,
    size_jitter=st.sampled_from([0.0]) | fraction(),
    lifetime=st.none() | lifetimes,
    compute_per_alloc=st.integers(0, 2_000),
    app_dram_per_alloc=st.integers(0, 200),
    retouch_prob=fraction(),
    extra_touch_lines=st.integers(0, 3),
    large_every=st.none() | st.integers(1, 100),
    large_lifetime=st.integers(0, 60),
    large_max=st.integers(513, 200_000),
    large_touch_fraction=fraction(),
    phases=st.sampled_from([1]) | st.integers(2, 8),
    phase_local=fraction(),
    longlived_early_fraction=fraction(),
    startup_fraction=st.sampled_from([0.0, 1.0]) | fraction(),
    startup_compute_scale=st.floats(0.0, 2.0),
    startup_size_multiplier=st.sampled_from([0.0, 0.01, 1.7])
    | st.floats(0.0, 3.0),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=specs)
def test_random_specs_match_reference(spec):
    assert_matches_reference(spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=specs)
def test_materialized_events_pack_to_the_generated_columns(spec):
    trace = generate_trace(spec)
    generated = trace.columnar()
    assert columns(PackedTrace.pack(trace.events)) == columns(generated)
    # Reading the events changes nothing the replay sees.
    assert trace.columnar() is generated
