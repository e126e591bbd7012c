"""Conservation laws of fleet accounting, over random small fleets.

Whatever the stacks, keep-alive (zero included), warm cap, policy,
arrival pattern and mix, every stack of a fleet result must account
for every invocation exactly once, its stranding timeline must add up
to its stranded byte-seconds, and its cold-start rate must be the
ratio of its own counts.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetRequest, simulate_fleet
from repro.harness.engine import ExperimentEngine

STACKS = ("baseline", "memento", "snapshot", "reclaim")

fleets = st.builds(
    FleetRequest,
    workloads=st.sampled_from([("html",), ("aes",), ("html", "aes")]),
    mix=st.sampled_from(["azure", "uniform"]),
    invocations=st.integers(min_value=1, max_value=400),
    duration_s=st.sampled_from([1.0, 30.0, 600.0, 3_600.0]),
    pattern=st.sampled_from(["poisson", "diurnal"]),
    seed=st.integers(min_value=0, max_value=2**31),
    epochs=st.integers(min_value=0, max_value=6),
    keep_alive_s=st.sampled_from([0.0, 0.05, 5.0, 60.0, 600.0]),
    policy=st.sampled_from(["keepalive", "lru"]),
    max_warm=st.sampled_from([0, 1, 2, 5]),
    profile_seeds=st.integers(min_value=1, max_value=2),
    invocation_allocs=st.just(100),
    stacks=st.lists(
        st.sampled_from(STACKS), min_size=1, max_size=4, unique=True
    ).map(tuple),
)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """One engine for every example: the shards depend only on the
    workloads, stacks and profile seeds drawn, so later examples are
    cache hits."""
    return ExperimentEngine(cache_dir=tmp_path_factory.mktemp("cache"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fleet=fleets)
def test_fleet_accounting_is_conserved(engine, fleet):
    result = simulate_fleet(fleet, engine=engine)
    assert sorted(result.stacks) == sorted(fleet.stacks)
    for stack, metrics in result.stacks.items():
        assert metrics.invocations == fleet.invocations, stack
        assert (
            metrics.invocations == metrics.cold_starts + metrics.warm_starts
        ), stack
        assert math.isclose(
            sum(metrics.stranding_timeline),
            metrics.stranded_byte_seconds,
            rel_tol=1e-9,
            abs_tol=1e-9,
        ), stack
        assert (
            metrics.cold_start_rate
            == metrics.cold_starts / metrics.invocations
        ), stack
