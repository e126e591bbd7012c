"""Conservation laws of fleet accounting, over random small fleets.

Whatever the stacks, keep-alive (zero included), warm cap, policy,
arrival pattern and mix, every stack of a fleet result must account
for every invocation exactly once, its stranding timeline must add up
to its stranded byte-seconds, and its cold-start rate must be the
ratio of its own counts. Every instance a cold start creates must end
exactly once (it expires, is evicted, or is retired at the horizon, as
the idle spans of a bound ``FleetRecorder`` tell), no invocation may
take less than its warm latency, and the idle pool is never negative.
"""

from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetRecorder, FleetRequest, simulate_fleet
from repro.fleet.pool import FleetPool
from repro.harness.engine import ExperimentEngine
from repro.obs.instruments import instrumented

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
    recorder = FleetRecorder(capacity=10**6)
    invocations = []
    invoke = FleetPool.invoke

    def observed(pool, function, now, warm_s, cold_extra_s, resident_bytes):
        cold, latency = invoke(
            pool, function, now, warm_s, cold_extra_s, resident_bytes
        )
        invocations.append((warm_s, latency, pool.idle_count))
        return cold, latency

    with mock.patch.object(FleetPool, "invoke", observed), instrumented(
        recorder=recorder
    ):
        result = simulate_fleet(fleet, engine=engine)
    assert recorder.dropped == 0
    assert len(invocations) == fleet.invocations * len(fleet.stacks)
    for warm_s, latency, idle in invocations:
        assert latency >= warm_s
        assert idle >= 0
    assert all(record["pool_size"] >= 0 for record in recorder.epochs)
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
        ends = Counter(
            record["outcome"]
            for record in recorder.instances
            if record["stack"] == stack and record["state"] == "idle"
        )
        assert metrics.cold_starts == (
            ends["expired"] + ends["evicted"] + ends["horizon"]
        ), (stack, ends)
        assert ends["expired"] == metrics.expirations, stack
        assert ends["evicted"] == metrics.evictions, stack


def test_an_instance_evicted_before_it_parks_still_ends_once():
    """Under ``lru`` the cap is enforced when an instance parks; an
    older instance still busy past that moment (so idle for no time at
    all) is evicted with an empty idle span, which is still recorded."""
    recorder = FleetRecorder()
    pool = FleetPool(
        keep_alive_s=60.0, policy="lru", max_warm=1, recorder=recorder
    )
    pool.invoke("f", 0.0, warm_s=10.0, cold_extra_s=0.0,
                resident_bytes=1.0)
    pool.invoke("g", 1.0, warm_s=1.0, cold_extra_s=0.0,
                resident_bytes=1.0)
    stats = pool.finish(100.0)
    ends = [r["outcome"] for r in recorder.instances if r["state"] == "idle"]
    assert stats.cold_starts == 2 and stats.evictions == 1
    assert sorted(ends) == ["evicted", "expired"]
    assert pool.idle_count == 0


def test_zero_keep_alive_expires_every_instance_as_it_finishes():
    recorder = FleetRecorder()
    pool = FleetPool(keep_alive_s=0.0, recorder=recorder)
    for t in range(5):
        pool.invoke("f", float(t), warm_s=0.5, cold_extra_s=0.25,
                    resident_bytes=1.0)
    stats = pool.finish(10.0)
    assert stats.cold_starts == stats.expirations == 5
    assert stats.stranded_byte_seconds == 0.0
    idle = [r for r in recorder.instances if r["state"] == "idle"]
    assert [(r["start_s"], r["end_s"], r["outcome"]) for r in idle] == [
        (t + 0.75, t + 0.75, "expired") for t in range(5)
    ]
