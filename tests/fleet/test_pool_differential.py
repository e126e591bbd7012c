"""``FleetPool`` against its reference form, bit for bit.

``reference_pool.FleetPool`` is the straightforward pool: a heap entry
per park, helper calls per step. The pool in ``repro.fleet.pool`` keeps
one expiry entry per instance and folds the steps into ``invoke``. Over
random arrival streams both must return the same ``(cold, latency)``
for every arrival, hold the same idle count after it, and end with
equal ``PoolStats`` (compared with ``==``, floats included, so the
stranding additions must happen in the same order) and equal telemetry
spans, in the same order.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetRecorder
from repro.fleet import pool
from tests.fleet import reference_pool

#: One arrival: (function, gap to the previous arrival, warm_s,
#: cold_extra_s, resident_bytes). Warm latencies longer than the gaps
#: make arrivals land while an instance of their function is busy.
arrivals = st.lists(
    st.tuples(
        st.sampled_from(["f", "g", "h"]),
        st.sampled_from([0.0, 0.01, 0.04, 0.3, 1.0, 7.0, 50.0])
        | st.floats(min_value=0.0, max_value=30.0),
        st.sampled_from([0.001, 0.02, 0.5, 2.0])
        | st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from([0.0, 0.25, 1.5]),
        st.sampled_from([1.0, 4096.0, 3.0e7])
        | st.floats(min_value=0.0, max_value=1e9),
    ),
    max_size=80,
)

#: Epoch edges. The first may lie after the first arrival and the last
#: before the horizon, and short epochs make spans cross several.
edges = st.one_of(
    st.none(),
    st.lists(
        st.floats(min_value=0.0, max_value=200.0),
        min_size=1,
        max_size=8,
        unique=True,
    ).map(sorted),
    st.integers(min_value=1, max_value=40).map(
        lambda n: [i * 0.5 for i in range(n + 1)]
    ),
)


def run(module, stream, keep_alive_s, policy, max_warm, epoch_edges,
        horizon):
    recorder = FleetRecorder(capacity=10**6)
    pool = module.FleetPool(
        keep_alive_s=keep_alive_s,
        policy=policy,
        max_warm=max_warm,
        epoch_edges=epoch_edges,
        recorder=recorder,
        stack="s",
    )
    steps = []
    now = 0.0
    for function, gap, warm_s, cold_extra_s, resident in stream:
        now += gap
        steps.append((
            pool.invoke(function, now, warm_s, cold_extra_s, resident),
            pool.idle_count,
        ))
    stats = pool.finish(now + horizon)
    return steps, dataclasses.asdict(stats), recorder.instances


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    stream=arrivals,
    keep_alive_s=st.sampled_from([0.0, 0.05, 600.0])
    | st.floats(min_value=0.0, max_value=20.0),
    policy=st.sampled_from(["keepalive", "lru"]),
    max_warm=st.sampled_from([0, 1, 2]),
    epoch_edges=edges,
    horizon=st.sampled_from([0.0, 0.03, 10.0, 1e4]),
)
def test_pool_matches_reference(
    stream, keep_alive_s, policy, max_warm, epoch_edges, horizon
):
    args = (stream, keep_alive_s, policy, max_warm, epoch_edges, horizon)
    fast = run(pool, *args)
    reference = run(reference_pool, *args)
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]
