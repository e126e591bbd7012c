"""Pinned outputs of the idealized Mallacc baseline (§6.7).

No golden fixture runs ``MallaccAllocator``; these digests of
``RunResult.to_dict()`` pin its cold-start runs on the two DeathStarBench
functions under every stack that accepts an allocator override. A change
here is a behavioral change of Mallacc (or of jemalloc beneath it).
"""

import dataclasses

import pytest

from repro.allocators.mallacc import MallaccAllocator
from repro.harness.system import SimulatedSystem
from repro.obs.ledger import payload_digest
from repro.workloads.registry import get_workload
from repro.workloads.synth import generate_trace

NUM_ALLOCS = 3000

MALLACC_DIGESTS = {
    "US/baseline": "48f2334c0eec458b",
    "US/snapshot": "c10dd49fc0255a7b",
    "US/reclaim": "0cf40683f4249b75",
    "UM/baseline": "01df5c3690d8a15c",
    "UM/snapshot": "d62eb07bbf116b70",
    "UM/reclaim": "341847e8ce74256e",
}


@pytest.mark.parametrize("key", sorted(MALLACC_DIGESTS))
def test_mallacc_cold_start_digest(key):
    name, stack = key.split("/")
    spec = dataclasses.replace(
        get_workload(name).resolved(), num_allocs=NUM_ALLOCS
    )
    result = SimulatedSystem(
        spec, stack, cold_start=True, allocator_cls=MallaccAllocator
    ).run(generate_trace(spec))
    assert payload_digest(result.to_dict()) == MALLACC_DIGESTS[key]
