"""Golden-fixture equivalence for the optimized replay hot path.

The fixtures in ``golden/replay_golden.json`` were captured from the
pre-optimization replay loop. Every hot-path change (interned counters,
closure-bound cache accesses, columnar replay, allocator fast paths)
must keep ``RunResult.to_dict()`` bit-identical to these payloads.

Regenerate (only after an *intentional* behavioral change) with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/harness/test_replay_golden.py
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.harness.system import SimulatedSystem
from repro.workloads.registry import get_workload
from repro.workloads.synth import generate_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "replay_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _replay(name: str, stack: str) -> dict:
    spec = dataclasses.replace(get_workload(name).resolved(), num_allocs=4000)
    trace = generate_trace(spec)
    result = SimulatedSystem(spec, stack).run(trace)
    return result.to_dict()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_replay_matches_golden_fixture(key):
    name, stack = key.split("/")
    assert _replay(name, stack) == GOLDEN[key]


def test_update_golden_fixtures():
    """Opt-in fixture refresh; a no-op unless REPRO_UPDATE_GOLDEN=1."""
    if os.environ.get("REPRO_UPDATE_GOLDEN") != "1":
        pytest.skip("set REPRO_UPDATE_GOLDEN=1 to rewrite the fixtures")
    payload = {key: _replay(*key.split("/")) for key in sorted(GOLDEN)}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
