"""What the benchmark under ``perfbench/`` needs of the program.

The benchmark traces layers by patching named functions and classes
(``perfbench/layers.py``); a traced run fails if one of them is gone.
It also pins the output of a small fleet (``perfbench/expected.json``).
These tests only read the benchmark's files, so a renamed or moved
trace target, or a fleet output that moved (a float addition reordered
in the pool pass, say), fails here, in tier-1, and not first in a
benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.backends import JsonBackend
from repro.fleet import FleetRequest, simulate_fleet
from repro.harness.engine import ExperimentEngine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    before = dict(JsonBackend.__dict__)
    recorder = layers.Recorder()
    # Raises AttributeError naming the target if any one is gone.
    recorder.install()
    recorder.uninstall()
    assert dict(JsonBackend.__dict__) == before


def test_pinned_fleet_matches_the_benchmark_digest(tmp_path):
    """The pinned fleet of ``perfbench/fleets.py`` (``pinned_fleet``):
    fleet seed 0, 1k invocations at 200 allocations, one profile seed,
    diurnal arrivals, a 20 s keep-alive and an LRU cap of 2, over the
    benchmark's four stacks and four workloads. Its ``FleetResult``
    without ``fleet_key`` (which folds in the source fingerprint) must
    hash to ``expected.json["fleet"]`` as the benchmark hashes it."""
    request = FleetRequest(
        workloads=("html", "jd", "US", "html-go"),
        invocations=1_000,
        seed=0,
        stacks=("baseline", "memento", "snapshot", "reclaim"),
        invocation_allocs=200,
        profile_seeds=1,
        pattern="diurnal",
        keep_alive_s=20.0,
        policy="lru",
        max_warm=2,
    )
    engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
    payload = simulate_fleet(request, engine).to_dict()
    payload.pop("fleet_key")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        expected["fleet"]
    )
