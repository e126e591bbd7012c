"""What the benchmark under ``perfbench/`` needs of the program.

The benchmark traces layers by patching named functions and classes
(``perfbench/layers.py``); a traced run fails if one of them is gone.
This test only reads the benchmark's files, so a renamed or moved trace
target fails here, in tier-1, and not first in a benchmark run.
"""

import importlib.util
from pathlib import Path

from repro.backends import JsonBackend

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
