"""The engine and the server run on the standard library alone.

numpy may well be installed next to the package (it is a common
transitive dependency), so this checks that nothing on the public path
imports it: a fresh interpreter imports ``repro.api``, simulates one
fleet shard and imports the service app, and numpy must still be
absent from ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import repro.api as api
from repro.fleet.simulate import fleet_run_requests
request = api.FleetRequest(
    workloads=("html",), stacks=("memento",), invocation_allocs=200,
    profile_seeds=1,
)
shard = next(iter(fleet_run_requests(request).values()))
assert shard.execute().allocs > 0
import repro.service.app
print("numpy" in sys.modules)
"""


def test_public_path_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False", out.stderr
