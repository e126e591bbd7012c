"""Repo-wide pytest plumbing.

The ``@pytest.mark.audit`` tier replays every registered workload on both
stacks under a per-run invariant audit plus the differential oracle —
minutes of work, far beyond the tier-1 budget. It is opt-in: pass
``--run-audit`` or set ``REPRO_AUDIT=1`` (the nightly audit workflow
does); otherwise the marked tests are skipped, not silently absent.

Every test session points ``REPRO_CACHE_DIR`` at a temporary directory,
so engines built without a ``cache_dir`` (and the CLI) never write the
checkout's ``.repro-cache/``. Tests that pass their own ``cache_dir``
are unaffected.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-audit",
        action="store_true",
        default=False,
        help="run the @audit tier (full workload x stack audit sweep)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-audit") or os.environ.get("REPRO_AUDIT"):
        return
    skip = pytest.mark.skip(
        reason="audit tier skipped (use --run-audit or REPRO_AUDIT=1)"
    )
    for item in items:
        if item.get_closest_marker("audit") is not None:
            item.add_marker(skip)


@pytest.fixture(autouse=True, scope="session")
def _session_cache_dir(tmp_path_factory):
    previous = os.environ.get("REPRO_CACHE_DIR")
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        del os.environ["REPRO_CACHE_DIR"]
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
