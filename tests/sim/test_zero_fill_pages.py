"""``zero_fill_pages`` against a per-page ``zero_fill_page`` loop.

A range zero-filled into an empty LLC without an eviction leaves LLC
sets that depend only on the geometry and the frames, so the hierarchy
keeps them as a per-process template and later copies it instead of
filling line by line. Whatever path a call takes, the LLC sets (keys,
LRU order, dirty bits), every counter, the DRAM traffic and the core's
cycles must equal those the per-page loop leaves behind.
"""

from __future__ import annotations

import gc
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.engine import RunRequest
from repro.sim import cache as cache_module
from repro.sim.cache import (
    ZERO_FILL_TEMPLATE_CAP,
    ZERO_FILL_TEMPLATE_MIN_PAGES,
)
from repro.sim.machine import Machine
from repro.sim.params import PAGE_SHIFT, CacheParams, MachineParams
from repro.stacks import stack_names
from repro.workloads.registry import get_workload

from tests.sim.test_lru_sets import set_contents


@pytest.fixture(autouse=True)
def _fresh_templates(monkeypatch):
    """Each test starts with no templates and leaves the process's own
    templates as it found them."""
    monkeypatch.setattr(cache_module, "_zero_fill_templates", {})


def llc_params(num_sets, ways):
    """Small L1/L2 and an LLC of ``num_sets`` x ``ways``."""
    return MachineParams(
        l1d=CacheParams(2 * 2 * 64, 2, 2),
        l2=CacheParams(4 * 2 * 64, 2, 14),
        llc=CacheParams(num_sets * ways * 64, ways, 40),
    )


#: 4 x 4 evicts on any range long enough for a template; 100 x 48 is
#: not a multiple of 64 sets and holds up to 48 pages; 64 x 48 puts
#: exactly one line of every page in each set.
GEOMETRIES = st.sampled_from([(4, 4), (100, 48), (64, 48)])
#: Distinct frames, from shorter than a template range to long enough
#: to evict from the 100 x 48 and 64 x 48 LLCs.
FRAMES = st.lists(
    st.integers(min_value=0, max_value=511),
    min_size=ZERO_FILL_TEMPLATE_MIN_PAGES - 4,
    max_size=ZERO_FILL_TEMPLATE_MIN_PAGES + 24,
    unique=True,
)
#: Prior state: line touches, single-page fills and cold-start flushes
#: (which empty the LLC but keep every counter).
PRIOR_OPS = st.lists(
    st.tuples(
        st.sampled_from(["access", "zero_fill", "flush"]),
        st.integers(min_value=0, max_value=1 << 15),
        st.booleans(),
    ),
    max_size=40,
)


def prepared(params, prior):
    """A machine whose first core has replayed ``prior``."""
    machine = Machine(params)
    caches = machine.core.caches
    for op, line, write in prior:
        if op == "access":
            caches.access_line(line, write)
        elif op == "zero_fill":
            caches.zero_fill_page((line >> 6) << PAGE_SHIFT)
        else:
            caches.flush_all()
    return machine


def per_page(machine, frames):
    for pfn in frames:
        machine.core.caches.zero_fill_page(pfn << PAGE_SHIFT)


def state(machine):
    """Everything a zero fill may change."""
    caches = machine.core.caches
    return (
        [set_contents(level._sets) for level in (caches.l1d, caches.l2)],
        set_contents(caches.llc._sets),
        machine.stats.snapshot(),
        machine.core.cycles,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geometry=GEOMETRIES, prior=PRIOR_OPS, frames=FRAMES)
def test_zero_fill_pages_matches_per_page_loop(geometry, prior, frames):
    cache_module._zero_fill_templates.clear()
    params = llc_params(*geometry)
    expected = prepared(params, prior)
    was_empty = not any(expected.core.caches._llc_sets)
    evictions = expected.stats.get("llc.evictions")
    per_page(expected, frames)
    evicted = expected.stats.get("llc.evictions") > evictions
    # The first call may store a template; the second, on a machine in
    # the same state, may copy it.
    for _ in range(2):
        machine = prepared(params, prior)
        machine.core.caches.zero_fill_pages(frames)
        assert state(machine) == state(expected)
    stored = (
        was_empty
        and not evicted
        and len(frames) >= ZERO_FILL_TEMPLATE_MIN_PAGES
    )
    assert list(cache_module._zero_fill_templates) == (
        [(*geometry, tuple(frames))] if stored else []
    )


def test_template_is_stored_once_and_copied():
    params = llc_params(100, 48)
    frames = list(range(1, 1 + ZERO_FILL_TEMPLATE_MIN_PAGES))
    expected = Machine(params)
    per_page(expected, frames)
    first, second = Machine(params), Machine(params)
    first.core.caches.zero_fill_pages(frames)
    (template,) = cache_module._zero_fill_templates.values()
    second.core.caches.zero_fill_pages(frames)
    for machine in (first, second):
        assert state(machine) == state(expected)
        caches = machine.core.caches
        # Copied in place: the Cache and the access closures share the
        # list, and no set is shared with the template.
        assert caches.llc._sets is caches._llc_sets
        assert not {id(s) for s in caches._llc_sets} & {
            id(s) for s in template
        }
        assert not any(gc.is_tracked(s) for s in caches._llc_sets)


def test_template_survives_a_run_on_its_copy():
    params = llc_params(64, 48)
    frames = list(range(40, 40 + ZERO_FILL_TEMPLATE_MIN_PAGES + 8))
    expected = Machine(params)
    per_page(expected, frames)
    for _ in range(3):
        machine = Machine(params)
        caches = machine.core.caches
        caches.zero_fill_pages(frames)
        assert state(machine) == state(expected)
        # Touch, refill and flush the copy.
        for line in range(0, 1 << 13, 7):
            caches.access_line(line, line & 1)
        caches.zero_fill_page(3 << PAGE_SHIFT)
        caches.flush_all()


def test_small_llc_stores_no_template():
    params = llc_params(4, 4)
    frames = list(range(ZERO_FILL_TEMPLATE_MIN_PAGES))
    expected = Machine(params)
    per_page(expected, frames)
    machine = Machine(params)
    machine.core.caches.zero_fill_pages(frames)
    assert state(machine) == state(expected)
    assert expected.stats["llc.evictions"] > 0
    assert not cache_module._zero_fill_templates


def test_templates_are_capped_oldest_first():
    params = llc_params(100, 48)
    ranges = [
        tuple(range(start, start + ZERO_FILL_TEMPLATE_MIN_PAGES))
        for start in range(0, 64 * (ZERO_FILL_TEMPLATE_CAP + 1), 64)
    ]
    for frames in ranges:
        Machine(params).core.caches.zero_fill_pages(frames)
    assert [key[2] for key in cache_module._zero_fill_templates] == ranges[
        1:
    ]


def test_cold_start_runs_repeat_on_every_stack(monkeypatch):
    # Per stack: with templates off, then a template miss, then a hit.
    spec = replace(get_workload("html"), num_allocs=400)
    for stack in stack_names():
        request = RunRequest(spec, stack=stack, cold_start=True)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "ZERO_FILL_TEMPLATE_MIN_PAGES", 10**9)
            reference = request.execute().to_dict()
        cache_module._zero_fill_templates.clear()
        assert request.execute().to_dict() == reference
        assert cache_module._zero_fill_templates
        assert request.execute().to_dict() == reference


def test_threads_share_the_templates():
    # More threads than cores, more ranges than the cap and a short
    # switch interval: stores and evictions of templates interleave.
    params = llc_params(64, 48)
    ranges = [
        list(range(start, start + ZERO_FILL_TEMPLATE_MIN_PAGES))
        for start in range(0, 64 * (ZERO_FILL_TEMPLATE_CAP + 2), 64)
    ]
    expected = []
    for frames in ranges:
        machine = Machine(params)
        per_page(machine, frames)
        expected.append(state(machine))
    failures = []

    def fill(offset):
        try:
            for i in range(24):
                index = (offset + i) % len(ranges)
                machine = Machine(params)
                machine.core.caches.zero_fill_pages(ranges[index])
                if state(machine) != expected[index]:
                    failures.append(index)
        except Exception as exc:  # reported below, not lost in a thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fill, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(cache_module._zero_fill_templates) <= ZERO_FILL_TEMPLATE_CAP
