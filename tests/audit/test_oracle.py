"""Unit tests for the differential oracle: reference parity on real
traces, the bypass-soundness monitor, divergence reporting, and the
greedy prefix minimizer."""

import dataclasses

import pytest

from repro.audit import oracle
from repro.audit.oracle import (
    BypassSoundnessMonitor,
    DiffReport,
    Divergence,
    build_reference_system,
    minimize_prefix,
    run_diff,
    run_lockstep,
)
from repro.resolve import UsageError
from repro.workloads.registry import get_workload
from repro.workloads.synth import generate_trace
from repro.workloads.trace import Alloc, Compute, Free, Touch


def small_spec(num_allocs=200):
    return dataclasses.replace(
        get_workload("html").resolved(), num_allocs=num_allocs
    )


# ------------------------------------------------------------- lockstep


@pytest.mark.parametrize(
    "stack", ["baseline", "memento", "snapshot", "reclaim"]
)
def test_lockstep_clean_on_real_trace(stack):
    spec = small_spec()
    events = list(generate_trace(spec).events)
    divergence, fast = run_lockstep(events, spec, stack)
    assert divergence is None
    assert fast is not None  # replay state intact for invariant checks


def test_reference_system_matches_fast_end_state():
    spec = small_spec()
    trace = generate_trace(spec)
    fast = oracle.SimulatedSystem(spec, stack="memento")
    fast._replay_columnar(trace.columnar())
    reference = build_reference_system(spec, stack="memento")
    for index, event in enumerate(trace.events):
        reference.step(event, index)
    for key in oracle._PROBE_KEYS_MEMENTO:
        assert fast.machine.stats[key] == reference.machine.stats[key], key
    assert fast.core.cycles == reference.core.cycles


def test_lockstep_reports_counter_divergence(monkeypatch):
    spec = small_spec(60)
    events = list(generate_trace(spec).events)
    real_probe = oracle._probe
    systems = []

    def probe(system, keys):
        values = real_probe(system, keys)
        if system not in systems:
            systems.append(system)
        if systems.index(system) == 1:  # the reference side
            values["l1d.hits"] += 1
        return values

    monkeypatch.setattr(oracle, "_probe", probe)
    divergence, _fast = run_lockstep(events, spec, "memento")
    assert divergence is not None
    assert divergence.kind == "counter"
    assert divergence.key == "l1d.hits"
    assert divergence.event_index == 0
    assert divergence.fast + 1 == divergence.reference
    assert "l1d.hits" in str(divergence)
    assert divergence.to_dict()["kind"] == "counter"


def test_lockstep_reports_reference_exception(monkeypatch):
    spec = small_spec(60)
    events = list(generate_trace(spec).events)
    real_step = oracle._step_event
    calls = {"n": 0}

    def step(system, event):
        calls["n"] += 1
        if calls["n"] == 8:  # reference side of the 4th event
            raise RuntimeError("reference blew up")
        return real_step(system, event)

    monkeypatch.setattr(oracle, "_step_event", step)
    divergence, _fast = run_lockstep(events, spec, "memento")
    assert divergence is not None
    assert divergence.kind == "exception"
    assert divergence.key == "reference"
    assert divergence.event_index == 3
    assert "reference blew up" in divergence.reference


# ------------------------------------------------------------- monitor


def test_monitor_flags_bypass_of_live_written_line():
    monitor = BypassSoundnessMonitor()
    monitor.observe(obj=1, vaddr=0x1000, write=True, bypassed=False)
    monitor.observe(obj=2, vaddr=0x1010, write=False, bypassed=True)
    assert len(monitor.violations) == 1
    assert "bypassed line" in monitor.violations[0]


def test_monitor_releases_lines_on_free():
    monitor = BypassSoundnessMonitor()
    monitor.observe(obj=1, vaddr=0x1000, write=True, bypassed=False)
    monitor.on_free(1)
    monitor.observe(obj=2, vaddr=0x1000, write=False, bypassed=True)
    assert monitor.violations == []  # writer freed; bypass is safe


def test_monitor_refcounts_shared_lines():
    monitor = BypassSoundnessMonitor()
    monitor.observe(obj=1, vaddr=0x2000, write=True, bypassed=False)
    monitor.observe(obj=2, vaddr=0x2020, write=True, bypassed=False)
    monitor.on_free(1)
    monitor.observe(obj=3, vaddr=0x2000, write=False, bypassed=True)
    assert len(monitor.violations) == 1  # obj 2 still holds the line


# ------------------------------------------------------------ minimizer


def test_minimize_prefix_drops_innocent_objects(monkeypatch):
    events = [
        Alloc(obj=1, size=64),
        Alloc(obj=2, size=64),
        Compute(cycles=10),
        Touch(obj=1),
        Alloc(obj=3, size=64),
        Touch(obj=3),
        Touch(obj=2),  # the divergent event; obj 2 is the culprit
    ]

    def fake_lockstep(candidate, spec, stack, monitor=None, check_every=1):
        # The "bug" reproduces whenever object 2's events are present.
        hit = any(getattr(e, "obj", None) == 2 for e in candidate)
        divergence = (
            Divergence(len(candidate) - 1, "counter", "k", 1, 2)
            if hit
            else None
        )
        return divergence, None

    monkeypatch.setattr(oracle, "run_lockstep", fake_lockstep)
    minimized = minimize_prefix(events, small_spec(), "memento")
    # Objects 1 and 3 and the Compute are innocent; only obj 2 survives.
    assert minimized == [Alloc(obj=2, size=64), Touch(obj=2)]


def test_minimize_prefix_respects_run_budget(monkeypatch):
    events = [Alloc(obj=i, size=64) for i in range(1, 6)] + [Touch(obj=5)]
    calls = {"n": 0}

    def fake_lockstep(candidate, spec, stack, monitor=None, check_every=1):
        calls["n"] += 1
        return Divergence(0, "counter", "k", 1, 2), None

    monkeypatch.setattr(oracle, "run_lockstep", fake_lockstep)
    minimize_prefix(events, small_spec(), "memento", max_runs=2)
    assert calls["n"] <= 2


# ------------------------------------------------------------- run_diff


@pytest.mark.parametrize(
    "stack", ["baseline", "memento", "snapshot", "reclaim"]
)
def test_run_diff_clean_leg(stack):
    report = run_diff(small_spec(), stack, num_allocs=200)
    assert report.ok
    assert report.divergence is None
    assert report.soundness == []
    assert report.invariant_findings == []
    assert report.columnar_mismatches == []
    assert report.minimized_events is None
    assert report.events > 200
    assert report.stack == stack
    payload = report.to_dict()
    assert payload["workload"] == "html"
    assert payload["divergence"] is None


def test_run_diff_rejects_legacy_boolean():
    report = run_diff(small_spec(), "memento", num_allocs=120)
    assert report.stack == "memento"
    assert report.ok
    with pytest.raises(UsageError, match="unknown stack True"):
        run_diff(small_spec(), True, num_allocs=120)


def test_diff_report_ok_flips_on_any_finding():
    report = DiffReport(workload="w", stack="memento", events=1)
    assert report.ok
    report.soundness = ["bad"]
    assert not report.ok
    report.soundness = []
    report.columnar_mismatches = ["stats mismatch"]
    assert not report.ok
    report.columnar_mismatches = []
    report.divergence = Divergence(0, "counter", "k", 1, 2)
    assert not report.ok
