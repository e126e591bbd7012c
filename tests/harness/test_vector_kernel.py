"""Replay-loop equivalence suite and the retired replay-kernel field.

``SimulatedSystem`` replays a trace one of two ways: the columnar loop
over the packed trace (every unaudited run) or the per-event path
through ``SimulatedSystem.step`` (audited runs and the differential
oracle). Both run every touch through the one line-touch kernel
(``SimulatedSystem._touch_lines``). The contract under test is
absolute: the packed form is an *encoding* of the event stream, not a
model of it, so ``RunResult.to_dict()`` — counters, digests, cycle
totals, profile attribution — must be bit-identical between the two
paths on every workload, on a hand-built trace at the touch kernel's
edges, and on every registered stack. Anything less is a correctness
bug, not a tolerance.

Requests once also chose between two replay kernels; the wire field
survives only as a tolerated legacy value that never reaches content
keys (the last section).
"""

import dataclasses
import json
import random

import pytest

from repro.audit.oracle import run_lockstep
from repro.core.config import MementoConfig
from repro.harness.engine import RunRequest
from repro.harness.system import SimulatedSystem
from repro.obs.instruments import instrumented
from repro.obs.profile import CycleProfile
from repro.stacks import stack_names
from repro.workloads.registry import all_workloads, get_workload
from repro.workloads.synth import generate_trace
from repro.workloads.trace import Alloc, Compute, Free, Touch, Trace

ALL_SPECS = [spec.resolved() for spec in all_workloads()]
IDS = [spec.name for spec in ALL_SPECS]
ALL_STACKS = list(stack_names())


def stepped(trace):
    """``trace`` with packing disabled, so ``run()`` takes the per-event
    path for it."""
    copy = Trace(trace.name, trace.language, trace.category, trace.events)
    copy.columnar = lambda: None
    return copy


def run_result(spec, stack, trace, per_event, **kwargs):
    system = SimulatedSystem(spec, stack, **kwargs)
    return system.run(stepped(trace) if per_event else trace).to_dict()


def assert_paths_agree(spec, stack, trace, **kwargs):
    columnar = run_result(spec, stack, trace, False, **kwargs)
    per_event = run_result(spec, stack, trace, True, **kwargs)
    assert json.dumps(columnar, sort_keys=True) == json.dumps(
        per_event, sort_keys=True
    )


# -- lockstep equivalence ----------------------------------------------------


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_kernels_bit_identical_every_workload(spec, stack):
    sized = dataclasses.replace(spec, num_allocs=400)
    assert_paths_agree(sized, stack, generate_trace(sized))


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_kernels_bit_identical_randomized_short_traces(seed):
    rng = random.Random(seed)
    spec = get_workload(rng.choice(["html", "Redis", "deploy"])).resolved()
    spec = dataclasses.replace(
        spec,
        num_allocs=rng.randrange(20, 200),
        seed=rng.randrange(1 << 30),
    )
    trace = generate_trace(spec)
    for stack in ALL_STACKS:
        assert_paths_agree(spec, stack, trace)


def test_kernels_identical_profile_attribution():
    spec = dataclasses.replace(
        get_workload("html").resolved(), num_allocs=400
    )
    trace = generate_trace(spec)
    payloads = {}
    for per_event in (False, True):
        profile = CycleProfile()
        with instrumented(profile=profile):
            run_result(spec, "memento", trace, per_event)
        payloads[per_event] = profile.to_dict()
    assert payloads[False] == payloads[True]


def test_kernels_identical_nondefault_config():
    spec = dataclasses.replace(
        get_workload("Redis").resolved(), num_allocs=300
    )
    assert_paths_agree(
        spec,
        "memento",
        generate_trace(spec),
        memento_config=MementoConfig(bypass_enabled=False),
    )


def edge_trace(language):
    """Hand-built events at the line-touch kernel's edges.

    Object 0 is 16 KiB, over the 512 B split, so on Memento it takes the
    large path and has no arena header. Sweeping every line offset of
    its first two pages with single- and three-line touches puts a
    single-line touch on the last line of a page, and a multi-line touch
    across a page boundary, whatever the object's alignment. The small
    objects (with arena headers on Memento) are touched on their last
    line, read and then written, and then in full; 448 B and 192 B
    objects do not tile a page evenly. Half of them are freed and their
    slots reused, which resets the bypass counters of reused lines.
    """
    events = [Alloc(0, 16 << 10)]
    for offset in range(130):
        events.append(Touch(0, 1, offset, write=offset % 2 == 0))
        events.append(Touch(0, 3, offset, write=False))
    events += [Touch(0, 1, 5, write=False), Touch(0, 1, 5, write=True)]
    obj = 1
    for size in (512, 448, 192, 64):
        lines = size // 64
        for _ in range(12):
            events += [
                Alloc(obj, size),
                Touch(obj, 1, lines - 1, write=False),
                Touch(obj, 1, lines - 1, write=True),
                Touch(obj, lines, 0, write=True),
                Compute(100, 64),
            ]
            obj += 1
    events += [Free(dead) for dead in range(1, obj, 2)]
    for size in (512, 192):
        events += [Alloc(obj, size), Touch(obj, size // 64, 0, write=True)]
        obj += 1
    events += [Touch(live, 2, 0, write=False) for live in range(2, obj - 2, 2)]
    events += [Free(0), Compute(50, 0)]
    trace = Trace("edge", language, "function", events)
    trace.validate()
    return trace


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("workload", ["html", "US", "html-go"])
def test_kernels_bit_identical_edge_trace(workload, stack):
    spec = get_workload(workload).resolved()
    trace = edge_trace(spec.language)
    assert_paths_agree(spec, stack, trace)
    # Both paths share the touch kernel, so hold it to the oracle's naive
    # per-line reference as well.
    divergence, _ = run_lockstep(list(trace.events), spec, stack)
    assert divergence is None, divergence


# -- @audit tier: the full sweep at a larger trace size ----------------------


@pytest.mark.audit
@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_audit_sweep_columnar_bit_identical(spec, stack):
    sized = dataclasses.replace(spec, num_allocs=800)
    assert_paths_agree(sized, stack, generate_trace(sized))


# -- the retired replay-kernel field -----------------------------------------


def test_request_rejects_unknown_kernel():
    # The field is gone: every value, even one it once accepted, is an
    # unknown field.
    payload = RunRequest(get_workload("html"), stack="memento").to_dict()
    assert "kernel" not in payload
    for kernel in (None, "scalar", "vectorized", "auto", "bogus"):
        payload["kernel"] = kernel
        with pytest.raises(ValueError, match=r"fields: \['kernel'\]"):
            RunRequest.from_dict(payload)
