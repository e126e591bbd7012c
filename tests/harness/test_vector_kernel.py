"""Replay-loop equivalence suite and the retired replay-kernel field.

``SimulatedSystem`` replays a trace one of two ways: the columnar loop
over the packed segment index (every unaudited run) or the per-event
path through ``SimulatedSystem.step`` (audited runs and the differential
oracle). The contract under test is absolute: the columnar form is an
*encoding* of the event stream, not a model of it, so
``RunResult.to_dict()`` — counters, digests, cycle totals, profile
attribution — must be bit-identical between the two paths on every
workload and every registered stack. Anything less is a correctness
bug, not a tolerance.

Requests once also chose between two replay kernels; the wire field
survives only as a tolerated legacy value that never reaches content
keys (the last section).
"""

import dataclasses
import json
import random

import pytest

from repro.core.config import MementoConfig
from repro.harness.engine import RunRequest
from repro.harness.system import SimulatedSystem
from repro.obs.instruments import instrumented
from repro.obs.profile import CycleProfile
from repro.stacks import stack_names
from repro.workloads.registry import all_workloads, get_workload
from repro.workloads.synth import generate_trace
from repro.workloads.trace import Trace

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


# -- @audit tier: the full sweep at a larger trace size ----------------------


@pytest.mark.audit
@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=IDS)
def test_audit_sweep_columnar_bit_identical(spec, stack):
    sized = dataclasses.replace(spec, num_allocs=800)
    assert_paths_agree(sized, stack, generate_trace(sized))


# -- the retired replay-kernel field -----------------------------------------


def test_content_key_excludes_kernel():
    # Legacy payloads carrying any value the field once accepted parse
    # to the same request, and so to the same content key.
    for stack in ALL_STACKS:
        request = RunRequest(get_workload("html"), stack=stack)
        payload = request.to_dict()
        assert "kernel" not in payload
        for kernel in (None, "scalar", "vectorized", "auto"):
            payload["kernel"] = kernel
            parsed = RunRequest.from_dict(payload)
            assert parsed == request
            assert parsed.content_key() == request.content_key()


def test_request_rejects_unknown_kernel():
    payload = RunRequest(get_workload("html"), stack="memento").to_dict()
    payload["kernel"] = "bogus"
    with pytest.raises(ValueError, match="unknown replay kernel 'bogus'"):
        RunRequest.from_dict(payload)
