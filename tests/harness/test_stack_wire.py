"""Wire round-trips and cache-key compatibility for the ``stack`` field.

The stack registry replaced the ``memento`` boolean. The wire carries
``stack`` only and refuses the boolean, but the on-disk result cache
predates the registry: baseline/memento requests must hash to exactly
their pre-registry content keys (pinned here by re-deriving the legacy
body shape by hand) so ``.repro-cache/`` stays warm.
"""

import dataclasses as dc

import pytest

from repro import codec
from repro.harness.engine import (
    RunRequest,
    SCHEMA_VERSION,
    cost_model_fingerprint,
    source_fingerprint,
)
from repro.core.config import MementoConfig
from repro.resolve import UsageError
from repro.stacks import stack_names
from repro.workloads.registry import get_workload

ALL_STACKS = list(stack_names())

#: The frozen pre-registry canonical field list: the legacy ``memento``
#: boolean, no ``stack`` key. This is the exact body shape requests
#: hashed to before the stack registry existed.
LEGACY_FIELDS = (
    "spec",
    "memento",
    "config",
    "machine_params",
    "cold_start",
    "mmap_populate",
    "allocator",
    "allocator_kwargs",
    "kernel",
)


def spec():
    return get_workload("html")


def legacy_key(request: RunRequest) -> str:
    """Re-derive the pre-registry content key by hand."""
    normalized = dc.replace(
        request,
        spec=request.spec.resolved(),
        config=MementoConfig(),
    )
    body = {"__type__": "RunRequest"}
    for name in LEGACY_FIELDS:
        # The retired replay-kernel field hashes as null.
        body[name] = (
            None
            if name == "kernel"
            else codec.canonical(getattr(normalized, name))
        )
    return codec.content_key(
        body,
        schema=SCHEMA_VERSION,
        fingerprints={
            "source": source_fingerprint(),
            "cost_model": cost_model_fingerprint(),
        },
    )


# ---------------------------------------------------------- construction


def test_both_spellings_build_the_same_request():
    # A stack is a name: the boolean keyword is gone (and the wire
    # refuses it, see the legacy-payload tests).
    with pytest.raises(TypeError):
        RunRequest(spec(), memento=True)
    with pytest.raises(UsageError, match="unknown stack"):
        RunRequest(spec(), True)


@pytest.mark.parametrize("name", ALL_STACKS)
def test_stack_field_normalizes(name):
    request = RunRequest(spec(), stack=name)
    assert request.stack == name
    from repro.stacks import get_stack

    assert request.memento is get_stack(name).hardware


def test_unknown_stack_rejected_at_construction():
    with pytest.raises(UsageError, match="unknown stack"):
        RunRequest(spec(), stack="bogus")


def test_allocator_knob_rejected_for_undeclaring_stack():
    with pytest.raises(
        ValueError, match="not supported by the 'memento'"
    ):
        RunRequest(spec(), stack="memento", allocator="jemalloc")


# ------------------------------------------------------------ wire forms


@pytest.mark.parametrize("name", ALL_STACKS)
def test_wire_round_trip(name):
    request = RunRequest(spec(), stack=name, cold_start=True)
    payload = request.to_dict()
    assert payload["stack"] == name  # the one spelling on the wire
    assert "memento" not in payload
    decoded = RunRequest.from_dict(payload)
    assert decoded == request
    assert decoded.content_key() == request.content_key()


@pytest.mark.parametrize("memento", [True, False])
def test_legacy_boolean_payload_refused(memento):
    # What a pre-registry writer produced: the boolean, no stack.
    payload = RunRequest(spec()).to_dict()
    del payload["stack"]
    payload["memento"] = memento
    with pytest.raises(ValueError, match="'memento' is retired.*stack"):
        RunRequest.from_dict(payload)


def test_inconsistent_payload_rejected():
    # The boolean is refused beside a stack too, agreeing or not.
    for memento in (True, False):
        payload = RunRequest(spec(), stack="memento").to_dict()
        payload["memento"] = memento
        with pytest.raises(ValueError, match="'memento' is retired"):
            RunRequest.from_dict(payload)


def test_payload_without_any_stack_rejected():
    payload = RunRequest(spec()).to_dict()
    del payload["stack"]
    with pytest.raises(ValueError, match="needs spec and stack"):
        RunRequest.from_dict(payload)


def test_unknown_stack_on_the_wire_rejected():
    payload = RunRequest(spec()).to_dict()
    payload["stack"] = "bogus"
    with pytest.raises(ValueError, match="unknown stack"):
        RunRequest.from_dict(payload)


# ---------------------------------------------------------- content keys


@pytest.mark.parametrize("memento", [True, False])
def test_legacy_stacks_keep_pre_registry_content_keys(memento):
    # The pin: by-hand re-derivation of the pre-registry body shape
    # must equal what content_key() produces today, for the request and
    # for its wire payload decoded.
    request = RunRequest(spec(), stack="memento" if memento else "baseline")
    assert request.content_key() == legacy_key(request)
    decoded = RunRequest.from_dict(request.to_dict())
    assert decoded.content_key() == legacy_key(request)


@pytest.mark.parametrize("name", ["snapshot", "reclaim"])
def test_new_stacks_hash_the_stack_field(name):
    # New stacks never had pre-registry keys; their ``stack`` field is
    # in the hash, so they cannot collide with a legacy key...
    request = RunRequest(spec(), stack=name)
    assert request.content_key() != legacy_key(
        RunRequest(spec(), stack="baseline")
    )
    # ...or with each other.
    keys = {RunRequest(spec(), stack=n).content_key() for n in ALL_STACKS}
    assert len(keys) == len(ALL_STACKS)

