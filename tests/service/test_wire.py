"""Wire schema: RunRequest round-trips and submission parsing."""

import copy
import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import limits
from repro.core.config import MementoConfig
from repro.fleet import FleetRequest
from repro.harness.engine import RunRequest
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    fleet_request_from_wire,
    run_request_from_wire,
    run_request_to_wire,
    run_requests_from_wire,
)
from repro.sim.params import MachineParams
from repro.workloads.registry import get_workload
from repro.workloads.synth import SPEC_BOUNDS


def small(name: str = "aes", num_allocs: int = 1_500):
    return replace(get_workload(name), num_allocs=num_allocs)


def interesting_request() -> RunRequest:
    """A request exercising every nested codec path."""
    return RunRequest(
        small("html"),
        stack="memento",
        config=MementoConfig(region_bytes=1 << 15),
        machine_params=MachineParams(),
        cold_start=True,
        mmap_populate=True,
    )


class TestRoundTrip:
    def test_round_trip_equality(self):
        request = interesting_request()
        rebuilt = run_request_from_wire(run_request_to_wire(request))
        assert rebuilt == request

    def test_round_trip_preserves_content_key(self):
        """The acceptance criterion behind HTTP/direct cache sharing:
        a round-tripped request hashes to the same content key."""
        for request in (
            interesting_request(),
            RunRequest(small(), stack="baseline"),
            RunRequest(
                small(), stack="baseline",
                allocator="pymalloc",
                allocator_kwargs=(("arena_bytes", 131072),),
            ),
        ):
            rebuilt = run_request_from_wire(request.to_dict())
            assert rebuilt.content_key() == request.content_key()

    def test_wire_payload_is_versioned(self):
        payload = run_request_to_wire(interesting_request())
        assert payload["schema_version"] == WIRE_SCHEMA_VERSION

    def test_version_zero_payload_upgrades(self):
        payload = run_request_to_wire(interesting_request())
        del payload["schema_version"]
        assert run_request_from_wire(payload) == interesting_request()


class TestWorkloadByName:
    def test_workload_name_resolves_registry_spec(self):
        request = run_request_from_wire(
            {"workload": "html", "memento": True}
        )
        assert request.spec == get_workload("html")
        assert request.memento is True

    def test_spec_overrides_apply(self):
        request = run_request_from_wire({
            "workload": "html",
            "memento": False,
            "spec_overrides": {"num_allocs": 1_000},
        })
        assert request.spec.num_allocs == 1_000
        assert request.spec.name == "html"

    def test_named_workload_matches_inline_spec_key(self):
        by_name = run_request_from_wire(
            {"workload": "aes", "memento": True}
        )
        inline = RunRequest(get_workload("aes"), stack="memento")
        assert by_name.content_key() == inline.content_key()


class TestRejections:
    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            run_request_from_wire([1, 2, 3])

    def test_newer_schema_rejected(self):
        payload = {"workload": "html", "memento": True,
                   "schema_version": WIRE_SCHEMA_VERSION + 1}
        with pytest.raises(WireError, match="newer"):
            run_request_from_wire(payload)

    def test_unknown_workload_rejected(self):
        with pytest.raises(WireError, match="nope"):
            run_request_from_wire({"workload": "nope", "memento": True})

    def test_workload_and_spec_both_rejected(self):
        with pytest.raises(WireError, match="not both"):
            run_request_from_wire({
                "workload": "html", "spec": {}, "memento": True,
            })

    def test_bad_spec_overrides_rejected(self):
        with pytest.raises(WireError, match="spec_overrides"):
            run_request_from_wire({
                "workload": "html", "memento": True,
                "spec_overrides": {"no_such_field": 1},
            })

    def test_unknown_fields_rejected(self):
        with pytest.raises(WireError, match="unknown"):
            run_request_from_wire({
                "workload": "html", "memento": True, "surprise": 1,
            })

    def test_missing_memento_rejected(self):
        with pytest.raises(WireError):
            run_request_from_wire({"workload": "html"})

    @pytest.mark.parametrize("name", [["html"], {}, 7, True])
    def test_non_string_workload_rejected(self, name):
        with pytest.raises(WireError, match="workload must be a name"):
            run_request_from_wire({"workload": name, "memento": True})

    @pytest.mark.parametrize("flag", ["memento", "cold_start",
                                      "mmap_populate"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_non_boolean_flag_rejected(self, flag, value):
        # bool("false") is True: a coerced flag would silently run the
        # memento stack (or a cold start) the client asked to switch off.
        payload = {"workload": "html", "stack": "baseline", flag: value}
        if flag == "memento":
            del payload["stack"]
        with pytest.raises(WireError, match=f"{flag}' must be a boolean"):
            run_request_from_wire(payload)

    @pytest.mark.parametrize("mode", [[1e400, 1.0], [64, 10**400]])
    def test_out_of_range_size_mode_rejected(self, mode):
        # 1e400 is valid JSON and parses as infinity; int() of it raised
        # OverflowError, which escaped as an HTTP 500.
        with pytest.raises(WireError, match="size_modes out of range"):
            run_request_from_wire({
                "workload": "html", "memento": True,
                "spec_overrides": {"size_modes": [mode]},
            })


#: Mistyped numeric fields, each accepted before the decoders checked
#: types: ``(decoder, payload, message)``.
MISTYPED = [
    (fleet_request_from_wire, {"invocations": 1e400}, "'invocations' must be an integer"),
    (fleet_request_from_wire, {"invocations": 2.5}, "'invocations' must be an integer"),
    (fleet_request_from_wire, {"invocations": True}, "'invocations' must be an integer"),
    (fleet_request_from_wire, {"duration_s": float("nan")}, "'duration_s' must be a finite number"),
    (fleet_request_from_wire, {"keep_alive_s": 1e400}, "'keep_alive_s' must be a finite number"),
    (run_request_from_wire,
     {"workload": "html", "memento": True, "spec_overrides": {"num_allocs": "x"}},
     "'num_allocs' must be an integer"),
    (run_request_from_wire,
     {"workload": "html", "memento": True, "spec_overrides": {"num_allocs": float("nan")}},
     "'num_allocs' must be an integer"),
    (run_request_from_wire,
     {"workload": "html", "memento": True, "spec_overrides": {"num_allocs": -5}},
     "'num_allocs' must lie in"),
    (run_request_from_wire,
     {"workload": "html", "memento": True, "spec_overrides": {"retouch_prob": 1.5}},
     "'retouch_prob' must lie in"),
    (run_request_from_wire,
     {"workload": "html", "memento": True, "spec_overrides": {"language": "rust"}},
     "'language' must be one of"),
    (run_request_from_wire,
     {"workload": "html", "memento": True,
      "spec_overrides": {"size_modes": [[64, 0]]}},
     "size_modes out of range: no positive weight"),
    (run_request_from_wire,
     {"workload": "html", "memento": True,
      "spec_overrides": {"size_modes": [["64", 1.0]]}},
     "size_modes out of range"),
    (run_request_from_wire,
     {"workload": "html", "stack": "baseline", "allocator_kwargs": {"ab": 1}},
     "'allocator_kwargs' must be a list of"),
    (run_request_from_wire,
     {"workload": "html", "stack": "baseline", "allocator_kwargs": [[1, 2]]},
     "'allocator_kwargs' must be a list of"),
    (run_request_from_wire,
     {"workload": "html", "memento": True, "config": {"pool_low_water": "8"}},
     "config field 'pool_low_water' must be an integer"),
    (run_request_from_wire,
     {"workload": "aes", "stack": "baseline", "machine_params": {"freq_hz": 0}},
     "freq_hz = 0 must be above 0"),
    (run_request_from_wire,
     {"workload": "aes", "stack": "baseline",
      "machine_params": {"freq_hz": -1.0}},
     "freq_hz = -1.0 must be above 0"),
]


@pytest.mark.parametrize(
    "decode, payload, message", MISTYPED,
    ids=[json.dumps(payload)[:60] for _, payload, _ in MISTYPED],
)
def test_mistyped_numeric_field_rejected(decode, payload, message):
    with pytest.raises(WireError, match=message):
        decode(payload)


def test_float_field_takes_an_integer():
    request = fleet_request_from_wire({"duration_s": 60, "keep_alive_s": 0})
    assert (request.duration_s, request.keep_alive_s) == (60, 0)


class TestBatch:
    def test_single_run_body(self):
        requests = run_requests_from_wire(
            {"workload": "html", "memento": True}
        )
        assert len(requests) == 1

    def test_sweep_body(self):
        requests = run_requests_from_wire({"requests": [
            {"workload": "html", "memento": True},
            {"workload": "html", "memento": False},
        ]})
        assert [r.stack for r in requests] == ["memento", "baseline"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(WireError, match="non-empty"):
            run_requests_from_wire({"requests": []})

    def test_non_array_sweep_rejected(self):
        with pytest.raises(WireError, match="non-empty"):
            run_requests_from_wire({"requests": "html"})


# -- fuzzing: arbitrary JSON never escapes as anything but WireError ----------

#: Valid payloads to mutate, as the server receives them (through
#: JSON, so tuples are lists). Redis carries the nested ``size_modes``
#: pairs that html lacks.
RUN_BASE = json.loads(json.dumps(run_request_to_wire(
    replace(interesting_request(), spec=small("Redis"))
)))
RUN_FIELDS = sorted(set(RUN_BASE)
                    | {"workload", "spec_overrides", "requests", "kernel"})
FLEET_BASE = json.loads(json.dumps(FleetRequest().to_dict()))
FLEET_FIELDS = sorted(FLEET_BASE)

#: Any value ``json.loads`` can produce, including the non-finite floats
#: it accepts (``1e400`` parses as infinity).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

#: Values at the edges of every JSON type, drawn often in place of one
#: value of a valid payload.
edge_values = st.sampled_from([
    None, True, 0, -1, 1e400, -1e400, float("nan"), 10**400, "", "html",
    [], {}, [[]],
])


def paths(node, prefix=()):
    """Every key path into a JSON value, the value itself first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def payloads(fields, valid):
    """Arbitrary JSON at the top level, objects keyed by the real field
    names, and a valid payload with one value, at any depth, replaced."""
    keyed = st.dictionaries(
        st.sampled_from(fields) | st.text(max_size=6), json_values,
        max_size=6,
    )

    @st.composite
    def mutated(draw):
        path = draw(st.sampled_from(list(paths(valid))[1:]))
        payload = copy.deepcopy(valid)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(edge_values | json_values)
        return payload

    return json_values | keyed | mutated()


FLEET_INTS = ("invocations", "seed", "epochs", "max_warm",
              "profile_seeds", "invocation_allocs")
FLEET_FLOATS = ("duration_s", "keep_alive_s")
SPEC_INTS = ("seed", "num_allocs", "compute_per_alloc",
             "app_dram_per_alloc", "extra_touch_lines", "large_every",
             "large_lifetime", "large_max", "phases")


def is_int(value):
    return type(value) is int


def is_number(value):
    return type(value) in (int, float) and math.isfinite(value)


def assert_well_typed(request, payload):
    """What the decoders promise of everything they accept: integer
    fields hold ints (not bools), float fields finite numbers, spec
    fields lie in their bounds, sizes within the work limits, machine
    counts the simulator indexes or divides by at least 1, the clock
    frequency above 0, and kwargs are the sent named pairs."""
    machine = request.machine_params
    assert machine.freq_hz > 0
    assert 1 <= machine.num_cores <= limits.MAX_NUM_CORES
    for name in ("l1d", "l1i", "l2", "llc", "tlb_l1", "tlb_l2"):
        assert getattr(machine, name).ways >= 1
    for name in ("l1d", "l1i", "l2", "llc"):
        assert getattr(machine, name).line_size >= 1
    if isinstance(request, FleetRequest):
        assert request.invocations <= limits.MAX_INVOCATIONS
        assert request.invocation_allocs <= limits.MAX_NUM_ALLOCS
        assert all(is_int(getattr(request, f)) for f in FLEET_INTS)
        assert all(is_number(getattr(request, f)) for f in FLEET_FLOATS)
        assert all(type(name) is str for name in request.stacks)
        assert all(type(name) is str for name in request.workloads)
        return
    spec = request.spec
    assert spec.num_allocs <= limits.MAX_NUM_ALLOCS
    for name, (low, high) in SPEC_BOUNDS.items():
        value = getattr(spec, name)
        if value is None:
            continue
        assert is_int(value) if name in SPEC_INTS else is_number(value)
        assert (low is None or value >= low) and (high is None or value <= high)
    assert is_int(spec.seed)
    for pair in request.allocator_kwargs:
        assert type(pair) is tuple and len(pair) == 2
        assert type(pair[0]) is str
    assert [list(pair) for pair in request.allocator_kwargs] == (
        payload.get("allocator_kwargs") or []
    )


def decodes_or_rejects(decode, payload):
    try:
        decoded = decode(payload)
    except WireError:
        return
    if isinstance(decoded, list):
        bodies = payload["requests"] if "requests" in payload else [payload]
        for request, body in zip(decoded, bodies):
            assert_well_typed(request, body)
    else:
        assert_well_typed(decoded, payload)


def run_examples(test):
    """Every mistyped run case, as an explicit example of the property."""
    for decode, payload, _ in MISTYPED:
        if decode is run_request_from_wire:
            test = example(payload)(test)
    return test


def fleet_examples(test):
    for decode, payload, _ in MISTYPED:
        if decode is fleet_request_from_wire:
            test = example(payload)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payloads(RUN_FIELDS, RUN_BASE))
@run_examples
def test_run_decoder_raises_only_wire_errors(payload):
    decodes_or_rejects(run_requests_from_wire, payload)
    decodes_or_rejects(run_requests_from_wire, {"requests": [payload]})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payloads(FLEET_FIELDS, FLEET_BASE))
@fleet_examples
def test_fleet_decoder_raises_only_wire_errors(payload):
    decodes_or_rejects(fleet_request_from_wire, payload)
