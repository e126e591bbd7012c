"""Wire schema: RunRequest round-trips and submission parsing."""

import copy
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def decodes_or_rejects(decode, payload):
    try:
        decode(payload)
    except WireError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payloads(RUN_FIELDS, RUN_BASE))
def test_run_decoder_raises_only_wire_errors(payload):
    decodes_or_rejects(run_requests_from_wire, payload)
    decodes_or_rejects(run_requests_from_wire, {"requests": [payload]})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payloads(FLEET_FIELDS, FLEET_BASE))
def test_fleet_decoder_raises_only_wire_errors(payload):
    decodes_or_rejects(fleet_request_from_wire, payload)
