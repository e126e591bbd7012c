"""``POST /api/v1/fleets`` end to end: the acceptance criterion that a
fleet submitted over HTTP is identical — content key and platform
metrics — to the same request simulated directly."""

import json
import urllib.error
import urllib.request

import pytest

from repro.fleet import FleetRequest, FleetResult, simulate_fleet
from repro.harness.engine import ExperimentEngine
from repro.service.app import ExperimentServer
from repro.service.client import ServiceClient
from repro.service.wire import WireError, fleet_request_from_wire


def small_fleet(**overrides) -> FleetRequest:
    defaults = dict(
        workloads=("aes",),
        invocations=300,
        duration_s=300.0,
        seed=5,
        profile_seeds=1,
        invocation_allocs=250,
        keep_alive_s=30.0,
    )
    defaults.update(overrides)
    return FleetRequest(**defaults)


@pytest.fixture
def server(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path)
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        yield srv


class TestWire:
    def test_round_trip(self):
        request = small_fleet()
        assert (
            fleet_request_from_wire(request.to_dict())
            == request
        )

    def test_partial_payload_uses_defaults(self):
        request = fleet_request_from_wire(
            {"invocations": 100, "seed": 9}
        )
        assert request.invocations == 100 and request.seed == 9
        assert request.pattern == "poisson"

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            fleet_request_from_wire([1, 2])

    def test_unknown_field_rejected(self):
        with pytest.raises(WireError, match="unknown FleetRequest"):
            fleet_request_from_wire({"invocations": 10, "oops": 1})


class TestEndpoint:
    def test_http_fleet_matches_direct_execution(self, server):
        request = small_fleet()
        client = ServiceClient(server.url)
        job_id = client.submit_fleet(request)
        over_http = client.fleet_result(job_id, timeout=300)

        direct = simulate_fleet(
            request, engine=ExperimentEngine(cache_dir=None)
        )
        assert over_http.fleet_key == request.content_key()
        assert over_http.to_dict() == direct.to_dict()

    def test_submission_response_carries_fleet_key(self, server):
        request = small_fleet()
        body = json.dumps(request.to_dict()).encode("utf-8")
        http_request = urllib.request.Request(
            f"{server.url}/api/v1/fleets",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(http_request, timeout=30) as response:
            payload = json.loads(response.read())
            assert response.status == 202
        assert payload["fleet_key"] == request.content_key()
        assert payload["state"] == "queued"
        # The job lists the fleet's workloads and stacks like run jobs.
        client = ServiceClient(server.url)
        status = client.status(payload["job_id"])
        assert status["kind"] == "fleet"
        assert status["workloads"] == ["aes"]

    def test_malformed_fleet_is_400(self, server):
        body = json.dumps({"invocations": 0}).encode("utf-8")
        http_request = urllib.request.Request(
            f"{server.url}/api/v1/fleets",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(http_request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_fleet_result_payload_parses_as_fleet_result(self, server):
        client = ServiceClient(server.url)
        job_id = client.submit_fleet(small_fleet())
        result = client.fleet_result(job_id, timeout=300)
        assert isinstance(result, FleetResult)
        assert "baseline" in result.stacks and "memento" in result.stacks
