"""End-to-end HTTP service tests against a live in-process server.

The acceptance criteria from the service redesign live here: an
HTTP-submitted run is bit-identical (counter digest included) to the
same request executed directly through the engine, and shares its
cache entry; and eight simultaneous submissions all complete with
correct lifecycle transitions and no cross-job result mixing.
"""

import hashlib
import json
import threading
import urllib.request
from dataclasses import replace

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.obs.ledger import counter_digest
from repro.service.app import ExperimentServer
from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.workloads.registry import get_workload


def small(name: str = "aes", num_allocs: int = 1_200):
    return replace(get_workload(name), num_allocs=num_allocs)


def payload_digest(result) -> str:
    """Digest of the full result payload, counters included."""
    blob = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture
def server(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path)
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30)


def http_get(url: str):
    """Raw GET bypassing the client, for status-code assertions."""
    request = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["backend"] == "json"
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed"
        }

    def test_workloads_lists_registry(self, client):
        assert "html" in client.workloads()

    def test_metrics_exposition_format(self, client):
        text = client.metrics()
        assert "# TYPE repro_service_http_requests gauge" in text
        assert 'component="service"' in text
        assert 'component="engine"' in text

    def test_unknown_route_404(self, server):
        status, payload = http_get(f"{server.url}/api/v1/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_wrong_method_405(self, server):
        status, payload = http_get(f"{server.url}/api/v1/runs")
        assert status == 405

    def test_unknown_job_404(self, server):
        status, payload = http_get(f"{server.url}/api/v1/jobs/feedface")
        assert status == 404

    def test_ledger_last_slices_the_newest_entries(self, server):
        for index in range(5):
            server.state.engine.ledger.append({"key": f"k{index}"})
        status, payload = http_get(f"{server.url}/api/v1/ledger?last=2")
        assert status == 200
        assert [e["key"] for e in payload["entries"]] == ["k3", "k4"]

    @pytest.mark.parametrize("last", ["0", "-3", "abc"])
    def test_ledger_bad_last_400(self, server, last):
        server.state.engine.ledger.append({"key": "k0"})
        status, payload = http_get(
            f"{server.url}/api/v1/ledger?last={last}"
        )
        assert status == 400
        assert "last must be a positive integer" in payload["error"]

    def test_malformed_submission_400(self, server, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"workload": "nope", "stack": "memento"})
        assert err.value.status == 400

    @pytest.mark.parametrize("body", [
        {"workload": ["html"], "stack": "memento"},
        {"workload": {}, "stack": "memento"},
        {"workload": "html", "stack": "baseline", "cold_start": "false"},
    ])
    def test_mistyped_submission_400(self, server, client, body):
        with pytest.raises(ServiceError) as err:
            client.submit(body)
        assert err.value.status == 400

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/api/v1/runs",
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        err.value.close()
        assert err.value.code == 400

    def test_retired_fields_400(self, server, client):
        # The retired ``memento`` boolean and replay-kernel field are
        # refused on both request types, naming the field.
        for path, body, named in (
            ("/api/v1/runs", {"workload": "aes", "memento": True},
             "'memento' is retired: name the stack"),
            ("/api/v1/runs",
             {"workload": "aes", "stack": "memento", "kernel": "scalar"},
             "['kernel']"),
            ("/api/v1/fleets", {"memento": True}, "['memento']"),
            ("/api/v1/fleets", {"kernel": "scalar"}, "['kernel']"),
        ):
            with pytest.raises(ServiceError) as err:
                client._request("POST", path, body)
            assert err.value.status == 400
            assert named in str(err.value)

    def test_run_endpoint_rejects_batches(self, server, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/api/v1/runs", {"requests": [
                {"workload": "html", "stack": "memento"},
                {"workload": "html", "stack": "baseline"},
            ]})
        assert err.value.status == 400


class TestJobLifecycle:
    def test_submit_poll_fetch(self, client):
        job_id = client.submit({
            "workload": "aes", "stack": "memento",
            "spec_overrides": {"num_allocs": 1_200},
        })
        result = client.result(job_id, timeout=60)
        assert result.name == "aes" and result.memento is True
        status = client.status(job_id)
        assert status["state"] == "done"
        assert [s for s, _ in status["transitions"]] == [
            "queued", "running", "done"
        ]

    def test_failed_job_reports_error(self, client):
        job_id = client.submit(RunRequest(
            small(), stack="baseline",
            allocator="pymalloc", allocator_kwargs=(("bogus_kw", 1),),
        ))
        with pytest.raises(JobFailed, match="bogus_kw"):
            client.results(job_id, timeout=60)

    def test_result_before_done_is_202(self, server, client):
        job_id = client.submit(RunRequest(small(), stack="memento"))
        # Immediately racing the worker: the result endpoint must answer
        # 202 (not an error) at least until the job finishes.
        status, payload = http_get(
            f"{server.url}/api/v1/jobs/{job_id}/result"
        )
        assert status in (200, 202)
        client.results(job_id, timeout=60)

    def test_sweep_results_in_request_order(self, client):
        job_id = client.submit_sweep([
            RunRequest(small(), stack="memento"),
            RunRequest(small(), stack="baseline"),
        ])
        results = client.results(job_id, timeout=120)
        assert [r.memento for r in results] == [True, False]


def test_http_run_bit_identical_to_direct(tmp_path):
    """HTTP-submitted and direct runs agree bit-for-bit (counter digest
    included) and share one cache entry."""
    engine = ExperimentEngine(cache_dir=tmp_path)
    request = RunRequest(small("html"), stack="memento")
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        client = ServiceClient(srv.url, timeout=30)
        served = client.result(client.submit(request), timeout=60)
    direct = ExperimentEngine(use_disk_cache=False).run(request)
    assert served.to_dict() == direct.to_dict()
    assert payload_digest(served) == payload_digest(direct)
    # Same digest the run ledger records: the determinism canary agrees.
    assert counter_digest(served.stats) == counter_digest(direct.stats)
    # The served run persisted under the request's content key, so the
    # direct engine pointed at the same store now gets a disk hit.
    warm = ExperimentEngine(cache_dir=tmp_path)
    assert warm.run(request).to_dict() == served.to_dict()
    assert warm.stats.snapshot().get("engine.disk.hits", 0) >= 1


def test_eight_simultaneous_submissions(server, client):
    """≥8 concurrent HTTP submissions: every job completes, transitions
    stay ordered, and each job's results match its own request."""
    specs = [
        (name, stack)
        for name in ("aes", "html", "ir", "bfs")
        for stack in ("memento", "baseline")
    ]
    job_ids = [None] * len(specs)
    errors = []

    def submit(index: int, name: str, stack: str) -> None:
        try:
            job_ids[index] = client.submit(RunRequest(
                small(name), stack=stack
            ))
        except Exception as exc:  # noqa: BLE001 - collected below
            errors.append(exc)

    threads = [
        threading.Thread(target=submit, args=(i, name, stack))
        for i, (name, stack) in enumerate(specs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(set(job_ids)) == len(specs)

    for job_id, (name, stack) in zip(job_ids, specs):
        result = client.result(job_id, timeout=120)
        # No cross-job mixing: the payload matches this job's request.
        assert result.name == name
        assert result.memento is (stack == "memento")
        status = client.status(job_id)
        states = [s for s, _ in status["transitions"]]
        assert states == ["queued", "running", "done"]
        times = [t for _, t in status["transitions"]]
        assert times == sorted(times)

    counts = client.healthz()["jobs"]
    assert counts["done"] == len(specs)
    assert counts["failed"] == 0
