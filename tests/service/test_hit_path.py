"""The service's fast paths and bounds.

A cache hit is answered at submission (born ``done``, never queued):
with ``Prefer: return=representation`` the submission's answer carries
the results, so the client's hit is one request, and a miss three; a
status read with ``?wait=`` blocks until the job finishes or the
server's cap; a full queue answers 429 and an evicted job answers 404,
both as JSON.
"""

import http.client
import json
import sys
import threading
import time
from dataclasses import replace
from urllib.parse import urlsplit

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.service import app as service_app
from repro.service import jobs as service_jobs
from repro.service.app import ExperimentServer
from repro.service import client as service_client
from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.wire import WIRE_SCHEMA_VERSION
from repro.workloads.registry import get_workload


def small(name: str = "aes", num_allocs: int = 1_200):
    return replace(get_workload(name), num_allocs=num_allocs)


def walk(spans):
    stack = list(spans)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.get("children", ()))


@pytest.fixture
def server(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path)
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        yield srv


@pytest.fixture
def client(server):
    client = ServiceClient(server.url, timeout=30)
    yield client
    client.close()


def raw(server, method, path, body=None, headers=None):
    """One request on its own connection: ``(status, headers, payload)``."""
    split = urlsplit(server.url)
    connection = http.client.HTTPConnection(
        split.hostname, split.port, timeout=30
    )
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        connection.request(method, path, body=data, headers=headers or {})
        response = connection.getresponse()
        return response.status, response, json.loads(response.read())
    finally:
        connection.close()


def warm(client, request):
    """Run ``request`` once so the engine's memo holds it."""
    client.result(client.submit(request), timeout=60)


def record_queue_puts(server, monkeypatch):
    puts = []
    queue = server.state.queue._queue
    put = queue.put
    monkeypatch.setattr(
        queue, "put", lambda item, *a, **k: (puts.append(item), put(item))
    )
    return puts


def record_paths(monkeypatch):
    """Every request path the server dispatches, in arrival order."""
    paths = []
    dispatch = service_app._Handler._dispatch

    def recording(handler, method):
        paths.append((method, handler.path))
        dispatch(handler, method)

    monkeypatch.setattr(service_app._Handler, "_dispatch", recording)
    return paths


class CountingClient(ServiceClient):
    """Counts status reads and keeps the last one, as a load generator
    that times queue wait and run from the transitions would."""

    def __init__(self, url):
        super().__init__(url, timeout=30)
        self.polls = 0
        self.last_status = {}

    def status(self, job_id):
        self.polls += 1
        self.last_status = super().status(job_id)
        return self.last_status


PREFER = {"Prefer": "return=representation"}


class TestHitPath:
    def test_hit_travels_on_one_connection(self, server, client):
        request = RunRequest(small(), stack="memento")
        warm(client, request)
        opened = []

        def connect():
            connection = client._open_connection()
            opened.append(connection)
            return connection

        client._connect = connect
        served_before = server.state.requests_served
        result = client.result(client.submit(request), timeout=60)
        assert result.name == "aes"
        # The submission answers with the result: one request.
        assert len(opened) == 1
        assert server.state.requests_served - served_before == 1

    def test_miss_is_three_requests_and_none_reads_the_result(
        self, server, client, monkeypatch
    ):
        paths = record_paths(monkeypatch)
        job_id = client.submit(RunRequest(small("html"), stack="memento"))
        result = client.result(job_id, timeout=60)
        assert result.name == "html"
        # Submission, one status read, one ?wait= read: the results
        # ride on the last status read.
        assert [(method, path.split("?")[0]) for method, path in paths] == [
            ("POST", "/api/v1/runs"),
            ("GET", f"/api/v1/jobs/{job_id}"),
            ("GET", f"/api/v1/jobs/{job_id}"),
        ]
        assert "?wait=" in paths[2][1]

    def test_a_hit_is_one_status_call_with_its_transitions(self, server):
        request = RunRequest(small(), stack="memento")
        counting = CountingClient(server.url)
        try:
            warm(counting, request)
            served_before = server.state.requests_served
            counting.polls = 0
            (result,) = counting.results(
                counting.submit(request), timeout=60
            )
            assert result.name == "aes"
            assert counting.polls == 1
            assert server.state.requests_served - served_before == 1
            assert [s for s, _ in counting.last_status["transitions"]] == [
                "queued", "running", "done"
            ]
        finally:
            counting.close()

    def test_submission_without_prefer_is_the_unchanged_202(
        self, server, client
    ):
        request = RunRequest(small(), stack="memento")
        warm(client, request)
        status, response, payload = raw(
            server, "POST", "/api/v1/runs", request.to_dict()
        )
        assert status == 202
        assert response.getheader("Preference-Applied") is None
        job_id = payload["job_id"]
        assert payload == {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": job_id,
            "state": "done",
            "trace_id": payload["trace_id"],
            "status_url": f"/api/v1/jobs/{job_id}",
        }

    def test_hit_with_prefer_answers_200_with_its_results(
        self, server, client
    ):
        request = RunRequest(small(), stack="memento")
        warm(client, request)
        status, response, payload = raw(
            server, "POST", "/api/v1/runs", request.to_dict(),
            headers={"Prefer": "respond-async, return=representation"},
        )
        assert status == 200
        assert response.getheader("Preference-Applied") == (
            "return=representation"
        )
        assert payload["job_id"] == payload["id"]
        assert payload["state"] == "done"
        _, _, stored = raw(
            server, "GET", f"/api/v1/jobs/{payload['job_id']}",
            headers=PREFER,
        )
        assert payload["results"] == stored["results"]

    def test_status_read_with_prefer_carries_results(self, server, client):
        job_id = client.submit(RunRequest(small(), stack="memento"))
        client.results(job_id, timeout=60)
        status, response, payload = raw(
            server, "GET", f"/api/v1/jobs/{job_id}", headers=PREFER
        )
        assert status == 200
        assert response.getheader("Preference-Applied") == (
            "return=representation"
        )
        assert payload["results"][0]["name"] == "aes"
        _, response, payload = raw(server, "GET", f"/api/v1/jobs/{job_id}")
        assert "results" not in payload
        assert response.getheader("Preference-Applied") is None

    def test_failed_job_answered_at_submission_raises_job_failed(
        self, server, client, monkeypatch
    ):
        request = RunRequest(small(), stack="memento")
        warm(client, request)

        def broken(*args, **kwargs):
            raise RuntimeError("store unreadable")

        monkeypatch.setattr(server.state.engine, "run_many", broken)
        served_before = server.state.requests_served
        job_id = client.submit(request)
        with pytest.raises(JobFailed, match="store unreadable"):
            client.results(job_id, timeout=60)
        assert server.state.requests_served - served_before == 1
        assert job_id not in client._held
        status, _, payload = raw(
            server, "POST", "/api/v1/runs", request.to_dict(), PREFER
        )
        assert status == 200
        assert payload["state"] == "failed"
        assert "results" not in payload

    def test_the_retired_result_route_answers_404(self, server, client):
        job_id = client.submit(RunRequest(small(), stack="memento"))
        client.results(job_id, timeout=60)
        status, _, payload = raw(
            server, "GET", f"/api/v1/jobs/{job_id}/result"
        )
        assert status == 404
        assert "no route" in payload["error"]

    def test_done_status_without_results_raises(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(
            client, "_request",
            lambda *args, **kwargs: {"id": "ab12", "state": "done"},
        )
        with pytest.raises(ServiceError, match="job ab12"):
            client.results("ab12", timeout=5)
        assert "ab12" not in client._held

    def test_held_answers_stay_within_their_bound(
        self, server, client, monkeypatch
    ):
        monkeypatch.setattr(service_client, "MAX_HELD", 3)
        request = RunRequest(small(), stack="memento")
        warm(client, request)
        job_ids = [client.submit(request) for _ in range(5)]
        assert list(client._held) == job_ids[2:]
        # A held answer is read without a request, and waiting on it
        # drops it.
        served_before = server.state.requests_served
        assert client.status(job_ids[4])["id"] == job_ids[4]
        assert client.result(job_ids[4], timeout=60).name == "aes"
        assert server.state.requests_served == served_before
        assert list(client._held) == job_ids[2:4]
        # A dropped one is read from the server again.
        assert client.result(job_ids[0], timeout=60).name == "aes"
        assert server.state.requests_served == served_before + 1

    def test_hit_is_born_done_and_never_queued(
        self, server, client, monkeypatch
    ):
        request = RunRequest(small(), stack="baseline")
        warm(client, request)
        puts = record_queue_puts(server, monkeypatch)
        payload = client._request(
            "POST", "/api/v1/runs", request.to_dict()
        )
        assert payload["state"] == "done"
        job = server.state.queue.get(payload["job_id"])
        assert job not in puts and puts == []
        assert [s for s, _ in job.transitions] == [
            "queued", "running", "done"
        ]
        times = [t for _, t in job.transitions]
        assert times == sorted(times)
        assert job.keys == [request.content_key()]

        record = client.trace(payload["trace_id"])
        (run_span,) = [s for s in record["spans"] if s["name"] == "job.run"]
        names = {span["name"] for span in walk(run_span["children"])}
        assert "engine.run_many" in names
        for span in walk(record["spans"]):
            assert span["attrs"]["trace_id"] == payload["trace_id"]

    def test_miss_is_queued(self, server, client, monkeypatch):
        puts = record_queue_puts(server, monkeypatch)
        payload = client._request(
            "POST", "/api/v1/runs",
            RunRequest(small("html"), stack="memento").to_dict(),
        )
        assert [job.id for job in puts] == [payload["job_id"]]
        client.results(payload["job_id"], timeout=60)

    def test_hit_ledger_line_matches_the_queued_path(self, server, client):
        request = RunRequest(small(), stack="memento")
        warm(client, request)
        warm(client, request)
        ledger = server.state.engine.ledger.read()
        assert [e["source"] for e in ledger] == ["live", "memo"]
        assert ledger[0]["key"] == ledger[1]["key"]


@pytest.fixture
def gate(server):
    """Holds every engine batch until set."""
    gate = threading.Event()
    engine = server.state.engine
    run_many = engine.run_many

    def gated(*args, **kwargs):
        assert gate.wait(30)
        return run_many(*args, **kwargs)

    engine.run_many = gated
    yield gate
    gate.set()


class TestWait:
    def submit(self, client):
        return client.submit(RunRequest(small("ir"), stack="memento"))

    def test_wait_returns_as_the_job_finishes(self, server, client, gate):
        job_id = self.submit(client)
        reply = {}

        def waiter():
            reply["payload"] = ServiceClient(server.url)._request(
                "GET", f"/api/v1/jobs/{job_id}?wait=15"
            )
            reply["at"] = time.time()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        assert "payload" not in reply
        gate.set()
        thread.join(timeout=30)
        assert reply["payload"]["state"] == "done"
        finished_s = server.state.queue.get(job_id).finished_s
        assert 0.0 <= reply["at"] - finished_s < 0.1

    def test_wait_returns_unfinished_at_the_cap(
        self, server, client, gate, monkeypatch
    ):
        monkeypatch.setattr(service_app, "MAX_WAIT_S", 0.2)
        job_id = self.submit(client)
        begun = time.monotonic()
        payload = client._request("GET", f"/api/v1/jobs/{job_id}?wait=15")
        elapsed = time.monotonic() - begun
        assert payload["state"] in ("queued", "running")
        assert 0.2 <= elapsed < 5.0

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf"])
    def test_bad_wait_is_400(self, server, client, wait):
        job_id = client.submit(RunRequest(small(), stack="memento"))
        status, _, payload = raw(
            server, "GET", f"/api/v1/jobs/{job_id}?wait={wait}"
        )
        assert status == 400
        assert "wait must be a non-negative number" in payload["error"]


class TestBounds:
    def test_full_queue_answers_429(self, server, client, monkeypatch):
        hit = RunRequest(small(), stack="memento")
        warm(client, hit)
        monkeypatch.setattr(service_jobs, "MAX_QUEUED", 0)
        miss = RunRequest(small("html"), stack="baseline")
        status, response, payload = raw(
            server, "POST", "/api/v1/runs", miss.to_dict()
        )
        assert status == 429
        assert response.getheader("Retry-After") == "1"
        assert "queue is full" in payload["error"]
        with pytest.raises(ServiceError) as err:
            client.submit(miss)
        assert err.value.status == 429
        # A hit never touches the queue, so a full one does not refuse it.
        assert client.result(client.submit(hit), timeout=60).name == "aes"
        assert 'repro_service_rejected{component="service"} 2' in (
            client.metrics()
        )

    def test_finished_jobs_past_the_cap_are_evicted(
        self, server, client, monkeypatch
    ):
        request = RunRequest(small(), stack="memento")
        warm(client, request)
        monkeypatch.setattr(service_jobs, "MAX_RETAINED", 2)
        job_ids = [client.submit(request) for _ in range(3)]
        retained = [job["id"] for job in client.jobs()]
        assert retained == job_ids[1:]
        for headers in (None, PREFER):
            status, _, payload = raw(
                server, "GET", f"/api/v1/jobs/{job_ids[0]}", headers=headers
            )
            assert status == 404
            assert "evicted" in payload["error"]
        assert client.result(job_ids[2], timeout=60).name == "aes"
        assert 'repro_service_evicted{component="service"} 2' in (
            client.metrics()
        )

    def test_concurrent_hits_keep_the_retention_count(self, monkeypatch):
        engine = ExperimentEngine(use_disk_cache=False)
        request = RunRequest(small(), stack="memento")
        engine.run(request)
        queue = service_jobs.JobQueue(engine, workers=1)
        monkeypatch.setattr(service_jobs, "MAX_RETAINED", 10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda: [
                    queue.submit([request]) for _ in range(25)
                ])
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()
        # Every job is either retained or counted out. A job is only
        # evictable once finished, so up to one running job per thread
        # can hold a slot past the cap at the last admission.
        retained = queue.jobs()
        assert len(retained) + queue.evicted == 8 * 25
        assert 10 <= len(retained) <= 10 + 8
        assert all(job.state == "done" for job in retained)

    def test_unfinished_jobs_are_never_evicted(
        self, server, gate, monkeypatch
    ):
        queue = server.state.queue
        monkeypatch.setattr(service_jobs, "MAX_RETAINED", 1)
        first = queue.submit([RunRequest(small("ir"), stack="memento")])
        second = queue.submit([RunRequest(small("bfs"), stack="memento")])
        assert [job.id for job in queue.jobs()] == [first.id, second.id]
        gate.set()
        assert first.wait(60) and second.wait(60)
        assert queue.evicted == 0
