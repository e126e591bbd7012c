"""The server's memo of submission bodies.

A run or sweep body seen before returns its remembered requests and
content keys, so it is neither decoded nor hashed again. The memo keys
on the body's canonical JSON, never stores a body that fails to decode,
keeps at most ``MAX_DECODED`` entries (least recently used dropped) and
is safe under concurrent submissions.
"""

import http.client
import json
import sys
import threading
from urllib.parse import urlsplit

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.service import app as service_app
from repro.service.app import ExperimentServer, ServiceState, op_submit
from repro.service.wire import run_requests_from_wire


def body(seed: int = 1, stack: str = "memento") -> dict:
    return {
        "workload": "aes",
        "stack": stack,
        "spec_overrides": {"num_allocs": 1_200, "seed": seed},
    }


def count_content_keys(monkeypatch) -> list:
    calls = []
    content_key = RunRequest.content_key

    def counting(request, *args, **kwargs):
        calls.append(request)
        return content_key(request, *args, **kwargs)

    monkeypatch.setattr(RunRequest, "content_key", counting)
    return calls


@pytest.fixture
def state():
    state = ServiceState(ExperimentEngine(use_disk_cache=False), workers=1)
    yield state
    state.close()


def post(server, path, payload):
    split = urlsplit(server.url)
    connection = http.client.HTTPConnection(
        split.hostname, split.port, timeout=30
    )
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode("utf-8")
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_replayed_body_skips_decoding_and_content_keys(
    tmp_path, monkeypatch
):
    engine = ExperimentEngine(cache_dir=tmp_path)
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        status, first = post(srv, "/api/v1/runs", body())
        assert status == 202
        calls = count_content_keys(monkeypatch)
        status, second = post(srv, "/api/v1/runs", body())
        assert status == 202
        assert calls == []
        queue = srv.state.queue
        assert queue.get(second["job_id"]).keys == (
            queue.get(first["job_id"]).keys
        )
        assert queue.get(second["job_id"]).requests == (
            queue.get(first["job_id"]).requests
        )


def test_key_order_shares_an_entry_and_a_new_seed_does_not(state):
    requests, keys = state.decode(body(), "run")
    reordered = dict(reversed(list(body().items())))
    assert state.decode(reordered, "run") == (requests, keys)
    assert len(state._decoded) == 1
    other_requests, other_keys = state.decode(body(seed=2), "run")
    assert len(state._decoded) == 2
    assert other_keys != keys
    assert other_requests[0].spec.seed == 2
    # A run body and the same run as a sweep are separate entries.
    state.decode({"requests": [body()]}, "sweep")
    assert len(state._decoded) == 3


def test_memo_matches_a_fresh_decode(state):
    state.decode(body(stack="reclaim"), "run")
    requests, keys = state.decode(body(stack="reclaim"), "run")
    fresh = run_requests_from_wire(body(stack="reclaim"))
    assert list(requests) == fresh
    assert list(keys) == [
        request.content_key(state.engine.cost_model) for request in fresh
    ]


@pytest.mark.parametrize(
    "path, payload",
    [
        ("/api/v1/runs", {"workload": "no-such-workload"}),
        ("/api/v1/runs", {"requests": [body(), body(seed=2)]}),
        ("/api/v1/sweeps", {"requests": []}),
    ],
)
def test_invalid_body_is_400_and_not_stored(tmp_path, path, payload):
    engine = ExperimentEngine(cache_dir=tmp_path)
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        status, reply = post(srv, path, payload)
        assert status == 400
        assert reply["error"]
        assert srv.state._decoded == {}


def test_bound_drops_the_least_recently_used(state, monkeypatch):
    monkeypatch.setattr(service_app, "MAX_DECODED", 2)
    state.decode(body(seed=1), "run")
    state.decode(body(seed=2), "run")
    state.decode(body(seed=1), "run")  # seed 1 is now the newest use
    state.decode(body(seed=3), "run")
    seeds = [
        requests[0].spec.seed for requests, _ in state._decoded.values()
    ]
    assert seeds == [1, 3]


def test_concurrent_submissions_keep_exact_keys(state, monkeypatch):
    monkeypatch.setattr(service_app, "MAX_DECODED", 3)
    bodies = [body(seed=seed) for seed in range(1, 6)]
    reference = {}
    for item in bodies:
        (request,) = run_requests_from_wire(item)
        state.engine.run(request)
        reference[item["spec_overrides"]["seed"]] = [
            request.content_key(state.engine.cost_model)
        ]
    jobs, errors = [], []

    def submit(offset):
        try:
            for i in range(20):
                item = bodies[(offset + i) % len(bodies)]
                _, payload, _ = op_submit(state, item, "run")
                jobs.append((item, state.queue.get(payload["job_id"])))
        except Exception as exc:  # noqa: BLE001 - collected below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=submit, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(jobs) == 4 * 20
    for item, job in jobs:
        assert job.state == "done"
        assert job.keys == reference[item["spec_overrides"]["seed"]]
        assert job.requests[0].spec.seed == item["spec_overrides"]["seed"]
    assert len(state._decoded) <= 3
