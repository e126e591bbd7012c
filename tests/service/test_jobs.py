"""Job queue lifecycle: transitions, failure isolation, shutdown, and
misses simulated in the engine's worker processes."""

import os
import signal
import time
from dataclasses import replace

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.harness.system import SimulatedSystem
from repro.service.app import ServiceState, op_health
from repro.service.jobs import JOB_STATES, JobQueue
from repro.workloads.registry import get_workload


def small(num_allocs: int = 1_200):
    return replace(get_workload("aes"), num_allocs=num_allocs)


@pytest.fixture
def engine():
    return ExperimentEngine(use_disk_cache=False)


@pytest.fixture
def queue(engine):
    jq = JobQueue(engine, workers=2)
    yield jq
    jq.shutdown()


def test_job_reaches_done_through_running(queue):
    job = queue.submit([RunRequest(small(), stack="memento")])
    assert job.wait(timeout=60)
    assert job.state == "done"
    states = [state for state, _ in job.transitions]
    assert states == ["queued", "running", "done"]
    assert job.started_s is not None
    assert job.finished_s is not None and job.finished_s >= job.started_s


def fresh_result(request):
    """``request``'s result from an engine that shares nothing with the
    queue's: no memo, no disk cache, no ledger."""
    engine = ExperimentEngine(use_disk_cache=False, use_ledger=False)
    return engine.run(request).to_dict()


def test_done_job_carries_results_and_keys(queue, engine):
    request = RunRequest(small(), stack="memento")
    job = queue.submit([request])
    assert job.wait(timeout=60)
    assert job.keys == [request.content_key(engine.cost_model)]
    assert len(job.results) == 1
    assert job.results[0] == fresh_result(request)


def test_queued_miss_simulates_in_a_worker_process(queue, monkeypatch):
    request = RunRequest(small(), stack="snapshot")
    expected = fresh_result(request)

    def refuse(self, trace=None):
        raise AssertionError("simulated in the server's interpreter")

    monkeypatch.setattr(SimulatedSystem, "run", refuse)
    job = queue.submit([request])
    assert job.wait(timeout=60)
    assert job.state == "done", job.error
    assert job.results == [expected]


def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_dead_idle_worker_does_not_fail_the_next_miss(engine):
    state = ServiceState(engine, workers=2)
    try:
        pids = engine.worker_pids()
        assert pids
        os.kill(pids[0], signal.SIGKILL)
        # The pool counts as broken once its manager thread has seen the
        # death; the next batch then gets a fresh pool.
        deadline = time.monotonic() + 30
        while pids[0] in engine.worker_pids():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        request = RunRequest(small(), stack="memento")
        job = state.queue.submit([request])
        assert job.wait(timeout=60)
        assert job.state == "done", job.error
        assert job.results == [fresh_result(request)]
        assert engine.worker_pids() and pids[0] not in engine.worker_pids()
        status, payload, _ = op_health(state)
        assert status == 200 and payload["status"] == "ok"
    finally:
        state.close()


def test_worker_dying_under_a_batch_fails_only_that_job(engine):
    state = ServiceState(engine, workers=2)
    try:
        slow = state.queue.submit([
            RunRequest(small(num_allocs=60_000), stack="memento")
        ])
        deadline = time.monotonic() + 30
        while slow.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # A job is marked running just before its batch goes to the pool.
        time.sleep(0.3)
        os.kill(engine.worker_pids()[0], signal.SIGKILL)
        assert slow.wait(timeout=60)
        assert slow.state == "failed"
        assert "BrokenProcessPool" in slow.error
        after = state.queue.submit([RunRequest(small(), stack="memento")])
        assert after.wait(timeout=60)
        assert after.state == "done", after.error
        status, payload, _ = op_health(state)
        assert status == 200 and payload["status"] == "ok"
    finally:
        state.close()


def test_shutdown_stops_the_worker_processes(engine):
    jq = JobQueue(engine, workers=2)
    pids = engine.worker_pids()
    assert pids
    jq.shutdown()
    assert engine.worker_pids() == []
    assert all(gone(pid) for pid in pids)


def test_failing_job_is_isolated(queue):
    # A bad allocator kwarg only detonates at system-build time, inside
    # the worker thread — exactly the failure path per-job isolation
    # must contain.
    bad = queue.submit([RunRequest(
        small(), stack="baseline",
        allocator="pymalloc", allocator_kwargs=(("bogus_kw", 1),),
    )])
    good = queue.submit([RunRequest(small(), stack="memento")])
    assert bad.wait(timeout=60) and good.wait(timeout=60)
    assert bad.state == "failed"
    assert bad.error
    assert bad.results is None
    assert good.state == "done"


def test_sweep_job_preserves_request_order(queue):
    requests = [
        RunRequest(small(), stack="memento"),
        RunRequest(small(), stack="baseline"),
    ]
    job = queue.submit(requests, kind="sweep")
    assert job.wait(timeout=120)
    assert job.state == "done"
    assert [r["memento"] for r in job.results] == [True, False]


def test_counts_cover_every_state(queue):
    counts = queue.counts()
    assert set(counts) == set(JOB_STATES)
    assert all(count == 0 for count in counts.values())


def test_jobs_listed_in_submission_order(queue):
    first = queue.submit([RunRequest(small(), stack="memento")])
    second = queue.submit([RunRequest(small(), stack="baseline")])
    assert [job.id for job in queue.jobs()] == [first.id, second.id]


def test_empty_submission_rejected(queue):
    with pytest.raises(ValueError, match="empty"):
        queue.submit([])


def test_shutdown_rejects_new_jobs(engine):
    jq = JobQueue(engine, workers=1)
    jq.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        jq.submit([RunRequest(small(), stack="memento")])
    jq.shutdown()  # idempotent


def test_invalid_worker_count_rejected(engine):
    with pytest.raises(ValueError, match="positive integer"):
        JobQueue(engine, workers=0)
