"""Job queue lifecycle: transitions, failure isolation, shutdown."""

from dataclasses import replace

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
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


def test_done_job_carries_results_and_keys(queue, engine):
    request = RunRequest(small(), stack="memento")
    job = queue.submit([request])
    assert job.wait(timeout=60)
    assert job.keys == [request.content_key(engine.cost_model)]
    assert len(job.results) == 1
    direct = engine.run(request)
    assert job.results[0] == direct.to_dict()


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
