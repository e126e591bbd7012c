"""Async job queue draining submissions into the experiment engine.

Every HTTP submission becomes a :class:`Job` — a request batch plus its
lifecycle state (``queued`` → ``running`` → ``done``/``failed``) — run
by one shared :class:`~repro.harness.engine.ExperimentEngine`. Sharing
the engine is the point of the service: every client's runs land in the
same in-process memo, the same result backend, and the same run ledger,
so a result computed for one client is a cache hit for all.

A batch the engine can answer without simulating (every content key in
the memo or on the backend) runs at once on the submitting thread and
comes back ``done``; only misses and fleets go on the FIFO queue that a
pool of worker threads drains. Both paths run a job through the same
:meth:`JobQueue._run_job`, so the ledger line, engine counters,
telemetry spans and transitions do not depend on which one ran it. The
threads hold no per-thread state; engine internals they touch
concurrently (the memo dict, the atomic-write backends, the
lock-guarded ledger) are safe under the GIL's dict-operation atomicity
plus their own locking.

The queue starts the engine's worker-process pool (``workers × jobs``
processes, the most a full set of worker threads can fan out) before it
takes a job, so every miss and fleet shard simulates in a worker
process: the server's interpreter keeps only HTTP, hits and admission.

Everything is bounded: a submission that would queue past
:data:`MAX_QUEUED` jobs is refused with :class:`QueueFull`, and past
:data:`MAX_RETAINED` jobs the oldest finished ones are forgotten.

Failures are per-job: a request batch that raises marks only its own job
``failed`` (with the error message) and the worker moves on. A pool
process that dies fails the batch that was on the pool the same way;
the engine starts a fresh pool for the next one.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.request import FleetRequest
from repro.fleet.simulate import simulate_fleet
from repro.harness.engine import ExperimentEngine, RunRequest
from repro.obs.instruments import instrumented
from repro.obs.tracing import Tracer
from repro.resolve import resolve_workers

#: The job lifecycle; ``done`` and ``failed`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed")

#: Default worker threads draining the queue.
DEFAULT_WORKERS = 2

#: Jobs waiting for a worker; a submission past this is refused.
MAX_QUEUED = 256

#: Jobs kept for status and result reads. Past this the oldest finished
#: jobs are evicted; queued and running jobs never are.
MAX_RETAINED = 1024


class QueueFull(RuntimeError):
    """The queue already holds :data:`MAX_QUEUED` waiting jobs."""


@dataclass
class Job:
    """One submission's lifecycle, results, and provenance."""

    id: str
    kind: str  # "run" | "sweep" | "fleet"
    requests: List[RunRequest]
    #: Set for ``kind == "fleet"``; ``requests`` stays empty (the engine
    #: shards are derived inside the fleet simulation).
    fleet: Optional[FleetRequest] = None
    state: str = "queued"
    #: Trace-context id minted by the client (or server) at submission;
    #: stamped onto the job's spans so one id links client → HTTP →
    #: queue → engine in the telemetry exports.
    trace_id: Optional[str] = None
    submitted_s: float = field(default_factory=time.time)
    #: ``perf_counter`` at submission — same clock as the engine tracer,
    #: so the synthesized queue spans share the engine spans' axis.
    submitted_pc: float = field(
        default_factory=time.perf_counter, repr=False
    )
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    #: Engine content keys in request order (the fleet key for a fleet),
    #: computed once at submission.
    keys: List[str] = field(default_factory=list)
    #: ``RunResult.to_dict`` payloads in request order (``done`` only).
    results: Optional[List[Dict[str, Any]]] = None
    #: ``(state, unix-time)`` history, for transition assertions.
    transitions: List[Tuple[str, float]] = field(default_factory=list)
    _finished: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def __post_init__(self) -> None:
        self.transitions.append((self.state, self.submitted_s))

    def mark(self, state: str) -> None:
        assert state in JOB_STATES, state
        now = time.time()
        self.state = state
        self.transitions.append((state, now))
        if state == "running":
            self.started_s = now
        elif state in ("done", "failed"):
            self.finished_s = now
            self._finished.set()

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished.wait(timeout)

    def to_dict(self) -> Dict[str, Any]:
        """The job's status: everything but its results."""
        if self.fleet is not None:
            workloads = list(self.fleet.resolved().workloads)
            stacks = list(self.fleet.stacks)
        else:
            workloads = [req.spec.name for req in self.requests]
            stacks = [req.stack for req in self.requests]
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "trace_id": self.trace_id,
            "requests": len(self.requests),
            "workloads": workloads,
            "stacks": stacks,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
            "keys": list(self.keys),
            "transitions": [list(step) for step in self.transitions],
        }


class JobQueue:
    """Runs jobs over one engine: hits at submission, the rest on a FIFO
    queue drained by a worker-thread pool."""

    def __init__(
        self,
        engine: ExperimentEngine,
        workers: int = DEFAULT_WORKERS,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.engine = engine
        self.telemetry = telemetry
        self.workers = resolve_workers(workers)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        #: Retained jobs, submission order.
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._shutdown = False
        #: Submissions refused because the queue was full.
        self.rejected = 0
        #: Finished jobs forgotten past :data:`MAX_RETAINED`.
        self.evicted = 0
        engine.start_pool(self.workers * engine.jobs)
        self._threads = [
            threading.Thread(
                target=self._drain, name=f"repro-job-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        requests: Sequence[RunRequest],
        kind: str = "run",
        trace_id: Optional[str] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> Job:
        """Run a request batch; returns its :class:`Job`.

        ``keys`` are the requests' content keys under this engine's cost
        model, when the caller has them already; by default they are
        computed here. A batch the engine answers without simulating
        runs here and comes back ``done``; any other is queued. Raises
        :class:`QueueFull` when the queue is full.
        """
        if not requests:
            raise ValueError("cannot submit an empty request batch")
        if keys is None:
            keys = [
                request.content_key(self.engine.cost_model)
                for request in requests
            ]
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            requests=list(requests),
            trace_id=trace_id,
            keys=list(keys),
        )
        hit = self.engine.answerable(job.keys)
        self._admit(job, enqueue=not hit)
        if hit:
            self._run_job(job)
        return job

    def submit_fleet(
        self, fleet: FleetRequest, trace_id: Optional[str] = None
    ) -> Job:
        """Enqueue one fleet simulation; returns the queued :class:`Job`."""
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind="fleet",
            requests=[],
            fleet=fleet,
            trace_id=trace_id,
            keys=[fleet.content_key(self.engine.cost_model)],
        )
        self._admit(job, enqueue=True)
        return job

    def _admit(self, job: Job, enqueue: bool) -> None:
        """Retain ``job`` (evicting the oldest finished jobs past
        :data:`MAX_RETAINED`) and, with ``enqueue``, queue it."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("job queue is shut down")
            if enqueue and self._queue.qsize() >= MAX_QUEUED:
                self.rejected += 1
                raise QueueFull(
                    f"job queue is full ({MAX_QUEUED} waiting); retry later"
                )
            self._jobs[job.id] = job
            excess = len(self._jobs) - MAX_RETAINED
            if excess > 0:
                doomed = []
                for retained in self._jobs.values():
                    if len(doomed) == excess:
                        break
                    if retained.finished:
                        doomed.append(retained.id)
                for job_id in doomed:
                    del self._jobs[job_id]
                self.evicted += len(doomed)
            if enqueue:
                self._queue.put(job)

    # -- inspection ------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every job, submission order."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (all states present, zeros kept)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def depth(self) -> int:
        """Jobs waiting on the queue (approximate, race-tolerant)."""
        return self._queue.qsize()

    def alive_workers(self) -> int:
        """Worker threads still draining (the ``/healthz`` liveness)."""
        return sum(1 for thread in self._threads if thread.is_alive())

    # -- execution -------------------------------------------------------

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                break
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        # When telemetry is on, the thread running the job (a worker,
        # or the HTTP thread for a hit) traces it into a private tracer:
        # a bundle set off the main thread stays on that thread, so
        # engine spans land here, never in the tracer another thread (or
        # the test harness) may own.
        job_tracer = Tracer() if self.telemetry is not None else None
        bind = {} if job_tracer is None else {"tracer": job_tracer}
        started_pc = time.perf_counter()
        job.mark("running")
        try:
            with instrumented(**bind):
                self._execute(job)
            job.mark("done")
        except Exception as exc:  # noqa: BLE001 - per-job isolation
            job.error = f"{type(exc).__name__}: {exc}"
            job.mark("failed")
        finally:
            if self.telemetry is not None:
                self.telemetry.observe_job(
                    job, job_tracer, started_pc, time.perf_counter()
                )

    def _execute(self, job: Job) -> None:
        if job.fleet is not None:
            fleet_result = simulate_fleet(job.fleet, engine=self.engine)
            job.results = [fleet_result.to_dict()]
        else:
            results = self.engine.run_many(job.requests, keys=job.keys)
            job.results = [result.to_dict() for result in results]

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; drain workers and, once they are joined
        (with ``wait``), close the engine: its pool and ledger handle."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
            self.engine.close()
