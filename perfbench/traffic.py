"""The ``service_mixed`` workload: mixed traffic against ``repro serve``.

The server runs in its own process (through ``serve.py``) on a private
JSON cache with the default two queue workers and serial engine runs,
so the load generator's interpreter lock is never timed as server work.
Two clients in this process form a closed loop: each POSTs one
``RunRequest``, polls its job every :data:`POLL_S` seconds, and sends
the next request only when the result is back.

Traffic comes in batches of :data:`BATCH` requests. Nine in ten repeat
one of the :data:`WARM` requests computed during set-up (reads: HTTP,
queue, content key, cache lookup); one in ten is a request the server
has never seen (writes: generate, simulate, admit). Hits and the
workload and stack of misses are drawn in seeded shuffled rounds, so
every run has the same mix and the seed only orders it. Every result
is compared bit for bit with the in-process result of the same request
after the timed loop.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.harness.system import RunResult
from repro.service.client import ServiceClient, ServiceError
from repro.workloads.registry import get_workload

from common import HERE, ROOT, Outcome, median_setup, scratch_dir
from hostspeed import HostSpeed, corrected
from layers import attributed_s, layer_metrics, merge, percentile

WORKLOADS = ("html", "jd", "US", "html-go")
STACKS = ("baseline", "memento", "snapshot", "reclaim")
#: Allocations per request trace.
ALLOCS = 2_000
#: Requests computed during set-up, one per workload and stack; the
#: hits repeat these.
WARM = len(WORKLOADS) * len(STACKS)
#: Requests per batch, of which :data:`MISSES` are never-seen requests.
#: A batch is the unit of host-speed correction, so it is short.
BATCH = 20
MISSES = 2
CLIENTS = 2
WORKERS = 2
#: Poll interval: fine enough not to quantise a ~10 ms hit.
POLL_S = 0.002
#: Statuses that mean the server refused the request (overload).
REFUSED = (429, 503)
#: Upper bound on any one wait for the server process.
TIMEOUT_S = 60.0


def run_request(name: str, stack: str, seed: int) -> RunRequest:
    spec = dataclasses.replace(
        get_workload(name), num_allocs=ALLOCS, seed=seed
    )
    return RunRequest(spec=spec, stack=stack)


class _Rounds:
    """Draws from ``items`` in seeded shuffled rounds, each item once
    per round."""

    def __init__(self, items: List[Any], rng: random.Random) -> None:
        self._items = items
        self._rng = rng
        self._left: List[Any] = []

    def __call__(self) -> Any:
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


class Traffic:
    """Seeded request stream: the warm set, then batches of hits and
    never-seen misses."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._used = set()
        pairs = [(name, stack) for name in WORKLOADS for stack in STACKS]
        self.warm = [
            self._fresh(name, stack, 1, 1_000_000) for name, stack in pairs
        ]
        self._hit = _Rounds(self.warm, self._rng)
        self._miss = _Rounds(pairs, self._rng)

    def _fresh(self, name: str, stack: str, low: int, high: int):
        while True:
            seed = self._rng.randrange(low, high)
            if (name, stack, seed) not in self._used:
                self._used.add((name, stack, seed))
                return run_request(name, stack, seed)

    def batch(self) -> List[RunRequest]:
        hits = [self._hit() for _ in range(BATCH - MISSES)]
        misses = [
            self._fresh(*self._miss(), 1_000_000, 1_000_000_000)
            for _ in range(MISSES)
        ]
        requests = hits + misses
        self._rng.shuffle(requests)
        return requests


class _Client(ServiceClient):
    """A service client that remembers its last job status."""

    def __init__(self, url: str) -> None:
        super().__init__(url)
        self.polls = 0
        self.last_status: Dict[str, Any] = {}

    def status(self, job_id: str) -> Dict[str, Any]:
        self.polls += 1
        self.last_status = super().status(job_id)
        return self.last_status


@dataclass
class Op:
    """One request's round trip as the client saw it."""

    request: RunRequest
    ok: bool
    refused: bool = False
    rt_s: float = 0.0
    wait_s: float = 0.0
    run_s: float = 0.0
    polls: int = 0
    result: Optional[RunResult] = None


def one_op(url: str, request: RunRequest) -> Op:
    client = _Client(url)
    begun = perf_counter()
    try:
        job_id = client.submit(request)
        (result,) = client.results(job_id, timeout=TIMEOUT_S, poll_s=POLL_S)
    except ServiceError as exc:
        return Op(request, ok=False, refused=exc.status in REFUSED)
    rt_s = perf_counter() - begun
    at = {state: stamp for state, stamp in client.last_status["transitions"]}
    return Op(
        request,
        ok=True,
        rt_s=rt_s,
        wait_s=at["running"] - at["queued"],
        run_s=at["done"] - at["running"],
        polls=client.polls,
        result=result,
    )


class Server:
    """``repro serve`` in a child process, on a private cache."""

    def __init__(self) -> None:
        self.dir = scratch_dir("serve-")
        self.stats_path = self.dir / "stats.json"
        self.ack_path = self.dir / "stats.json.ack"
        self.toggles = 0
        log = (self.dir / "serve.log").open("w")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve.py"), str(self.stats_path),
                "--", "--port", "0", "--cache-dir", str(self.dir / "cache"),
                "--workers", str(WORKERS), "--jobs", "1", "--backend", "json",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
            env=env,
            cwd=ROOT,
        )
        log.close()
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = perf_counter() + TIMEOUT_S
        marker = "listening on "
        text = ""
        while perf_counter() < deadline:
            text = (self.dir / "serve.log").read_text()
            if marker in text and "\n" in text.split(marker, 1)[1]:
                # "listening on URL (backend=json workers=2 jobs=1)"
                line = text.split(marker, 1)[1].split("\n", 1)[0]
                url, settings = line.split(" ", 1)
                pairs = (i.split("=", 1) for i in settings.strip("()").split())
                self.settings = {
                    k: int(v) if v.isdigit() else v for k, v in pairs
                }
                return url
            if self.proc.poll() is not None:
                break
            sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start:\n{text}")

    def set_tracing(self, on: bool) -> None:
        """Install (``on``) or remove the layer wrappers in the server,
        and wait for it to acknowledge."""
        self.toggles += 1
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = perf_counter() + TIMEOUT_S
        while True:
            try:
                if int(self.ack_path.read_text()) == self.toggles:
                    return
            except FileNotFoundError:
                pass
            if perf_counter() > deadline:
                raise RuntimeError("server did not acknowledge tracing")
            sleep(0.001)

    def stop(self) -> Dict[str, Any]:
        """Shut down cleanly; returns the stats the launcher wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.stats_path.exists():
            return {}
        return json.loads(self.stats_path.read_text())


def _warm_server(traffic: Traffic) -> Server:
    server = Server()
    try:
        with ThreadPoolExecutor(CLIENTS) as pool:
            ops = list(pool.map(lambda r: one_op(server.url, r), traffic.warm))
    except BaseException:
        server.stop()
        raise
    if not all(op.ok for op in ops):
        server.stop()
        raise RuntimeError("warming the service failed")
    return server


def _run_batch(
    url: str, traffic: Traffic, pool: ThreadPoolExecutor
) -> Tuple[float, List[Op]]:
    batch = traffic.batch()
    begun = perf_counter()
    ops = list(pool.map(lambda r: one_op(url, r), batch))
    return perf_counter() - begun, ops


def _verify(ops: List[Op]) -> int:
    """Failed operations: refused, failed, or not bit-identical to the
    in-process result of the same request."""
    engine = ExperimentEngine(use_disk_cache=False, use_ledger=False, jobs=1)
    unique = list(dict.fromkeys(op.request for op in ops if op.ok))
    reference = dict(zip(unique, engine.run_many(unique)))
    # RunResult is a dataclass: equality compares every field exactly.
    return sum(
        1 for op in ops if not op.ok or op.result != reference[op.request]
    )


def _service_metrics(ops: List[Op], batches: int) -> Dict[str, float]:
    done = [op for op in ops if op.ok]
    http = [op.rt_s - op.wait_s - op.run_s for op in done]
    wait = [op.wait_s for op in done]
    return {
        "service.queue_wait_p50_ms": percentile(wait, 50) * 1e3,
        "service.queue_wait_p95_ms": percentile(wait, 95) * 1e3,
        "service.run_p50_ms": percentile([op.run_s for op in done], 50) * 1e3,
        "service.http_p50_ms": percentile(http, 50) * 1e3,
        "service.polls_per_job": (
            statistics.fmean(op.polls for op in done) if done else 0.0
        ),
        "service.rejected": float(sum(op.refused for op in ops)),
        "service.queue_wait_s": sum(wait) / batches,
        "service.http_s": sum(http) / batches,
    }


def service_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    # The server and the load generator spread over both vCPUs, so host
    # speed is sampled on both at once, between batches.
    with HostSpeed(processes=2) as speed:
        return _service_mixed(seed, seconds, trace, speed)


def _service_mixed(
    seed: int, seconds: float, trace: bool, speed: HostSpeed
) -> Outcome:
    traffic = Traffic(seed)
    *setup, servers = median_setup(
        lambda progress: _warm_server(traffic),
        speed.sample,
        discard=lambda s: s.stop(),
    )
    server = servers[-1]
    # Batch times corrected for host speed (untraced, traced), raw
    # untraced batch times, and each untraced operation's batch scale.
    walls: List[float] = []
    ops: List[Op] = []
    scales: List[float] = []
    traced: List[float] = []
    traced_ops: List[Op] = []
    raw_walls: List[float] = []
    try:
        with ThreadPoolExecutor(CLIENTS) as pool:
            speed.sample()
            started = perf_counter()
            # With ``trace``, untraced and traced batches alternate
            # (untraced first), as the fleets alternate passes; the
            # server is idle whenever the wrappers go in or come out.
            while (
                perf_counter() - started < seconds
                or not walls
                or (trace and not traced)
            ):
                tracing = trace and len(traced) < len(walls)
                if tracing:
                    server.set_tracing(True)
                wall, batch_ops = _run_batch(server.url, traffic, pool)
                if tracing:
                    server.set_tracing(False)
                scale = corrected(1.0, speed.samples[-1], speed.sample())
                if tracing:
                    traced.append(wall * scale)
                    traced_ops.extend(batch_ops)
                else:
                    walls.append(wall * scale)
                    raw_walls.append(wall)
                    ops.extend(batch_ops)
                    scales.extend([scale] * len(batch_ops))
    finally:
        stats = server.stop()

    checked = ops + traced_ops
    outcome = Outcome(attempted=len(checked), failed=_verify(checked))
    # The settings the server resolved and reported when it started.
    outcome.info = {
        "batches": len(walls) + len(traced),
        **server.settings,
        "reference_ms": statistics.median(speed.samples) * 1e3,
        "raw_setup_s": setup[1],
    }
    done = [op.rt_s * k for op, k in zip(ops, scales) if op.ok]
    if trace:
        spans = merge([stats["spans"]])
        metrics = layer_metrics(spans, len(traced))
        metrics.update(_service_metrics(traced_ops, len(traced)))
        # The service's wall time is client-seconds: the round trips of
        # both clients, per batch, which split into queue wait, HTTP and
        # the server-side layers.
        metrics["traced_wall_s"] = sum(
            op.rt_s for op in traced_ops if op.ok
        ) / len(traced)
        metrics["unattributed_s"] = (
            metrics["traced_wall_s"]
            - attributed_s(metrics)
            - metrics["service.queue_wait_s"]
            - metrics["service.http_s"]
        )
        metrics["trace_overhead_ratio"] = statistics.median(
            traced
        ) / statistics.median(walls)
        outcome.metrics = metrics
    else:
        outcome.metrics = {
            "wall_s": statistics.median(walls),
            "latency_p50_ms": percentile(done, 50) * 1e3,
            "latency_p95_ms": percentile(done, 95) * 1e3,
            "jobs_per_s": len(done) / sum(walls),
            "peak_rss_mb": stats["peak_rss_mb"],
            "setup_s": setup[0],
        }
        raw_done = [op.rt_s for op in ops if op.ok]
        outcome.info.update(
            raw_wall_s=statistics.median(raw_walls),
            raw_latency_p50_ms=percentile(raw_done, 50) * 1e3,
            raw_latency_p95_ms=percentile(raw_done, 95) * 1e3,
        )
    return outcome
