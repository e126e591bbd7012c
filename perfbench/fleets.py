"""The two fleet workloads: ``fleet_cold`` and ``fleet_warm``.

Both drive ``simulate_fleet`` with one four-stack ``FleetRequest`` over
``html``, ``jd``, ``US`` and ``html-go`` (Python, C++ and Go runtimes),
two profile seeds, serial (``jobs=1``) engines on private caches. The
benchmark seed is the fleet seed, so it varies the arrival stream and
the workload mix; the engine shards behind the fleet depend only on
the registry specs, which is what lets their outputs be pinned.

- ``fleet_cold``: 10k invocations at 600 allocations per trace, each
  pass on a fresh empty cache. Engine fan-out dominates: 64 shards each
  generate, pack, build, replay and admit.
- ``fleet_warm``: 100k invocations at 200 allocations per trace, the
  cache filled during set-up and a fresh engine per pass, so every shard
  is a disk hit and the pool pass over 400k invocations dominates.

Because the shards do not depend on the fleet seed, the fleet layer's
own output (arrivals, the pool's cold/warm split, latencies, stranding)
is pinned separately: :func:`pinned_fleet` runs a small fleet of the
same shape at the fixed :data:`PIN_SEED` and compares its
``FleetResult`` with the digest in ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import shutil
import statistics
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.fleet.metrics import FleetResult
from repro.fleet.request import FleetRequest
from repro.fleet.simulate import fleet_run_requests, simulate_fleet
from repro.harness.engine import ExperimentEngine

from common import Outcome, digest, expected, median_setup, scratch_dir
from hostspeed import Segments, short_sample
from layers import Recorder, attributed_s, layer_metrics, merge, percentile

STACKS = ("baseline", "memento", "snapshot", "reclaim")
WORKLOADS = ("html", "jd", "US", "html-go")
JOBS = 1
#: Fleet seed of the pinned fleet; unlike ``--seed`` it never varies.
PIN_SEED = 0


def fleet_request(
    seed: int, invocations: int, allocs: int, profile_seeds: int = 2
) -> FleetRequest:
    return FleetRequest(
        workloads=WORKLOADS,
        invocations=invocations,
        seed=seed,
        stacks=STACKS,
        invocation_allocs=allocs,
        profile_seeds=profile_seeds,
    )


def shard_digest(request: FleetRequest, engine: ExperimentEngine) -> str:
    """Digest of every engine shard's ``RunResult`` behind ``request``:
    the fleet's simulated outputs, free of fingerprints and of the seed."""
    shards = fleet_run_requests(request)
    results = engine.run_many([shards[key] for key in sorted(shards)])
    return digest([result.to_dict() for result in results])


def fleet_digest(result: FleetResult) -> str:
    """Digest of a fleet result without ``fleet_key``, which folds in
    the source fingerprint and so changes on every commit."""
    payload = result.to_dict()
    payload.pop("fleet_key", None)
    return digest(payload)


def pinned_fleet(progress: Optional[Callable[..., None]] = None) -> bool:
    """Run the pinned fleet (1k invocations, 200 allocations, one
    profile seed, :data:`PIN_SEED`) on a fresh cache; True when its
    ``FleetResult`` matches the digest in ``expected.json``.
    ``progress`` is called after every engine run and fleet log line."""
    request = dataclasses.replace(
        fleet_request(
            PIN_SEED, invocations=1_000, allocs=200, profile_seeds=1
        ),
        # Bursty arrivals, a short keep-alive and an LRU warm cap, so
        # arrivals, expiry and eviction all shape the pinned result.
        pattern="diurnal",
        keep_alive_s=20.0,
        policy="lru",
        max_warm=2,
    )
    cache = scratch_dir("pin-")
    engine = ExperimentEngine(cache_dir=cache, jobs=JOBS, progress=progress)
    result = simulate_fleet(request, engine, log=progress)
    shutil.rmtree(cache)
    return fleet_digest(result) == expected()["fleet"]


def conserved(result: FleetResult, request: FleetRequest) -> bool:
    """Every requested stack served every invocation, cold or warm."""
    return set(result.stacks) == set(request.stacks) and all(
        m.invocations == request.invocations == m.cold_starts + m.warm_starts
        for m in result.stacks.values()
    )


#: One timed pass, segmented or not: (result, engine it ran on, the
#: pass's timing).
PassFn = Callable[[bool], Tuple[FleetResult, ExperimentEngine, Segments]]


def timed_pass(
    request: FleetRequest,
    engine_for: Callable[..., ExperimentEngine],
    segmented: bool,
) -> Tuple[FleetResult, ExperimentEngine, Segments]:
    """One ``simulate_fleet`` call on the engine ``engine_for(progress)``
    builds. ``segmented`` times it in segments that end with each
    engine run (through the engine's progress callback) and with each
    stack's pool pass (through the fleet's log callback); otherwise it
    is one segment, so that no host-speed sample runs inside a traced
    span."""
    clock = Segments()
    mark = clock.mark if segmented else None
    engine = engine_for(mark)
    result = simulate_fleet(request, engine, log=mark)
    clock.mark()
    engine.progress = None
    return result, engine, clock


def _measure(
    request: FleetRequest,
    one_pass: PassFn,
    seconds: float,
    trace: bool,
    workload: str,
    setup: Tuple[float, float],
    pin_ok: bool,
) -> Outcome:
    """Time passes for ``seconds``, then check their outputs.
    ``setup`` is the corrected and the raw median set-up time, and
    ``pin_ok`` the outcome of the :func:`pinned_fleet` check.

    The end-to-end figures are pass times corrected for host speed,
    segment by segment. With ``trace``, untraced and traced passes
    alternate (untraced first), each corrected as one segment; the
    traced ones give the layer figures and the overhead.
    """
    recorder = Recorder()
    # Pass times: corrected for host speed, and raw.
    untraced: List[float] = []
    traced: List[float] = []
    raw_untraced: List[float] = []
    raw_traced: List[float] = []
    snapshots = []
    digests: List[str] = []
    failed = 0
    engine: Optional[ExperimentEngine] = None
    gc.collect()
    started = perf_counter()
    while (
        perf_counter() - started < seconds
        or not untraced
        or (trace and not traced)
    ):
        traced_pass = trace and len(traced) < len(untraced)
        if traced_pass:
            recorder.reset()
            recorder.install()
        try:
            result, engine, clock = one_pass(not trace)
        finally:
            recorder.uninstall()
        gc.collect()
        if traced_pass:
            traced.append(clock.corrected)
            raw_traced.append(clock.raw)
            snapshots.append(recorder.snapshot())
        else:
            untraced.append(clock.corrected)
            raw_untraced.append(clock.raw)
        digests.append(fleet_digest(result))
        if not conserved(result, request):
            failed += 1

    # Every pass of one seed must agree bit for bit, and the shards and
    # the pinned fleet must match their pins (a mismatch fails every
    # pass).
    failed += sum(1 for d in digests if d != digests[0])
    shards = shard_digest(request, engine)
    shards_ok = shards == expected()["shards"][workload]
    passes = len(digests)
    if not (shards_ok and pin_ok):
        failed = passes
    outcome = Outcome(attempted=passes, failed=min(failed, passes))
    outcome.info = {
        "passes": passes,
        "jobs": engine.jobs,
        "shards": len(fleet_run_requests(request)),
        "shard_digest": shards,
        "shard_digest_ok": shards_ok,
        "pinned_fleet_ok": pin_ok,
        "raw_setup_s": setup[1],
    }
    if trace:
        spans = merge(snapshots)
        metrics = layer_metrics(spans, len(traced))
        metrics["traced_wall_s"] = statistics.fmean(raw_traced)
        metrics["unattributed_s"] = (
            metrics["traced_wall_s"] - attributed_s(metrics)
        )
        metrics["trace_overhead_ratio"] = statistics.median(
            traced
        ) / statistics.median(untraced)
        outcome.metrics = metrics
    else:
        outcome.metrics = {
            "wall_s": statistics.median(untraced),
            "latency_p50_ms": statistics.median(untraced) * 1e3,
            "latency_p95_ms": percentile(untraced, 95) * 1e3,
            "jobs_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
            "setup_s": setup[0],
        }
        outcome.info["raw_wall_s"] = statistics.median(raw_untraced)
        outcome.info["pass_s"] = [round(t, 3) for t in untraced]
        outcome.info["raw_pass_s"] = [round(t, 3) for t in raw_untraced]
    return outcome


def fleet_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    request = fleet_request(seed, invocations=10_000, allocs=600)
    # Set-up checks the pinned fleet, which also primes the process
    # (source fingerprint, stack registry, kernels). Every repetition
    # must match. One repetition is short (~1.3 s), so it takes more of
    # them than the default for a steady median.
    *setup, pins = median_setup(pinned_fleet, short_sample, repeats=9)
    caches = []

    def one_pass(
        segmented: bool,
    ) -> Tuple[FleetResult, ExperimentEngine, Segments]:
        if caches:
            shutil.rmtree(caches.pop())
        caches.append(scratch_dir("cold-"))
        return timed_pass(
            request,
            lambda progress: ExperimentEngine(
                cache_dir=caches[-1], jobs=JOBS, progress=progress
            ),
            segmented,
        )

    return _measure(
        request, one_pass, seconds, trace, "fleet_cold", setup, all(pins)
    )


def fleet_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    request = fleet_request(seed, invocations=100_000, allocs=200)
    shards = fleet_run_requests(request)

    def fill(progress: Callable[..., None]) -> str:
        cache = scratch_dir("warm-")
        ExperimentEngine(
            cache_dir=cache, jobs=JOBS, progress=progress
        ).run_many([shards[key] for key in sorted(shards)])
        return cache

    *setup, caches = median_setup(
        fill, short_sample, discard=shutil.rmtree
    )
    cache = caches[-1]
    pin_ok = pinned_fleet()

    def one_pass(
        segmented: bool,
    ) -> Tuple[FleetResult, ExperimentEngine, Segments]:
        # A fresh engine has an empty memo: hits come from the backend.
        return timed_pass(
            request,
            lambda progress: ExperimentEngine(
                cache_dir=cache, jobs=JOBS, progress=progress
            ),
            segmented,
        )

    return _measure(
        request, one_pass, seconds, trace, "fleet_warm", setup, pin_ok
    )
