"""Fleet simulation: shard, fan out, replay the pool, reduce.

One fleet run decomposes into a *small* set of unique per-invocation
profiles — for each (workload, stack, warm/cold, profile-seed) tuple,
one deterministic ``RunRequest`` replayed once through the
``ExperimentEngine`` — and a *large* arrival stream replayed through the
instance pool using those profiled latencies and footprints. A million
invocations over 16 workloads, 2 stacks, and 2 profile seeds costs 128
engine runs (content-keyed, so a re-run answers from cache) plus a pure
event-processing pass.

Epoch sharding serves three roles: arrival generation is independently
seeded per epoch (deterministic and resumable), each epoch cycles to its
own profile-seed variant (trace diversity without per-invocation runs),
and the stranding timeline is bucketed on epoch boundaries.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.fleet import arrival
from repro.fleet.metrics import (
    FleetResult,
    StackMetrics,
    compare_stacks,
    percentile_summary,
)
from repro.fleet.pool import FleetPool
from repro.fleet.request import FleetRequest
from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    cost_model_fingerprint,
    source_fingerprint,
)
from repro.obs import ledger as obs_ledger
from repro.obs.instruments import current as current_instruments
from repro.harness.system import RunResult
from repro.sim.params import PAGE_SIZE
from repro.workloads.registry import get_workload

#: key: (workload name, stack, cold?, profile-seed variant)
ProfileKey = Tuple[str, str, bool, int]


def fleet_run_requests(
    request: FleetRequest,
) -> Dict[ProfileKey, RunRequest]:
    """The unique engine shards behind one fleet request.

    Deterministic: the variant seed is ``spec.seed + 1000 * variant``,
    derived only from the registry spec and the fleet's profile-seed
    count, never from global state.
    """
    req = request.resolved()
    shards: Dict[ProfileKey, RunRequest] = {}
    for name in req.workloads:
        base = get_workload(name)
        for variant in range(req.profile_seeds):
            spec = dataclasses.replace(
                base,
                num_allocs=req.invocation_allocs,
                seed=base.seed + 1000 * variant,
            )
            for stack in req.stacks:
                for cold in (False, True):
                    shards[(name, stack, cold, variant)] = RunRequest(
                        spec=spec,
                        stack=stack,
                        config=req.config,
                        machine_params=req.machine_params,
                        cold_start=cold,
                    )
    return shards


def simulate_fleet(
    request: FleetRequest,
    engine: Optional[ExperimentEngine] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FleetResult:
    """Run one fleet simulation end to end.

    The engine fan-out executes (or recalls) every profile shard; the
    pool pass then replays the arrival stream per stack. Everything
    downstream of the seed is deterministic, so the same request
    produces bit-identical metrics on every run.
    """
    req = request.resolved()
    engine = engine if engine is not None else ExperimentEngine()
    say = log if log is not None else (lambda message: None)
    # Telemetry is captured once at entry (bind-before-run, like the
    # ring/profile/audit); None means disabled and the pass below takes
    # the exact same branches as ever.
    instruments = current_instruments()
    recorder = instruments.recorder
    ring = instruments.ring
    started = time.perf_counter()

    shards = fleet_run_requests(req)
    ordered = sorted(shards)  # stable engine-batch order
    say(
        f"fleet: {req.invocations:,} invocations / {req.epochs} epochs; "
        f"{len(ordered)} engine runs "
        f"({len(req.workloads)} workloads x {len(req.stacks)} stacks "
        f"x warm,cold x {req.profile_seeds} seeds)"
    )
    results = engine.run_many([shards[key] for key in ordered])
    profiles: Dict[ProfileKey, RunResult] = dict(zip(ordered, results))

    edges = arrival.epoch_edges(req.duration_s, req.epochs)
    weights = arrival.mix_weights(req.workloads, req.mix, req.seed)
    counts = arrival.epoch_counts(
        req.invocations, req.duration_s, req.epochs, req.pattern, req.seed
    )

    fleet = FleetResult(
        fleet_key=req.content_key(),
        seed=req.seed,
        invocations=req.invocations,
        duration_s=req.duration_s,
        epochs=req.epochs,
        epoch_edges=edges,
        engine_runs=len(ordered),
    )

    # No stack changes the arrival stream: generate it once.
    epoch_streams = [
        (
            arrival.epoch_arrivals(
                epoch,
                counts[epoch],
                edges[epoch],
                edges[epoch + 1],
                req.pattern,
                req.seed,
            ),
            arrival.assign_functions(
                epoch, counts[epoch], weights, req.seed
            ),
        )
        for epoch in range(req.epochs)
    ]

    from repro import stacks as stack_registry

    for stack in req.stacks:
        # Idle-residency model: the stack decides how much of a warm
        # instance's footprint stays resident while it idles (baseline/
        # memento keep everything; snapshot spills to disk; reclaim
        # returns arena pages to the host pool) — the stranding metric
        # per stack.
        stack_entry = stack_registry.get_stack(stack)
        pool = FleetPool(
            keep_alive_s=req.keep_alive_s,
            policy=req.policy,
            max_warm=req.max_warm,
            epoch_edges=edges,
            recorder=recorder,
            stack=stack,
        )
        # What one invocation costs on this stack, per profile-seed
        # variant and workload pick: (name, warm_s, cold_extra_s,
        # resident_bytes, warm DRAM bytes, cold DRAM bytes).
        invocation_costs = []
        for variant in range(req.profile_seeds):
            row = []
            for name in req.workloads:
                warm = profiles[(name, stack, False, variant)]
                cold_run = profiles[(name, stack, True, variant)]
                row.append((
                    name,
                    warm.seconds,
                    max(0.0, cold_run.seconds - warm.seconds),
                    stack_entry.resident_bytes(warm.peak_pages * PAGE_SIZE),
                    warm.dram_bytes,
                    cold_run.dram_bytes,
                ))
            invocation_costs.append(row)
        latencies_ms: List[float] = []
        cold_ms: List[float] = []
        dram_bytes = 0.0
        for epoch, (times, picks) in enumerate(epoch_streams):
            before = (
                pool.stats.cold_starts,
                pool.stats.warm_starts,
                pool.stats.expirations,
                pool.stats.evictions,
            )
            costs = invocation_costs[epoch % req.profile_seeds]
            for t, pick in zip(times, picks):
                (name, warm_s, cold_extra, resident, warm_dram,
                 cold_dram) = costs[pick]
                was_cold, latency = pool.invoke(
                    name,
                    t,
                    warm_s=warm_s,
                    cold_extra_s=cold_extra,
                    resident_bytes=resident,
                )
                latencies_ms.append(latency * 1e3)
                if was_cold:
                    cold_ms.append(latency * 1e3)
                    dram_bytes += cold_dram
                else:
                    dram_bytes += warm_dram
            if recorder is not None or ring is not None:
                deltas = {
                    "cold_starts": pool.stats.cold_starts - before[0],
                    "warm_starts": pool.stats.warm_starts - before[1],
                    "expirations": pool.stats.expirations - before[2],
                    "evictions": pool.stats.evictions - before[3],
                }
                if recorder is not None:
                    recorder.epoch(
                        stack,
                        epoch,
                        edges[epoch],
                        edges[epoch + 1],
                        invocations=counts[epoch],
                        pool_size=pool.idle_count,
                        **deltas,
                    )
                if ring is not None:
                    for counter, delta in deltas.items():
                        ring.record(f"fleet.{stack}.{counter}", delta)
        stats = pool.finish(req.duration_s)
        if recorder is not None:
            recorder.finish_stack(stack, stats.stranding_timeline)
        fleet.stacks[stack] = StackMetrics(
            stack=stack,
            invocations=stats.invocations,
            cold_starts=stats.cold_starts,
            warm_starts=stats.warm_starts,
            expirations=stats.expirations,
            evictions=stats.evictions,
            peak_warm=stats.peak_warm,
            cold_start_rate=(
                stats.cold_starts / stats.invocations
                if stats.invocations
                else 0.0
            ),
            latency_ms=percentile_summary(latencies_ms),
            cold_start_ms=percentile_summary(cold_ms),
            dram_bytes=dram_bytes,
            stranded_byte_seconds=stats.stranded_byte_seconds,
            stranding_timeline=list(stats.stranding_timeline),
        )
        say(
            f"fleet: {stack}: {stats.cold_starts:,} cold / "
            f"{stats.warm_starts:,} warm, peak {stats.peak_warm} "
            f"idle instances"
        )

    if "baseline" in fleet.stacks and "memento" in fleet.stacks:
        fleet.comparison = compare_stacks(
            fleet.stacks["baseline"], fleet.stacks["memento"]
        )

    if engine.ledger is not None:
        # Fleet determinism canary: the digest covers the full wire dict,
        # so two ledger lines for the same fleet key must agree bit for
        # bit. ``scenario`` digests only the declarative request (no
        # fingerprints), the stable grouping for trend gates.
        payload = fleet.to_dict()
        entry = obs_ledger.fleet_manifest(
            fleet_key=fleet.fleet_key,
            scenario=obs_ledger.payload_digest(req.to_dict()),
            seed=req.seed,
            invocations=req.invocations,
            duration_s=req.duration_s,
            elapsed_s=time.perf_counter() - started,
            stacks={
                name: {
                    # None (not 0.0) when the stack never went cold:
                    # percentile_summary returns the explicit empty
                    # marker and the trend gates skip non-numbers.
                    "cold_start_p95_ms": m.cold_start_ms.get("p95"),
                    "stranded_gb_s": m.stranded_byte_seconds / 1e9,
                    "cold_start_rate": m.cold_start_rate,
                    "evictions": m.evictions,
                }
                for name, m in fleet.stacks.items()
            },
            metrics_digest=obs_ledger.payload_digest(payload),
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(engine.cost_model),
            },
        )
        engine.ledger.append(entry)
    return fleet
