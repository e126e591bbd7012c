"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the 23 workloads with their language/category/parameters.
* ``run WORKLOAD [...]`` — baseline-vs-Memento for named workloads, or
  one run per workload x stack under ``--stack``; ``--all`` replays the
  full 23-workload evaluation, ``--jobs N`` fans the runs out over
  worker processes, and completed runs persist in the on-disk result
  cache (``.repro-cache/``) so re-invocations are warm. ``--trace``
  prints the span tree; ``--metrics out.prom`` exports the run's
  counters as Prometheus text plus a JSONL sidecar; ``--profile``
  attributes every simulated cycle to its architectural component and
  prints the Fig. 9-style breakdown (serial, cache-bypassing runs).
* ``cache info|clear`` — inspect or empty the persistent result cache.
* ``serve`` — run the experiment service: a REST API over an async job
  queue draining into the shared engine (submit/status/results,
  ``/healthz``, ``/metrics``).
* ``fleet run`` — fleet-scale platform simulation: a seeded arrival
  process over the workload registry drives a warm/cold instance pool;
  epoch-sharded profile runs fan out through the engine and reduce into
  cold-start percentiles, a memory-stranding timeline, and fleet DRAM
  traffic for every requested stack (``--stacks
  baseline,memento,snapshot,reclaim`` races all four).
* ``characterize`` — regenerate the §2.2 study (Figs. 2-3, Table 1).
* ``sweep NAME`` — one sensitivity study (populate, multiprocess,
  tuning, fragmentation, coldstart, iso-storage, mallacc, ablation).
* ``energy WORKLOAD`` — the energy comparison for one workload.
* ``obs report|diff`` — render the run ledger and exported metrics, or
  diff two metric JSONL files.
* ``obs profile|timeline|trend`` — render an exported cycle profile,
  export spans + sampled events as Perfetto trace JSON, or gate the
  ledger history for drift (wall time, digests, fleet headline
  metrics).

Conventions (shared by every handler): handlers take the parsed
``argparse.Namespace`` and return the process exit code — 0 on success,
1 on an operational error (reported as ``repro: error: ...`` on stderr
by ``main``'s shared handler), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from contextlib import closing
from pathlib import Path
from typing import Any, List, Optional

from repro import limits
from repro.analysis.characterize import (
    LIFETIME_BIN_LABELS,
    SIZE_BIN_LABELS,
    joint_size_lifetime,
    lifetime_distribution,
    size_distribution,
)
from repro.analysis.energy import EnergyModel
from repro.analysis.pricing import PricingModel
from repro.analysis.report import render_grouped, render_table
from repro.audit import Auditor
from repro.backends import JsonBackend
from repro.core.errors import MementoError
from repro.fleet import (
    MIXES,
    PATTERNS,
    POLICIES,
    STACKS,
    FleetRequest,
    render_fleet_report,
    simulate_fleet,
)
from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    cost_model_fingerprint,
    source_fingerprint,
)
from repro.harness.experiment import (
    evaluation_workloads,
    run_all,
    run_workload,
)
from repro.resolve import (
    DEFAULT_CACHE_DIR,
    UsageError,
    resolve_cache_dir,
    resolve_count,
    resolve_jobs,
    resolve_stack_list,
    resolve_workers,
)
from repro.harness import sweeps
from repro.obs import (
    CycleProfile,
    EventRing,
    RunLedger,
    Tracer,
    check_fleet_trend,
    check_trend,
    default_ledger_path,
    event_record,
    export_timeline,
    fleet_trend,
    histogram_lines,
    instrumented,
    profile_record,
    read_jsonl,
    render_histograms,
    render_profile,
    render_prometheus,
    render_span_tree,
    render_top_consumers,
    render_fleet_trend,
    render_trend,
    run_record,
    span_record,
    split_fleet_entries,
    trend_by_key,
    write_jsonl,
)
from repro.workloads.registry import all_workloads, get_workload
from repro.workloads.synth import generate_trace

SWEEPS = {
    "populate": sweeps.populate_study,
    "multiprocess": sweeps.multiprocess_study,
    "tuning": sweeps.tuning_study,
    "fragmentation": sweeps.fragmentation_study,
    "coldstart": sweeps.coldstart_study,
    "iso-storage": sweeps.iso_storage_study,
    "mallacc": sweeps.mallacc_study,
    "ablation": sweeps.ablation_study,
}

#: Exceptions ``main`` converts into the shared ``repro: error:`` report
#: with exit code 1 (anything else is a bug and propagates loudly).
_REPORTED_ERRORS = (KeyError, ValueError, OSError, MementoError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memento (MICRO '23) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list the paper's workloads")
    list_parser.set_defaults(handler=cmd_list)

    run_parser = sub.add_parser(
        "run", help="run workloads: baseline vs Memento, or named stacks"
    )
    run_parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    run_parser.add_argument(
        "--workload", action="append", dest="named_workloads",
        default=[], metavar="WORKLOAD",
        help="workload to run (repeatable; same as the positional form)",
    )
    run_parser.add_argument(
        "--all", action="store_true", dest="run_all",
        help="run the full 23-workload evaluation",
    )
    run_parser.add_argument(
        "--cold-start", action="store_true",
        help="include container setup (§6.6)",
    )
    run_parser.add_argument(
        "--stack", default=None, metavar="STACK",
        help="run only the named stack(s): a registry name, a comma "
        "list, 'both', or 'all' (default: the baseline-vs-memento "
        "comparison trio with derived metrics)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent runs "
        "(default: $REPRO_JOBS or 1)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache",
    )
    run_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="record spans + sampled hardware events; print the span tree",
    )
    run_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export counters as Prometheus text at PATH and JSON-lines "
        "at PATH.jsonl",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="attribute simulated cycles to architectural components and "
        "print the breakdown (forces serial, cache-bypassing runs)",
    )
    run_parser.add_argument(
        "--audit", action="store_true",
        help="check architectural invariants during the replay (forces "
        "serial, cache-bypassing runs; nonzero exit on violations)",
    )
    run_parser.add_argument(
        "--audit-epoch", choices=["event", "interval", "run"],
        default="run", metavar="EPOCH",
        help="when invariants are checked: event, interval, or run "
        "(default: run)",
    )
    run_parser.add_argument(
        "--audit-every", type=int, default=256, metavar="N",
        help="events between checks for --audit-epoch interval "
        "(default: 256)",
    )
    run_parser.set_defaults(handler=cmd_run)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache_parser.add_argument("action", choices=["info", "clear"])
    cache_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    cache_parser.set_defaults(handler=cmd_cache)

    serve_parser = sub.add_parser(
        "serve", help="run the experiment service (REST API + job queue)"
    )
    serve_parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="bind port, 0 for ephemeral (default: 8023)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="engine worker processes per request batch; the server "
        "simulates in workers x N processes (default: $REPRO_JOBS or 1)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="job-queue worker threads (default: 2)",
    )
    serve_parser.add_argument(
        "--backend", default="json", choices=["json"],
        help="result store: one JSON file per run (the only store)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without a persistent result store",
    )
    serve_parser.add_argument(
        "--log-requests", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="append per-job trace records (JSONL) at PATH",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    fleet_parser = sub.add_parser(
        "fleet", help="fleet-scale serverless platform simulation"
    )
    fleet_sub = fleet_parser.add_subparsers(
        dest="fleet_command", required=True
    )
    fleet_run_parser = fleet_sub.add_parser(
        "run",
        help="simulate an invocation fleet (cold starts, stranding, "
        "DRAM traffic) across the registered memory-management stacks",
        # No prefix matching: the retired --stack must not silently
        # resolve to --stacks.
        allow_abbrev=False,
    )
    fleet_run_parser.add_argument(
        "--invocations", type=int, default=10_000, metavar="N",
        help="total invocations over the window (default: 10000)",
    )
    fleet_run_parser.add_argument(
        "--duration", type=float, default=3600.0, metavar="SECONDS",
        help="simulated window length (default: 3600)",
    )
    fleet_run_parser.add_argument(
        "--seed", type=int, default=42, metavar="N",
        help="master seed; same seed = bit-identical metrics "
        "(default: 42)",
    )
    fleet_run_parser.add_argument(
        "--pattern", choices=list(PATTERNS), default="poisson",
        help="arrival process (default: poisson)",
    )
    fleet_run_parser.add_argument(
        "--mix", choices=list(MIXES), default="azure",
        help="invocation mix over the workloads (default: azure)",
    )
    fleet_run_parser.add_argument(
        "--workloads", nargs="*", default=None, metavar="WORKLOAD",
        help="functions in the fleet (default: every function-category "
        "workload)",
    )
    fleet_run_parser.add_argument(
        "--keep-alive", type=float, default=600.0, metavar="SECONDS",
        help="idle keep-alive before reclaim; 0 = always cold "
        "(default: 600)",
    )
    fleet_run_parser.add_argument(
        "--policy", choices=list(POLICIES), default="keepalive",
        help="pool eviction policy (default: keepalive)",
    )
    fleet_run_parser.add_argument(
        "--max-warm", type=int, default=0, metavar="N",
        help="idle-instance cap for --policy lru; 0 = unlimited "
        "(default: 0)",
    )
    fleet_run_parser.add_argument(
        "--epochs", type=int, default=0, metavar="N",
        help="epoch shards; 0 derives from the invocation count "
        "(default: 0)",
    )
    fleet_run_parser.add_argument(
        "--profile-seeds", type=int, default=2, metavar="N",
        help="trace-seed variants cycled across epochs (default: 2)",
    )
    fleet_run_parser.add_argument(
        "--allocs", type=int, default=2_000, metavar="N",
        help="allocations per invocation trace (default: 2000)",
    )
    fleet_run_parser.add_argument(
        "--stacks", default=None, metavar="LIST",
        help="stacks to race: a comma list (e.g. "
        "baseline,memento,snapshot,reclaim), 'both', or 'all' "
        "(default: both)",
    )
    fleet_run_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the engine fan-out "
        "(default: $REPRO_JOBS or 1)",
    )
    fleet_run_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache",
    )
    fleet_run_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    fleet_run_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the platform metrics as JSON at PATH",
    )
    fleet_run_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write fleet telemetry (per-epoch records, instance "
        "lifetimes, sampled events) as JSONL at PATH",
    )
    fleet_run_parser.set_defaults(handler=cmd_fleet_run)

    characterize_parser = sub.add_parser(
        "characterize", help="regenerate the §2.2 allocation study"
    )
    characterize_parser.set_defaults(handler=cmd_characterize)

    sweep_parser = sub.add_parser("sweep", help="run a sensitivity study")
    sweep_parser.add_argument("name", choices=sorted(SWEEPS))
    sweep_parser.set_defaults(handler=cmd_sweep)

    energy_parser = sub.add_parser(
        "energy", help="energy comparison for one workload"
    )
    energy_parser.add_argument("workload", metavar="WORKLOAD")
    energy_parser.set_defaults(handler=cmd_energy)

    audit_parser = sub.add_parser(
        "audit", help="invariant checks + differential oracle"
    )
    audit_parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    audit_parser.add_argument(
        "--workload", action="append", dest="named_workloads",
        default=[], metavar="WORKLOAD",
        help="workload to audit (repeatable; default: html)",
    )
    audit_parser.add_argument(
        "--all", action="store_true", dest="audit_all",
        help="audit every registered workload",
    )
    audit_parser.add_argument(
        "--stack", default="both", metavar="STACK",
        help="which stack(s) to audit: a registry name, a comma list, "
        "'both', or 'all' (default: both)",
    )
    audit_parser.add_argument(
        "--epoch", choices=["event", "interval", "run"],
        default="interval",
        help="invariant-check epoch for the replay leg (default: interval)",
    )
    audit_parser.add_argument(
        "--every", type=int, default=64, metavar="N",
        help="events between interval-epoch checks (default: 64)",
    )
    audit_parser.add_argument(
        "--diff", action="store_true",
        help="run the differential oracle (lockstep vs naive reference, "
        "bypass-soundness monitor, columnar cross-check)",
    )
    audit_parser.add_argument(
        "--num-allocs", type=int, default=2000, metavar="N",
        help="trace size per leg (default: 2000; 0 = the workload's "
        "full size)",
    )
    audit_parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_out",
        help="write the full audit report as JSON at PATH",
    )
    audit_parser.set_defaults(handler=cmd_audit)

    obs_parser = sub.add_parser(
        "obs", help="observability: run ledger, metrics, drift gate"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    report_parser = obs_sub.add_parser(
        "report", help="render the run ledger and exported metrics"
    )
    report_parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger file (default: <cache-dir>/ledger.jsonl)",
    )
    report_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="metrics JSONL exported by `repro run --metrics`",
    )
    report_parser.add_argument(
        "--last", default=None, metavar="N",
        help="ledger entries to show, a positive count (default: 20)",
    )
    report_parser.set_defaults(handler=cmd_obs_report)

    diff_parser = obs_sub.add_parser(
        "diff", help="diff two metric JSONL files"
    )
    diff_parser.add_argument("old", metavar="OLD")
    diff_parser.add_argument("new", metavar="NEW")
    diff_parser.set_defaults(handler=cmd_obs_diff)

    profile_parser = obs_sub.add_parser(
        "profile", help="render an exported cycle-attribution profile"
    )
    profile_parser.add_argument(
        "metrics", metavar="METRICS_JSONL",
        help="metrics JSONL written by `repro run --profile --metrics`",
    )
    profile_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the top-consumers view (default: 10)",
    )
    profile_parser.set_defaults(handler=cmd_obs_profile)

    timeline_parser = obs_sub.add_parser(
        "timeline", help="export spans + events as Perfetto trace JSON"
    )
    timeline_parser.add_argument(
        "metrics", metavar="METRICS_JSONL",
        help="metrics JSONL written by `repro run --trace --metrics`",
    )
    timeline_parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output trace path (default: trace.json)",
    )
    timeline_parser.set_defaults(handler=cmd_obs_timeline)

    trend_parser = obs_sub.add_parser(
        "trend", help="analyze ledger history for wall-time/digest drift"
    )
    trend_parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger file (default: <cache-dir>/ledger.jsonl)",
    )
    trend_parser.add_argument(
        "--report-only", action="store_true",
        help="always exit 0 (CI visibility without gating)",
    )
    trend_parser.set_defaults(handler=cmd_obs_trend)
    return parser


def _usage_error(message: str) -> int:
    """Shared usage-error convention: one ``repro: error:`` line on
    stderr, exit code 2 — the same report :class:`UsageError` gets from
    ``main``, so handlers can use either form."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.language,
            spec.category,
            spec.num_allocs,
            spec.compute_per_alloc,
        ]
        for spec in all_workloads()
    ]
    print(render_table(
        ["name", "language", "category", "allocs", "compute/alloc"],
        rows,
        title="Workloads (paper §5)",
    ))
    return 0


def _progress_line(
    index: int, total: int, request: RunRequest, source: str, seconds: float
) -> None:
    """One status line per run: workload, stack, wall time, hit or live."""
    status = "live" if source == "live" else "cache hit"
    print(
        f"[{index:3d}/{total}] {request.spec.name:<12} "
        f"{request.stack:<8} {seconds:7.2f}s  {status}",
        file=sys.stderr,
    )


def _summary_line(done: int, total: int, counts: dict) -> None:
    """Batched progress for fleet-scale batches: one line per ~5% of the
    batch instead of one per run."""
    print(
        f"[{done:5d}/{total}] {counts.get('cached', 0)} cached / "
        f"{counts.get('live', 0)} live / {counts.get('failed', 0)} failed",
        file=sys.stderr,
    )


def _make_engine(args: argparse.Namespace) -> ExperimentEngine:
    return ExperimentEngine(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        use_disk_cache=False if args.no_cache else None,
        progress=_progress_line,
        summary_progress=_summary_line,
    )


def _export_metrics(path: str, runs, tracer, ring, profile=None) -> None:
    """Write the Prometheus text file and its JSONL sidecar; ``runs``
    holds one ``(workload, label, RunResult)`` row per run."""
    snapshots = []
    records = []
    for workload, label, run in runs:
        summary = run.to_dict()
        snapshots.append({
            "labels": {"workload": workload, "stack": label},
            "counters": summary["stats"],
        })
        records.append(run_record(summary, stack=label))
    if tracer is not None:
        records.append(span_record(tracer.to_dict()))
    if ring is not None:
        records.append(event_record(ring.to_dict()))
    text = render_prometheus(snapshots)
    if profile is not None:
        payload = profile.to_dict()
        records.append(profile_record(payload))
        seen: set = set()
        hist_lines = []
        for name in sorted(payload.get("histograms", {})):
            hist_lines.extend(
                histogram_lines(
                    payload["histograms"][name], seen_types=seen
                )
            )
        if hist_lines:
            text += "\n".join(hist_lines) + "\n"
    out = Path(path)
    out.write_text(text, encoding="utf-8")
    write_jsonl(out.with_name(out.name + ".jsonl"), records)
    print(
        f"wrote {out} and {out.name}.jsonl "
        f"({len(snapshots)} runs)",
        file=sys.stderr,
    )


def _print_comparison(results, cold_start: bool) -> None:
    """The baseline-vs-Memento table with the trio's derived metrics."""
    pricing = PricingModel()
    rows = []
    for result in results:
        summary = result.to_dict()
        split = summary["user_kernel_split"]
        rows.append([
            summary["workload"],
            summary["speedup"],
            f"{split['user']:.0%}/{split['kernel']:.0%}",
            summary["bandwidth_reduction"],
            summary["memento"]["hot_alloc_hit_rate"],
            pricing.normalized_runtime_pricing(result),
        ])
    print(render_table(
        ["workload", "speedup", "mm user/kernel", "bw reduction",
         "HOT alloc hit", "pricing"],
        rows,
        title=("Cold-started" if cold_start else "Warm") +
        " baseline vs Memento",
    ))


def _print_stack_runs(runs, stacks, cold_start: bool) -> None:
    """One row per workload x stack (no derived metrics: those only
    exist for the baseline-vs-Memento trio)."""
    print(render_table(
        ["workload", "stack", "total cycles", "sim seconds", "dram MB"],
        [
            [
                workload,
                stack,
                f"{result.total_cycles:,}",
                f"{result.seconds:.6f}",
                f"{result.dram_bytes / 1e6:.2f}",
            ]
            for workload, stack, result in runs
        ],
        title=("Cold-started" if cold_start else "Warm")
        + " runs: " + ", ".join(stacks),
    ))


def cmd_run(args: argparse.Namespace) -> int:
    """The baseline-vs-Memento trio per workload or, under ``--stack``,
    one run per workload x named stack; every instrument flag applies
    to both."""
    names = list(args.workloads) + list(args.named_workloads)
    if args.run_all == bool(names):
        return _usage_error("run: name workloads or pass --all (not both)")
    stacks = None if args.stack is None else resolve_stack_list(args.stack)
    specs = (
        evaluation_workloads()
        if args.run_all
        else [get_workload(name) for name in names]
    )
    args.jobs = resolve_jobs(args.jobs)
    tracer = ring = profile = auditor = None
    if args.trace:
        tracer = Tracer()
        ring = EventRing(timestamps=True)
    if args.profile:
        profile = CycleProfile()
    if args.audit:
        auditor = Auditor(
            epoch=args.audit_epoch,
            every=resolve_count(args.audit_every, "--audit-every"),
        )
    if profile is not None or auditor is not None:
        # Attribution and auditing happen in-process on live runs only:
        # worker processes and cache hits carry neither, so these runs
        # are forced serial and bypass the result cache.
        if args.jobs > 1:
            print(
                "repro: --profile/--audit run serially; ignoring --jobs",
                file=sys.stderr,
            )
            args.jobs = 1
        args.no_cache = True
    engine = _make_engine(args)
    with closing(engine), instrumented(
        tracer=tracer, ring=ring, profile=profile, audit=auditor
    ):
        if stacks is None:
            results = run_all(
                specs, cold_start=args.cold_start, engine=engine
            )
        else:
            requests = [
                RunRequest(spec, stack=stack, cold_start=args.cold_start)
                for spec in specs
                for stack in stacks
            ]
            runs = [
                (request.spec.name, request.stack, result)
                for request, result in zip(
                    requests, engine.run_many(requests)
                )
            ]
    if stacks is None:
        _print_comparison(results, args.cold_start)
        runs = [
            (result.spec.name, label, run)
            for result in results
            for label, run in (
                ("baseline", result.baseline),
                ("memento", result.memento),
                ("memento_nobypass", result.memento_nobypass),
            )
        ]
    else:
        _print_stack_runs(runs, stacks, args.cold_start)
    if tracer is not None:
        print()
        print("Span tree")
        print("=========")
        print(render_span_tree(tracer.to_dict()))
    if profile is not None:
        payload = profile.to_dict()
        print()
        print("Cycle attribution")
        print("=================")
        print(render_profile(payload))
        print()
        print(render_top_consumers(payload))
        print()
        print(render_histograms(payload))
    if args.metrics:
        _export_metrics(args.metrics, runs, tracer, ring, profile)
    counters = engine.summary()
    hits = int(
        counters.get("engine.memo.hits", 0)
        + counters.get("engine.disk.hits", 0)
    )
    print(
        f"cache: {hits} hits, {int(counters.get('engine.misses', 0))} live "
        f"runs in {counters.get('engine.live_seconds', 0.0):.2f}s "
        f"(jobs={args.jobs})",
        file=sys.stderr,
    )
    if auditor is None:
        return 0
    print()
    print(
        f"audit: {auditor.checks} checks "
        f"({auditor.epoch} epoch), "
        f"{auditor.total_violations} violations"
    )
    for violation in auditor.violations:
        print(f"  {violation}")
    return 1 if auditor.total_violations else 0


def _print_diff_line(report) -> None:
    status = "ok" if report.ok else "DIVERGED"
    print(
        f"diff: {report.workload:<12} {report.stack:<8} "
        f"{report.events:>6} events  {status}"
    )
    if report.divergence is not None:
        print(f"  first divergence: {report.divergence}")
        if report.minimized_events is not None:
            print(
                f"  minimized prefix: {report.minimized_events} events "
                f"({report.minimized_divergence})"
            )
    for message in report.soundness[:5]:
        print(f"  bypass-soundness: {message}")
    for violation in report.invariant_findings[:5]:
        print(f"  invariant: {violation}")
    for mismatch in report.columnar_mismatches[:5]:
        print(f"  columnar: {mismatch}")


def cmd_audit(args: argparse.Namespace) -> int:
    """Standalone audit: an invariant-checked replay per workload/stack,
    plus the differential oracle under ``--diff``. Builds systems
    directly (no engine, no cache) so every leg is a live, instrumented
    run; exits 1 when anything is found."""
    import dataclasses
    import json

    from repro.audit.oracle import run_diff
    from repro.harness.system import SimulatedSystem

    names = list(args.workloads) + list(args.named_workloads)
    if args.audit_all and names:
        return _usage_error("audit: name workloads or pass --all (not both)")
    if args.audit_all:
        specs = all_workloads()
    else:
        specs = [get_workload(name) for name in (names or ["html"])]
    stacks = resolve_stack_list(args.stack)
    every = resolve_count(args.every, "--every")
    num_allocs = args.num_allocs or None
    if num_allocs is not None:
        limits.check("MAX_NUM_ALLOCS", "--num-allocs", num_allocs)
    findings = 0
    payload = {"legs": [], "num_allocs": num_allocs, "epoch": args.epoch}
    for spec in specs:
        resolved = spec.resolved()
        if num_allocs is not None:
            resolved = dataclasses.replace(resolved, num_allocs=num_allocs)
        for stack in stacks:
            auditor = Auditor(epoch=args.epoch, every=every)
            with instrumented(audit=auditor):
                SimulatedSystem(resolved, stack).run()
            leg = {
                "workload": spec.name,
                "stack": stack,
                "audit": auditor.summary(),
            }
            status = (
                "ok"
                if not auditor.total_violations
                else f"{auditor.total_violations} violations"
            )
            print(
                f"audit: {spec.name:<12} {stack:<8} "
                f"{auditor.checks:>5} checks  {status}"
            )
            for violation in auditor.violations[:5]:
                print(f"  {violation}")
            findings += auditor.total_violations
            if args.diff:
                report = run_diff(resolved, stack)
                _print_diff_line(report)
                leg["diff"] = report.to_dict()
                if not report.ok:
                    findings += 1
            payload["legs"].append(leg)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_out}")
    return 1 if findings else 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """One fleet simulation: profile shards through the engine, the
    arrival stream through the pool, the platform report to stdout."""
    import json

    args.jobs = resolve_jobs(args.jobs)
    stacks = resolve_stack_list(args.stacks, default=STACKS)
    request = FleetRequest(
        workloads=tuple(args.workloads or ()),
        mix=args.mix,
        invocations=args.invocations,
        duration_s=args.duration,
        pattern=args.pattern,
        seed=args.seed,
        epochs=args.epochs,
        keep_alive_s=args.keep_alive,
        policy=args.policy,
        max_warm=args.max_warm,
        profile_seeds=args.profile_seeds,
        invocation_allocs=args.allocs,
        stacks=stacks,
    )
    engine = _make_engine(args)
    recorder = ring = None
    if args.telemetry:
        from repro.fleet import FleetRecorder

        recorder = FleetRecorder()
        ring = EventRing(capacity=8192, sample_every=1)
    with closing(engine), instrumented(recorder=recorder, ring=ring):
        result = simulate_fleet(
            request,
            engine=engine,
            log=lambda message: print(message, file=sys.stderr),
        )
    print(render_fleet_report(result))
    print(f"fleet key: {result.fleet_key}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}", file=sys.stderr)
    if args.telemetry and recorder is not None:
        records = [
            {
                "kind": "fleet",
                "fleet_key": result.fleet_key,
                "seed": result.seed,
                "invocations": result.invocations,
                "duration_s": result.duration_s,
                "epochs": result.epochs,
                "dropped_instance_spans": recorder.dropped,
            }
        ]
        records.extend(recorder.records())
        if ring is not None:
            records.append(event_record(ring.to_dict()))
        write_jsonl(Path(args.telemetry), records)
        print(
            f"wrote {args.telemetry} ({len(records)} telemetry "
            "records)",
            file=sys.stderr,
        )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = JsonBackend(resolve_cache_dir(args.cache_dir))
    if args.action == "info":
        info = cache.info()
        rows = [
            [key, info[key]] for key in ("backend", "path", "entries", "bytes")
        ]
        rows.append(["source fingerprint", source_fingerprint()])
        rows.append(["cost-model fingerprint", cost_model_fingerprint()])
        print(render_table(["field", "value"], rows, title="result cache"))
    else:
        print(f"removed {cache.clear()} cache entries")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        ExperimentServer,
    )
    # Bad --jobs/--workers raise UsageError, which main reports with
    # exit 2 — the shared resolver owns the validation now.
    jobs = resolve_jobs(args.jobs)
    workers = resolve_workers(args.workers)
    port = DEFAULT_PORT if args.port is None else args.port
    if not 0 <= port <= 65535:
        return _usage_error(f"serve: port must be 0-65535, got {port}")
    host = DEFAULT_HOST if args.host is None else args.host
    if not host:
        return _usage_error("serve: host must be non-empty")

    engine = ExperimentEngine(
        cache_dir=args.cache_dir,
        jobs=jobs,
        use_disk_cache=False if args.no_cache else None,
    )
    server = ExperimentServer(
        host=host,
        port=port,
        engine=engine,
        workers=workers,
        log_requests=args.log_requests,
        telemetry_path=args.telemetry,
    )
    backend_kind = engine.disk.kind if engine.disk is not None else "none"
    print(
        f"repro serve: listening on {server.url} "
        f"(backend={backend_kind} workers={workers} jobs={jobs})",
        file=sys.stderr,
    )
    if args.telemetry:
        print(
            f"repro serve: appending job traces to {args.telemetry}",
            file=sys.stderr,
        )

    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    server.start()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("repro serve: shut down cleanly", file=sys.stderr)
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    traces = [generate_trace(spec) for spec in all_workloads()]
    sizes = size_distribution(traces)
    lifetimes = lifetime_distribution(traces)
    print(render_grouped(
        SIZE_BIN_LABELS,
        {"% of allocations": [s * 100 for s in sizes]},
        title="Fig. 2 — allocation sizes (all workloads)",
        value_fmt=".1f",
    ))
    print()
    print(render_grouped(
        LIFETIME_BIN_LABELS,
        {"% of allocations": [x * 100 for x in lifetimes]},
        title="Fig. 3 — lifetimes (all workloads)",
        value_fmt=".1f",
    ))
    print()
    cells = joint_size_lifetime(traces)
    print(render_table(
        ["cell", "fraction"],
        sorted(cells.items()),
        title="Table 1 — joint size x lifetime",
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    result = SWEEPS[args.name]()
    if isinstance(result, dict) and all(
        isinstance(v, dict) for v in result.values()
    ):
        headers = ["key"] + sorted(
            {k for v in result.values() for k in v}
        )
        rows = [
            [key] + [value.get(col, "") for col in headers[1:]]
            for key, value in result.items()
        ]
        print(render_table(headers, rows, title=f"sweep: {args.name}"))
    else:
        print(render_table(
            ["metric", "value"], sorted(result.items()),
            title=f"sweep: {args.name}",
        ))
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    model = EnergyModel()
    report = model.report(run_workload(get_workload(args.workload)))
    print(render_table(
        ["metric", "value"],
        [
            [k, f"{v:.3e}" if k.endswith("_j") else f"{v:.4f}"]
            for k, v in report.items()
        ],
        title=f"Memory-management energy: {args.workload}",
    ))
    return 0


# -- repro obs ----------------------------------------------------------------


def _ledger_at(path: Optional[str]) -> RunLedger:
    if path is not None:
        return RunLedger(Path(path))
    return RunLedger(default_ledger_path(resolve_cache_dir()))


def cmd_obs_report(args: argparse.Namespace) -> int:
    last = resolve_count(args.last, "last", default=20)
    ledger = _ledger_at(args.ledger)
    printed = False
    all_entries, skipped = ledger.read_classified()
    if skipped:
        print(
            f"WARNING: skipped {skipped} ledger line(s) with an unknown "
            "schema (written by a different repro version)",
            file=sys.stderr,
        )
    run_entries, fleet_entries = split_fleet_entries(all_entries)
    entries = run_entries[-last:]
    if entries:
        rows = [
            [
                entry.get("workload", "?"),
                entry.get("stack", "?"),
                entry.get("source", "?"),
                f"{entry.get('elapsed_s', 0.0):.2f}",
                f"{entry.get('total_cycles') or 0:,.0f}",
                entry.get("counter_digest", ""),
            ]
            for entry in entries
        ]
        print(render_table(
            ["workload", "stack", "source", "elapsed s", "total cycles",
             "digest"],
            rows,
            title=f"run ledger: last {len(entries)} of "
            f"{len(run_entries)} ({ledger.path})",
        ))
        conflicts = sum(
            row["digest_drift"] for row in trend_by_key(run_entries)
        )
        if conflicts:
            print(
                "WARNING: counter digests disagree for "
                f"{conflicts} content key(s) — "
                "nondeterministic replay or stale fingerprints"
            )
        printed = True
    fleet_shown = fleet_entries[-last:]
    if fleet_shown:
        if printed:
            print()
        fleet_rows = []
        for entry in fleet_shown:
            stacks = entry.get("stacks") or {}
            cold = "/".join(
                f"{stacks[name].get('cold_start_p95_ms', 0.0):.1f}"
                for name in sorted(stacks)
            )
            stranded = "/".join(
                f"{stacks[name].get('stranded_gb_s', 0.0):.2f}"
                for name in sorted(stacks)
            )
            fleet_rows.append([
                str(entry.get("key", "?"))[:16],
                f"{entry.get('invocations') or 0:,}",
                ",".join(sorted(stacks)),
                cold or "-",
                stranded or "-",
                entry.get("metrics_digest", ""),
            ])
        print(render_table(
            ["fleet key", "invocations", "stacks", "cold p95 ms",
             "stranded GB·s", "digest"],
            fleet_rows,
            title=f"fleet executions: last {len(fleet_shown)} of "
            f"{len(fleet_entries)}",
        ))
        conflicted = {
            row["scenario"]
            for row in fleet_trend(fleet_entries)
            if row["digest_drift"]
        }
        if conflicted:
            print(
                "WARNING: fleet metrics digests disagree for "
                f"{len(conflicted)} fleet scenario(s) — the seeded "
                "simulation is not bit-stable"
            )
        printed = True
    if args.metrics:
        records = read_jsonl(Path(args.metrics))
        runs = [r for r in records if r.get("kind") == "run"]
        if runs:
            if printed:
                print()
            print(render_table(
                ["workload", "stack", "total cycles", "sim seconds",
                 "dram MB"],
                [
                    [
                        run.get("workload", "?"),
                        run.get("stack", "?"),
                        f"{run.get('total_cycles') or 0:,.0f}",
                        f"{run.get('seconds') or 0.0:.6f}",
                        f"{(run.get('dram_bytes') or 0) / 1e6:.2f}",
                    ]
                    for run in runs
                ],
                title=f"metric runs ({args.metrics})",
            ))
            printed = True
        for record in records:
            if record.get("kind") == "spans" and record.get("spans"):
                print()
                print("Span tree")
                print("=========")
                print(render_span_tree({"spans": record["spans"]}))
                printed = True
            elif record.get("kind") == "events" and record.get("counts"):
                print()
                print(render_table(
                    ["event", "count"],
                    sorted(record["counts"].items()),
                    title="sampled hardware events",
                ))
                printed = True
    if not printed:
        print("nothing to report: no ledger entries or metric records")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    old_path, new_path = Path(args.old), Path(args.new)
    old, new = read_jsonl(old_path), read_jsonl(new_path)
    old_runs = {
        (r.get("workload"), r.get("stack")): r
        for r in old if r.get("kind") == "run"
    }
    new_runs = {
        (r.get("workload"), r.get("stack")): r
        for r in new if r.get("kind") == "run"
    }
    keys = sorted(set(old_runs) & set(new_runs))
    if not keys:
        return _usage_error(
            "obs diff: no overlapping run records (both operands must be "
            "metrics JSONL from `repro run --metrics`)"
        )
    rows = []
    for key in keys:
        o, n = old_runs[key], new_runs[key]
        o_cycles = o.get("total_cycles") or 0
        n_cycles = n.get("total_cycles") or 0
        same = o.get("counters", {}) == n.get("counters", {})
        rows.append([
            f"{key[0]}/{key[1]}",
            f"{o_cycles:,.0f}",
            f"{n_cycles:,.0f}",
            f"{(n_cycles / o_cycles - 1) * 100:+.2f}%" if o_cycles else "n/a",
            "yes" if same else "NO",
        ])
    print(render_table(
        ["workload/stack", "old cycles", "new cycles", "delta",
         "counters equal"],
        rows,
        title=f"metrics diff: {new_path.name} vs {old_path.name}",
    ))
    return 0


def cmd_obs_profile(args: argparse.Namespace) -> int:
    records = read_jsonl(Path(args.metrics))
    profiles = [r for r in records if r.get("kind") == "profile"]
    if not profiles:
        raise ValueError(
            f"obs profile: no profile records in {args.metrics} "
            "(export one with `repro run --profile --metrics PATH`)"
        )
    for payload in profiles:
        print("Cycle attribution")
        print("=================")
        print(render_profile(payload))
        print()
        print(render_top_consumers(payload, top=args.top))
        if payload.get("histograms"):
            print()
            print(render_histograms(payload))
    return 0


def cmd_obs_timeline(args: argparse.Namespace) -> int:
    records = read_jsonl(Path(args.metrics))
    relevant = [
        r for r in records
        if r.get("kind")
        in ("spans", "events", "fleet.instance", "fleet.epoch")
    ]
    if not relevant:
        raise ValueError(
            f"obs timeline: no span, event, or fleet records in "
            f"{args.metrics} (export them with `repro run --trace "
            "--metrics PATH` or `repro fleet run --telemetry PATH`)"
        )
    try:
        out = export_timeline(Path(args.out), relevant)
    except ValueError as exc:
        return _usage_error(f"obs timeline: {args.metrics}: {exc}")
    import json

    events = json.loads(out.read_text(encoding="utf-8"))["traceEvents"]
    print(
        f"wrote {out} ({len(events)} trace events) — open at "
        "https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def cmd_obs_trend(args: argparse.Namespace) -> int:
    ledger = _ledger_at(args.ledger)
    report = check_trend(ledger)
    fleet_report = check_fleet_trend(ledger)
    if not report["entries"] and not fleet_report["entries"]:
        print(f"obs trend: ledger has no entries ({ledger.path})")
        return 0
    if report["entries"]:
        print(render_trend(report))
    if fleet_report["entries"]:
        print()
        print(
            f"Fleet trend ({fleet_report['entries']} ledger entries)"
        )
        print(render_fleet_trend(fleet_report))
    ok = report["ok"] and fleet_report["ok"]
    if ok:
        print("obs trend: ok")
        return 0
    if args.report_only:
        print("obs trend: drift found (report-only mode)")
        return 0
    print("obs trend: FAILED", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        # Bad runtime options (a zero --jobs, an unparsable $REPRO_JOBS)
        # are usage errors: same one-line report, exit code 2.
        return _usage_error(str(exc))
    except _REPORTED_ERRORS as exc:
        # An OSError's first argument is its errno; its str() carries
        # the errno text and the path.
        if isinstance(exc, OSError) or not exc.args:
            message = str(exc)
        else:
            message = exc.args[0]
        print(f"repro: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
