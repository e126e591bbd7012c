"""The repository benchmark: fleet and service workloads, timed from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_cold --seed 1 --seconds 30 --trace 0

Workloads: ``fleet_cold``, ``fleet_warm`` and ``service_mixed`` (see
``perfbench/README.md`` for why each exists and what it should move).
``--trace 0`` times the program as it ships and reports the end-to-end
metrics, every time corrected for host speed (``hostspeed.py``);
``--trace 1`` is a separate run that wraps each module's public
functions and reports the per-layer metrics. Every run works in a
private directory under ``.perfbench-tmp/`` and never reads or writes
the repository's result cache.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit, the error rate, and the
resolved execution settings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("synth.generate_calls", "count"),
    ("synth.generate_s", "s"),
    ("synth.unique_ratio", "ratio"),
    ("trace.pack_calls", "count"),
    ("trace.pack_s", "s"),
    ("system.build_calls", "count"),
    ("system.build_s", "s"),
    ("system.run_self_s", "s"),
    ("system.events_per_s", "1/s"),
    ("engine.requests", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.key_s", "s"),
    ("engine.codec_s", "s"),
    ("engine.self_s", "s"),
    ("engine.shard_p50_ms", "ms"),
    ("engine.shard_p95_ms", "ms"),
    ("backend.get_calls", "count"),
    ("backend.get_s", "s"),
    ("backend.put_calls", "count"),
    ("backend.put_s", "s"),
    ("ledger.append_calls", "count"),
    ("ledger.append_s", "s"),
    ("fleet.arrival_s", "s"),
    ("pool.invoke_calls", "count"),
    ("pool.invoke_s", "s"),
    ("pool.finish_s", "s"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p95_ms", "ms"),
    ("service.run_p50_ms", "ms"),
    ("service.http_p50_ms", "ms"),
    ("service.polls_per_job", "count"),
    ("service.rejected", "count"),
    ("service.queue_wait_s", "s"),
    ("service.http_s", "s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)

WORKLOADS = ("fleet_cold", "fleet_warm", "service_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic() -> None:
    """Run on defaults only: no cache location, backend, job count,
    kernel or ledger switch inherited from the environment (the server
    child inherits the cleaned environment too)."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))


def resolved_kernel() -> str:
    """The replay kernel runs use; ``scalar`` where the program has no
    kernel choice."""
    try:
        from repro.harness import vector_kernel
    except ImportError:
        return "scalar"
    return vector_kernel.resolve_kernel(None)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    hermetic()

    import common
    import fleets
    import traffic

    run = {
        "fleet_cold": fleets.fleet_cold,
        "fleet_warm": fleets.fleet_warm,
        "service_mixed": traffic.service_mixed,
    }[args.workload]
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(common.RUN_DIR, ignore_errors=True)
        try:
            common.SCRATCH.rmdir()
        except OSError:
            pass

    names = PER_LAYER if args.trace else END_TO_END
    if set(outcome.metrics) - {name for name, _ in names}:
        raise RuntimeError(f"unlisted metrics {sorted(outcome.metrics)}")
    metrics = {
        name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
        for name, unit in names
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel": resolved_kernel(),
        "error_rate": outcome.failed / outcome.attempted,
        **outcome.info,
    }
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:>16.6f} {entry['unit']}")
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
