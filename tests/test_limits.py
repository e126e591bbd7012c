"""Work bounds: one request may ask for only so much simulation.

Every limit is named once in :mod:`repro.limits`; the ``RunRequest`` and
``FleetRequest`` constructors, the wire decoders (HTTP 400) and the CLI
(exit 2) refuse the same requests, with a message naming the limit. The
limits must still admit every workload of the registry, the benchmark
and the README.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import limits
from repro.cli import main
from repro.fleet import FleetRequest
from repro.harness.engine import RunRequest, machine_params_from_dict
from repro.service.wire import (
    WireError,
    fleet_request_from_wire,
    run_request_from_wire,
)
from repro.sim.params import CacheParams, MachineParams, TlbParams
from repro.stacks import stack_names
from repro.workloads.registry import all_workloads, get_workload

#: The benchmark's request shapes (``perfbench/fleets.py`` and
#: ``perfbench/traffic.py``): fleet_cold, fleet_warm, the pinned fleet.
BENCH_WORKLOADS = ("html", "jd", "US", "html-go")
BENCH_FLEETS = ((10_000, 600), (100_000, 200), (1_000, 200))


def test_limits_admit_every_registered_workload():
    for spec in all_workloads():
        for stack in stack_names():
            RunRequest(spec, stack=stack)
        RunRequest(
            spec, machine_params=MachineParams().with_iso_storage_l1d()
        )


def test_limits_admit_the_benchmark_and_readme_requests():
    for invocations, allocs in BENCH_FLEETS:
        FleetRequest(
            workloads=BENCH_WORKLOADS,
            invocations=invocations,
            invocation_allocs=allocs,
            stacks=tuple(stack_names()),
        )
    for name in BENCH_WORKLOADS:
        RunRequest(replace(get_workload(name), num_allocs=2_000))
    # README: `repro fleet run --invocations 1000000 --seed 42`.
    FleetRequest(invocations=1_000_000, seed=42)
    FleetRequest(invocations=200_000, policy="lru", max_warm=8)


@pytest.mark.parametrize(
    "build, limit",
    [
        (lambda: FleetRequest(invocations=10**400), "MAX_INVOCATIONS"),
        (lambda: FleetRequest(epochs=10**5), "MAX_EPOCHS"),
        (lambda: FleetRequest(profile_seeds=10**3), "MAX_PROFILE_SEEDS"),
        (lambda: FleetRequest(invocation_allocs=10**7), "MAX_NUM_ALLOCS"),
        (
            lambda: FleetRequest(
                machine_params=MachineParams(num_cores=10**9)
            ),
            "MAX_NUM_CORES",
        ),
        (
            lambda: RunRequest(
                replace(get_workload("html"), num_allocs=10**12)
            ),
            "MAX_NUM_ALLOCS",
        ),
        (
            lambda: RunRequest(replace(get_workload("html"), phases=10**6)),
            "MAX_PHASES",
        ),
        (
            lambda: RunRequest(
                replace(get_workload("html"), large_max=1 << 40)
            ),
            "MAX_LARGE_BYTES",
        ),
        (
            lambda: RunRequest(
                replace(get_workload("html"), extra_touch_lines=10**6)
            ),
            "MAX_EXTRA_TOUCH_LINES",
        ),
        (
            lambda: RunRequest(
                replace(get_workload("html"), startup_size_multiplier=1e6)
            ),
            "MAX_STARTUP_SIZE_MULTIPLIER",
        ),
        (
            lambda: RunRequest(
                get_workload("html"),
                machine_params=MachineParams(
                    llc=CacheParams(1 << 40, 16, 40)
                ),
            ),
            "MAX_SETS",
        ),
        (
            lambda: RunRequest(
                get_workload("html"),
                machine_params=MachineParams(tlb_l2=TlbParams(10**9, 1)),
            ),
            "MAX_SETS",
        ),
    ],
)
def test_constructors_name_the_limit_exceeded(build, limit):
    with pytest.raises(limits.LimitError, match=limit):
        build()


def test_the_largest_admitted_values_pass():
    FleetRequest(
        invocations=limits.MAX_INVOCATIONS,
        epochs=limits.MAX_EPOCHS,
        profile_seeds=limits.MAX_PROFILE_SEEDS,
        invocation_allocs=limits.MAX_NUM_ALLOCS,
        machine_params=MachineParams(num_cores=limits.MAX_NUM_CORES),
    )
    with pytest.raises(limits.LimitError, match="MAX_INVOCATIONS"):
        FleetRequest(invocations=limits.MAX_INVOCATIONS + 1)


@pytest.mark.parametrize(
    "decode, payload, limit",
    [
        (fleet_request_from_wire, {"invocations": 10**400}, "MAX_INVOCATIONS"),
        (
            fleet_request_from_wire,
            {"machine_params": {"num_cores": 10**9}},
            "MAX_NUM_CORES",
        ),
        (
            run_request_from_wire,
            {"workload": "html", "stack": "baseline",
             "machine_params": {"num_cores": 10**9}},
            "MAX_NUM_CORES",
        ),
        (
            run_request_from_wire,
            {"workload": "html", "stack": "baseline",
             "spec_overrides": {"num_allocs": 10**12}},
            "MAX_NUM_ALLOCS",
        ),
    ],
)
def test_wire_decoders_reject_work_beyond_a_limit(decode, payload, limit):
    with pytest.raises(WireError, match=limit) as info:
        decode(payload)
    # A 400-digit integer is named by its size, not echoed.
    assert len(str(info.value)) < 200


L1D = {"size_bytes": 32 * 1024, "ways": 8, "latency": 2, "line_size": 64}
TLB_L1 = {"entries": 64, "ways": 4}


@pytest.mark.parametrize(
    "machine, field",
    [
        ({"num_cores": 0}, "num_cores"),
        ({"num_cores": -3}, "num_cores"),
        ({"num_cores": -(10**400)}, "num_cores"),
        ({"l1d": dict(L1D, ways=0)}, "l1d ways"),
        ({"l1d": dict(L1D, line_size=0)}, "l1d line_size"),
        ({"l1d": dict(L1D, line_size=-64)}, "l1d line_size"),
        ({"llc": dict(L1D, ways=-1)}, "llc ways"),
        ({"tlb_l1": dict(TLB_L1, ways=0)}, "tlb_l1 ways"),
        ({"tlb_l2": {"entries": 2048, "ways": 0}}, "tlb_l2 ways"),
    ],
)
def test_machine_counts_below_one_are_refused(machine, field):
    # Each once decoded, then failed in execute() with an IndexError
    # (no core) or a ZeroDivisionError (no way, no line byte).
    for decode, payload in (
        (run_request_from_wire,
         {"workload": "html", "stack": "baseline", "machine_params": machine}),
        (fleet_request_from_wire, {"machine_params": machine}),
    ):
        with pytest.raises(WireError, match=f"{field} = .* at least 1") as info:
            decode(payload)
        assert len(str(info.value)) < 200
    with pytest.raises(limits.LimitError, match=field):
        RunRequest(
            get_workload("html"),
            machine_params=machine_params_from_dict(machine),
        )


def test_machine_counts_of_one_pass():
    one = CacheParams(64, 1, 1, line_size=1)
    RunRequest(
        get_workload("html"),
        machine_params=MachineParams(
            num_cores=1, l1d=one, l1i=one, l2=one, llc=one,
            tlb_l1=TlbParams(1, 1), tlb_l2=TlbParams(1, 1),
        ),
    )


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["fleet", "run", "--no-cache", "--invocations", "100000000"],
         "MAX_INVOCATIONS"),
        (["fleet", "run", "--no-cache", "--allocs", "10000000"],
         "MAX_NUM_ALLOCS"),
        (["fleet", "run", "--no-cache", "--epochs", "100000"], "MAX_EPOCHS"),
        (["audit", "--num-allocs", "10000000"], "MAX_NUM_ALLOCS"),
    ],
)
def test_cli_flags_beyond_a_limit_exit_2(argv, limit, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and limit in err
