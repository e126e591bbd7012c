"""Work bounds: the most simulation one request may ask for.

Every size that scales a request's time or memory has one named limit
here: the invocation count of a fleet, the trace and object sizes of a
workload spec, and the core count and set counts of the simulated
machine (a ``Machine`` builds one core per ``num_cores`` and one set
per cache and TLB set up front). The ``RunRequest`` and
``FleetRequest`` constructors check against them, so the wire decoders
(HTTP 400) and the CLI (exit 2, ``LimitError`` is a ``UsageError``)
refuse the same requests the Python API does, and every message names
the limit it exceeds.

Each limit sits well above anything the paper's workloads, the sweeps,
the benchmark and the README ask for (the README's largest fleet has
1,000,000 invocations; the largest workload, 40,000 allocations).
"""

from __future__ import annotations

from typing import Any

from repro.resolve import UsageError

#: Invocations in one fleet (the README runs 1,000,000).
MAX_INVOCATIONS = 10_000_000
#: Allocations in one trace: a spec's ``num_allocs`` and a fleet's
#: ``invocation_allocs`` (the largest workload has 40,000).
MAX_NUM_ALLOCS = 1_000_000
#: Lines touched per object beyond its own span (registry: 0).
MAX_EXTRA_TOUCH_LINES = 4_096
#: Bytes of the largest large buffer (registry: 64 KiB).
MAX_LARGE_BYTES = 16 << 20
#: Phases of one trace (registry: 16).
MAX_PHASES = 10_000
#: Growth of allocation sizes during container start-up (registry: 1.7).
MAX_STARTUP_SIZE_MULTIPLIER = 64.0
#: Epochs of one fleet's stranding timeline (automatic: at most 48).
MAX_EPOCHS = 10_000
#: Trace-seed variants of one fleet; each is one more run per workload
#: and stack.
MAX_PROFILE_SEEDS = 64
#: Cores of the simulated machine (Table 3 uses one).
MAX_NUM_CORES = 64
#: Sets of one cache or TLB level (the default LLC has 2,048).
MAX_SETS = 1 << 16


class LimitError(UsageError):
    """A request beyond a work limit: HTTP 400, or exit 2 on the CLI."""


def check(limit: str, field: str, value: Any) -> None:
    """Raise :class:`LimitError` if ``value`` exceeds the module-level
    limit named ``limit``; ``field`` names what the request set."""
    bound = globals()[limit]
    if value > bound:
        # A wire integer may have hundreds of digits: name its size.
        shown = (
            f"~10**{int(value.bit_length() * 0.30103)}"
            if isinstance(value, int) and value > 10**15
            else repr(value)
        )
        raise LimitError(
            f"{field} = {shown} exceeds the work limit {limit} ({bound})"
        )


def check_spec(spec: Any) -> None:
    """The size fields of a :class:`~repro.workloads.synth.WorkloadSpec`."""
    for limit, field in (
        ("MAX_NUM_ALLOCS", "num_allocs"),
        ("MAX_EXTRA_TOUCH_LINES", "extra_touch_lines"),
        ("MAX_LARGE_BYTES", "large_max"),
        ("MAX_PHASES", "phases"),
        ("MAX_STARTUP_SIZE_MULTIPLIER", "startup_size_multiplier"),
    ):
        check(limit, f"spec {field}", getattr(spec, field))


def check_machine(params: Any) -> None:
    """The core count and the set count of every cache and TLB level
    of a :class:`~repro.sim.params.MachineParams`."""
    check("MAX_NUM_CORES", "machine_params num_cores", params.num_cores)
    for name in ("l1d", "l1i", "l2", "llc", "tlb_l1", "tlb_l2"):
        level = getattr(params, name)
        if name.startswith("tlb"):
            entries, ways = level.entries, level.ways
        else:
            entries, ways = level.size_bytes, level.line_size * level.ways
        sets = entries // max(1, ways)
        check("MAX_SETS", f"machine_params {name} sets", sets)
