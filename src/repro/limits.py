"""Work bounds: the most simulation one request may ask for.

Every size that scales a request's time or memory has one named limit
here: the invocation count of a fleet, the trace and object sizes of a
workload spec, and the core count and set counts of the simulated
machine (a ``Machine`` builds one core per ``num_cores`` and one set
per cache and TLB set up front). The ``RunRequest`` and
``FleetRequest`` constructors check against them, so the wire decoders
(HTTP 400) and the CLI (exit 2, ``LimitError`` is a ``UsageError``)
refuse the same requests the Python API does, and every message names
the limit it exceeds. The machine counts the simulator indexes or
divides by (cores, ways, line size) must also be at least 1, the
clock frequency above 0, and a fleet's window and keep-alive finite.

Each limit sits well above anything the paper's workloads, the sweeps,
the benchmark and the README ask for (the README's largest fleet has
1,000,000 invocations; the largest workload, 40,000 allocations).
"""

from __future__ import annotations

import sys
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
    """A request outside a work limit: HTTP 400, or exit 2 on the CLI."""


def _shown(value: Any) -> str:
    """``value`` for a message: a wire integer may have hundreds of
    digits, so a huge one is named by its size."""
    if isinstance(value, int) and abs(value) > 10**15:
        sign = "-" if value < 0 else ""
        return f"{sign}~10**{int(value.bit_length() * 0.30103)}"
    return repr(value)


def check(limit: str, field: str, value: Any) -> None:
    """Raise :class:`LimitError` if ``value`` exceeds the module-level
    limit named ``limit``; ``field`` names what the request set."""
    bound = globals()[limit]
    if value > bound:
        raise LimitError(
            f"{field} = {_shown(value)} exceeds the work limit {limit} "
            f"({bound})"
        )


def check_positive(field: str, value: Any) -> None:
    """Raise :class:`LimitError` if ``value`` is below 1: a count the
    simulator indexes or divides by."""
    if value < 1:
        raise LimitError(f"{field} = {_shown(value)} must be at least 1")


def check_finite(field: str, value: Any) -> None:
    """Raise :class:`LimitError` unless ``value`` is a finite number
    (NaN, an infinity and an int past the float range are not): the
    same floats the wire decoders accept."""
    if not abs(value) <= sys.float_info.max:
        raise LimitError(f"{field} = {_shown(value)} must be a finite number")


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
    of a :class:`~repro.sim.params.MachineParams`, and the lower bounds
    of the counts the simulator indexes or divides by: at least one
    core, one way per level and one byte per cache line. The clock
    frequency, which converts cycles to seconds, must be above zero."""
    if not params.freq_hz > 0:
        raise LimitError(
            f"machine_params freq_hz = {_shown(params.freq_hz)} must be "
            "above 0"
        )
    check_positive("machine_params num_cores", params.num_cores)
    check("MAX_NUM_CORES", "machine_params num_cores", params.num_cores)
    for name in ("l1d", "l1i", "l2", "llc", "tlb_l1", "tlb_l2"):
        level = getattr(params, name)
        check_positive(f"machine_params {name} ways", level.ways)
        if name.startswith("tlb"):
            entries, ways = level.entries, level.ways
        else:
            check_positive(f"machine_params {name} line_size", level.line_size)
            entries, ways = level.size_bytes, level.line_size * level.ways
        check("MAX_SETS", f"machine_params {name} sets", entries // ways)
