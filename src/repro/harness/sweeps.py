"""Sensitivity studies and comparisons (§6.1 iso-storage, §6.6, §6.7).

Each study returns plain dicts/lists the benchmarks render; all runs are
deterministic. Studies that need many runs shrink the traces (the effects
under study are rate-based, not length-based).

Studies that replay complete, independent runs (populate, tuning,
coldstart, iso-storage, mallacc, ablation) are expressed as
:class:`~repro.harness.engine.RunRequest` batches on the shared
:class:`~repro.harness.engine.ExperimentEngine`, so they hit the same
persistent cache as every other entry point. The multi-process and
fragmentation studies genuinely need co-located systems or mid-run
sampling and keep constructing :class:`SimulatedSystem` directly.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import MementoConfig
from repro.core.page_allocator import HardwarePageAllocator
from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    get_default_engine,
)
from repro.harness.experiment import geometric_mean
from repro.harness.system import SimulatedSystem
from repro.kernel.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.params import MachineParams
from repro.workloads.functions import CPP_FUNCTIONS, PYTHON_FUNCTIONS
from repro.workloads.registry import FUNCTION_WORKLOADS, get_workload
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import Trace


def _shrunk(spec: WorkloadSpec, num_allocs: int = 8_000) -> WorkloadSpec:
    return replace(spec, num_allocs=num_allocs)


# -------------------------------------------------------------- §6.6 populate


def populate_study(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """MAP_POPULATE: eager backing vs demand paging on the baseline.

    Returns per-language speedup of populate over the lazy baseline and
    the physical-footprint ratio. The paper reports Go gaining ~3 % at an
    8.6x footprint (64 MB arena mmaps), Python/C++ near-zero gains at
    ~+9.6 % footprint.
    """
    specs = specs or [
        get_workload("html"),
        # Populate replaces demand paging; measure the C++ stack cold
        # (a warm heap has nothing left to populate).
        replace(get_workload("US"), warm_heap=False),
        get_workload("html-go"),
    ]
    engine = engine or get_default_engine()
    # Full-size traces: population cost amortizes over the heap the
    # function actually touches, which is what the study measures.
    requests = [
        RunRequest(spec, stack="baseline", mmap_populate=populate)
        for spec in specs
        for populate in (False, True)
    ]
    runs = engine.run_many(requests)
    out: Dict[str, Dict[str, float]] = {}
    for spec, (lazy, eager) in zip(specs, zip(runs[::2], runs[1::2])):
        out[spec.name] = {
            "language": spec.language,
            "speedup": lazy.total_cycles / eager.total_cycles,
            "footprint_ratio": eager.peak_pages / max(1, lazy.peak_pages),
        }
    return out


# ---------------------------------------------------------- §6.6 multi-process


def multiprocess_study(
    trials: int = 10,
    processes: int = 4,
    slice_events: int = 2_000,
    seed: int = 7,
) -> Dict[str, float]:
    """Four time-sharing function instances on one core (Memento).

    Measures the HOT-flush overhead that context switches add, relative
    to total execution — the paper calls it negligible.
    """
    rng = random.Random(seed)
    flush_fractions: List[float] = []
    switch_counts: List[float] = []
    for _ in range(trials):
        chosen = rng.sample(FUNCTION_WORKLOADS, processes)
        machine = Machine()
        kernel = Kernel(machine)
        config = MementoConfig()
        page_allocator = HardwarePageAllocator(kernel, config)
        systems = [
            SimulatedSystem(
                _shrunk(spec, num_allocs=3_000),
                stack="memento",
                memento_config=config,
                machine=machine,
                kernel=kernel,
                page_allocator=page_allocator,
            )
            for spec in chosen
        ]

        iterators = [
            (system, iter(generate_trace(system.spec))) for system in systems
        ]
        live = list(range(len(iterators)))
        current = -1
        while live:
            index = live[rng.randrange(len(live))]
            system, events = iterators[index]
            if index != current:
                kernel.context_switch(machine.core, system.process)
                current = index
            consumed = 0
            for event in events:
                system.step(event)
                consumed += 1
                if consumed >= slice_events:
                    break
            if consumed < slice_events:
                kernel.exit_process(machine.core, system.process)
                live.remove(index)
                current = -1
        flush_cycles = (
            machine.stats["memento.hot.flushes"]
            * machine.costs.hot_flush_per_entry
            * 64
        )
        total = machine.core.cycles
        flush_fractions.append(flush_cycles / total)
        switch_counts.append(machine.stats["kernel.context_switches"])
    return {
        "mean_flush_fraction": sum(flush_fractions) / len(flush_fractions),
        "max_flush_fraction": max(flush_fractions),
        "mean_context_switches": sum(switch_counts) / len(switch_counts),
    }


# ------------------------------------------------------------- §6.6 tuning


def tuning_study(
    arena_sizes: Sequence[int] = (256 * 1024, 1024 * 1024),
    engine: Optional[ExperimentEngine] = None,
):
    """Enlarge pymalloc's arena size: fewer mmaps, ~<1 % speedup change."""
    spec = _shrunk(get_workload("html"), num_allocs=12_000)
    engine = engine or get_default_engine()
    requests = [RunRequest(spec, stack="memento")] + [
        RunRequest(
            spec,
            stack="baseline",
            allocator="pymalloc",
            allocator_kwargs=(("arena_bytes", arena_bytes),),
        )
        for arena_bytes in arena_sizes
    ]
    memento, *baselines = engine.run_many(requests)
    out = {}
    for arena_bytes, baseline in zip(arena_sizes, baselines):
        out[arena_bytes] = {
            "speedup": baseline.total_cycles / memento.total_cycles,
            "mmap_calls": baseline.stats["kernel.syscall.mmap_calls"],
            "peak_pages": baseline.peak_pages,
        }
    return out


# -------------------------------------------------------- §6.6 fragmentation


def _stepped_samples(
    system: SimulatedSystem,
    trace: Trace,
    sample: Optional[Callable[[], float]],
) -> List[float]:
    """Step ``system`` through ``trace`` event by event, calling
    ``sample`` after every 5,000th event (none when it is None)."""
    samples: List[float] = []
    for count, event in enumerate(trace, 1):
        system.step(event)
        if sample is not None and count % 5_000 == 0:
            samples.append(sample())
    return samples


def fragmentation_study(
    specs: Optional[Sequence[WorkloadSpec]] = None,
) -> Dict[str, Dict[str, float]]:
    """Inactive arena-slot fraction under Memento vs software utilization.

    The paper measures ~3.68 % of HOT-managed slots inactive on average,
    within ±2 % of the software allocators.
    """
    specs = specs or [get_workload(n) for n in ("html", "aes", "US", "mk")]
    out = {}
    for spec in specs:
        small = spec  # full size: occupancy is scale-sensitive
        memento_system = SimulatedSystem(small, stack="memento")
        baseline_system = SimulatedSystem(small, stack="baseline")
        trace = generate_trace(memento_system.spec)
        # Measure occupancy mid-run (before exit releases everything).
        allocator = memento_system.runtime.context.object_allocator
        samples = _stepped_samples(
            memento_system, trace, allocator.occupancy_fraction
        )
        baseline_samples = _stepped_samples(
            baseline_system,
            trace,
            getattr(baseline_system.allocator, "utilization", None),
        )
        mean = lambda xs: sum(xs) / len(xs) if xs else 1.0  # noqa: E731
        out[spec.name] = {
            "memento_inactive": 1.0 - mean(samples),
            "software_inactive": 1.0 - mean(baseline_samples),
        }
    return out


# ------------------------------------------------------------ §6.6 cold start


def coldstart_study(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, float]:
    """Cold-started speedups (container setup included): 7-22 % paper."""
    specs = specs or FUNCTION_WORKLOADS
    engine = engine or get_default_engine()
    requests = [
        RunRequest(spec, stack=stack, cold_start=True)
        for spec in specs
        for stack in ("baseline", "memento")
    ]
    runs = engine.run_many(requests)
    return {
        spec.name: baseline.total_cycles / memento.total_cycles
        for spec, (baseline, memento) in zip(
            specs, zip(runs[::2], runs[1::2])
        )
    }


# --------------------------------------------------------- §6.1 iso-storage


def iso_storage_study(
    workload: str = "html",
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, float]:
    """Grant the HOT's SRAM to the L1D (9-way) instead of adding Memento.

    The paper sees ~3 % from the bigger L1D vs 28 % from Memento on dh.
    """
    spec = get_workload(workload)
    engine = engine or get_default_engine()
    baseline, bigger_l1, memento = engine.run_many([
        RunRequest(spec, stack="baseline"),
        RunRequest(
            spec,
            stack="baseline",
            machine_params=MachineParams().with_iso_storage_l1d(),
        ),
        RunRequest(spec, stack="memento"),
    ])
    return {
        "iso_storage_speedup": baseline.total_cycles / bigger_l1.total_cycles,
        "memento_speedup": baseline.total_cycles / memento.total_cycles,
    }


# ------------------------------------------------------------- §6.7 Mallacc


def mallacc_study(
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Idealized Mallacc vs Memento on the DeathStarBench C++ functions."""
    engine = engine or get_default_engine()
    requests = []
    for spec in CPP_FUNCTIONS:
        requests += [
            RunRequest(spec, stack="baseline"),
            RunRequest(spec, stack="baseline", allocator="mallacc"),
            RunRequest(spec, stack="memento"),
        ]
    runs = engine.run_many(requests)
    out = {}
    for index, spec in enumerate(CPP_FUNCTIONS):
        baseline, mallacc, memento = runs[index * 3:index * 3 + 3]
        out[spec.name] = {
            "mallacc_speedup": baseline.total_cycles / mallacc.total_cycles,
            "memento_speedup": baseline.total_cycles / memento.total_cycles,
        }
    out["avg"] = {
        "mallacc_speedup": geometric_mean(
            [v["mallacc_speedup"] for v in out.values()]
        ),
        "memento_speedup": geometric_mean(
            [v["memento_speedup"] for v in out.values()]
        ),
    }
    return out


# ----------------------------------------------------------------- ablations


def ablation_study(
    workload: str = "html",
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, float]:
    """Design-choice ablations from DESIGN.md §5: speedups vs baseline."""
    spec = get_workload(workload)
    engine = engine or get_default_engine()
    configs = {
        "full": MementoConfig(),
        "no_bypass": MementoConfig(bypass_enabled=False),
        "no_eager_refill": MementoConfig(eager_refill=False),
        "small_arenas_64": MementoConfig(objects_per_arena=64),
        "large_arenas_1024": MementoConfig(objects_per_arena=1024),
    }
    requests = [RunRequest(spec, stack="baseline")] + [
        RunRequest(spec, stack="memento", config=config)
        for config in configs.values()
    ]
    baseline, *treatments = engine.run_many(requests)
    return {
        name: baseline.total_cycles / run.total_cycles
        for name, run in zip(configs, treatments)
    }
