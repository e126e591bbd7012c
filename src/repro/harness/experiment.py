"""Baseline-vs-Memento experiments and derived metrics.

``run_workload`` replays one workload on both stacks and derives every
per-workload metric the evaluation section reports: speedup (Fig. 8), the
savings breakdown (Fig. 9), bandwidth reduction (Fig. 10), memory usage
(Fig. 11), HOT hit rates (Fig. 12), and arena list-operation frequency
(Fig. 13). Runs execute through the shared
:class:`~repro.harness.engine.ExperimentEngine`, so results are memoized
in-process (the benchmark files all share one set of runs), persisted
across processes in the on-disk cache, and — via ``run_all(jobs=N)`` —
computed in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import MementoConfig
from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    get_default_engine,
)
from repro.harness.system import RunResult
from repro.sim.params import MachineParams
from repro.workloads.registry import (
    DATAPROC_WORKLOADS,
    FUNCTION_WORKLOADS,
    PLATFORM_WORKLOADS,
)
from repro.workloads.synth import WorkloadSpec


@dataclass
class WorkloadResult:
    """Baseline and Memento runs of one workload plus derived metrics.

    ``memento_nobypass`` is a third run with the main-memory bypass
    disabled; the bypass mechanism's contribution is measured as the
    marginal gain of enabling it (ablation attribution, matching how a
    combined figure like Fig. 9 separates an otherwise-entangled
    mechanism).
    """

    spec: WorkloadSpec
    baseline: RunResult
    memento: RunResult
    memento_nobypass: RunResult

    # -- Fig. 8 -------------------------------------------------------------

    @property
    def speedup(self) -> float:
        return self.baseline.total_cycles / self.memento.total_cycles

    # -- Fig. 9 -------------------------------------------------------------

    def savings(self) -> Dict[str, float]:
        """Cycles saved per mechanism (may be slightly negative when a
        category grew; the breakdown clamps at zero like the figure)."""
        base, mem = self.baseline.cycles, self.memento.cycles

        def get(cycles: Dict[str, float], *keys: str) -> float:
            return sum(cycles.get(key, 0.0) for key in keys)

        bypass_gain = (
            self.memento_nobypass.total_cycles - self.memento.total_cycles
        )
        return {
            "obj-alloc": get(base, "user_alloc")
            - get(mem, "hw_alloc", "user_alloc"),
            "obj-free": get(base, "user_free")
            - get(mem, "hw_free", "user_free"),
            "page-mgmt": get(base, "kernel_page", "walk")
            - get(mem, "hw_page", "kernel_page", "walk"),
            "bypass": bypass_gain,
        }

    def breakdown(self) -> Dict[str, float]:
        """Fractional Fig. 9 breakdown (sums to 1 over positive savings)."""
        savings = {k: max(0.0, v) for k, v in self.savings().items()}
        total = sum(savings.values())
        if total == 0:
            return {key: 0.0 for key in savings}
        return {key: value / total for key, value in savings.items()}

    # -- Fig. 10 ------------------------------------------------------------

    @property
    def bandwidth_reduction(self) -> float:
        """Fraction of baseline DRAM traffic Memento eliminated."""
        if self.baseline.dram_bytes == 0:
            return 0.0
        return 1.0 - self.memento.dram_bytes / self.baseline.dram_bytes

    @property
    def bypass_bandwidth_share(self) -> float:
        """The share of baseline traffic saved by main-memory bypass."""
        if self.baseline.dram_bytes == 0:
            return 0.0
        return (self.memento.bypassed_lines * 64) / self.baseline.dram_bytes

    # -- Fig. 11 ------------------------------------------------------------

    def memory_usage_ratios(self) -> Dict[str, float]:
        """Normalized aggregate memory usage (Memento / baseline)."""
        base, mem = self.baseline, self.memento

        def ratio(m: float, b: float) -> float:
            return m / b if b else 1.0

        return {
            "user": ratio(mem.user_pages_aggregate, base.user_pages_aggregate),
            "kernel": ratio(
                mem.kernel_pages_aggregate, base.kernel_pages_aggregate
            ),
            "total": ratio(
                mem.total_pages_aggregate, base.total_pages_aggregate
            ),
        }

    # -- Table 2 ------------------------------------------------------------

    def user_kernel_split(self) -> Dict[str, float]:
        """Baseline memory-management cycle split (Table 2)."""
        cycles = self.baseline.cycles
        user = cycles.get("user_alloc", 0) + cycles.get("user_free", 0)
        kernel = cycles.get("kernel_page", 0) + cycles.get("walk", 0)
        total = user + kernel
        if total == 0:
            return {"user": 0.0, "kernel": 0.0}
        return {"user": user / total, "kernel": kernel / total}

    @property
    def mm_fraction_of_runtime(self) -> float:
        """Share of baseline runtime spent in memory management."""
        return self.baseline.mm_cycles / self.baseline.total_cycles

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serializable summary: the three raw runs in their
        :meth:`RunResult.to_dict` round-trip form plus every derived
        metric the figures consume, so reporting code reads one dict
        instead of poking fields."""
        return {
            "workload": self.spec.name,
            "language": self.spec.language,
            "category": self.spec.category,
            "baseline": self.baseline.to_dict(),
            "memento": self.memento.to_dict(),
            "memento_nobypass": self.memento_nobypass.to_dict(),
            "speedup": self.speedup,
            "savings": self.savings(),
            "breakdown": self.breakdown(),
            "bandwidth_reduction": self.bandwidth_reduction,
            "bypass_bandwidth_share": self.bypass_bandwidth_share,
            "memory_usage_ratios": self.memory_usage_ratios(),
            "user_kernel_split": self.user_kernel_split(),
            "mm_fraction_of_runtime": self.mm_fraction_of_runtime,
        }


def workload_requests(
    spec: WorkloadSpec,
    cold_start: bool = False,
    config: Optional[MementoConfig] = None,
    machine_params: Optional[MachineParams] = None,
) -> List[RunRequest]:
    """The baseline / Memento / no-bypass request trio for one workload."""
    config = config or MementoConfig()
    machine_params = machine_params or MachineParams()
    common: Dict[str, Any] = {
        "machine_params": machine_params,
        "cold_start": cold_start,
    }
    return [
        RunRequest(spec, stack="baseline", config=config, **common),
        RunRequest(spec, stack="memento", config=config, **common),
        RunRequest(
            spec,
            stack="memento",
            config=replace(config, bypass_enabled=False),
            **common,
        ),
    ]


def run_workload(
    spec: WorkloadSpec,
    *,
    cold_start: bool = False,
    config: Optional[MementoConfig] = None,
    machine_params: Optional[MachineParams] = None,
    engine: Optional[ExperimentEngine] = None,
) -> WorkloadResult:
    """Run (or recall) the baseline + Memento + no-bypass trio.

    ``config``/``machine_params``/``cold_start`` are keyword-only, so
    non-default configurations flow into the engine's content key (and
    therefore share the cache) instead of silently falling outside the
    memoized path.
    """
    engine = engine or get_default_engine()
    baseline, memento, nobypass = engine.run_many(
        workload_requests(spec, cold_start, config, machine_params)
    )
    return WorkloadResult(
        spec=spec,
        baseline=baseline,
        memento=memento,
        memento_nobypass=nobypass,
    )


def evaluation_workloads() -> List[WorkloadSpec]:
    """The full evaluation: functions, data processing, platform."""
    return FUNCTION_WORKLOADS + DATAPROC_WORKLOADS + PLATFORM_WORKLOADS


def run_all(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    *,
    cold_start: bool = False,
    config: Optional[MementoConfig] = None,
    machine_params: Optional[MachineParams] = None,
    engine: Optional[ExperimentEngine] = None,
    jobs: Optional[int] = None,
) -> List[WorkloadResult]:
    """Run every workload (functions + data proc + platform by default).

    The whole batch is handed to the engine at once, so with ``jobs > 1``
    independent runs fan out across worker processes.
    """
    if specs is None:
        specs = evaluation_workloads()
    engine = engine or get_default_engine()
    requests: List[RunRequest] = []
    for spec in specs:
        requests.extend(
            workload_requests(spec, cold_start, config, machine_params)
        )
    results = engine.run_many(requests, jobs=jobs)
    return [
        WorkloadResult(
            spec=spec,
            baseline=results[i],
            memento=results[i + 1],
            memento_nobypass=results[i + 2],
        )
        for spec, i in zip(specs, range(0, len(results), 3))
    ]


def geometric_mean(values: Sequence[float]) -> float:
    """Geomean accumulated in log space, immune to overflow/underflow
    of the running product on long result lists."""
    if not values:
        raise ValueError("geometric mean of no values")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geometric mean requires positive values, got {value!r}"
            )
        total += math.log(value)
    return math.exp(total / len(values))
