"""Experiment harness: replay traces on baseline or Memento systems."""

from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    cost_model_fingerprint,
    get_default_engine,
    set_default_engine,
)
from repro.harness.experiment import (
    WorkloadResult,
    run_all,
    run_workload,
    workload_requests,
)
from repro.harness.system import RunResult, SimulatedSystem

__all__ = [
    "ExperimentEngine",
    "RunRequest",
    "RunResult",
    "SimulatedSystem",
    "WorkloadResult",
    "cost_model_fingerprint",
    "get_default_engine",
    "run_all",
    "run_workload",
    "set_default_engine",
    "workload_requests",
]
