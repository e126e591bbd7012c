"""``FleetRequest``: the declarative description of one fleet run.

This is the second member of the request hierarchy (after
:class:`~repro.harness.engine.RunRequest`) and the reason the wire
machinery lives in :mod:`repro.codec`: both types stamp the same
``schema_version`` conventions, reject unknown fields the same way, and
derive content keys through the same
:func:`repro.codec.content_key` — so ``repro fleet run``, ``repro.api``,
and ``POST /api/v1/fleets`` all describe a fleet with the exact same
payload and agree on its identity.

A fleet request says *what platform to simulate* — invocation volume and
window, arrival pattern, workload mix, pool policy — plus the per-
invocation knobs forwarded into the underlying ``RunRequest`` shards
(Memento config, machine parameters, allocation count).
Everything is seeded; the same request is bit-identical on every run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro import codec, limits
from repro.core.config import MementoConfig
from repro.fleet.arrival import MIXES, PATTERNS
from repro.fleet.pool import POLICIES
from repro.harness.engine import (
    config_from_dict,
    cost_model_fingerprint,
    drop_legacy_kernel,
    machine_params_from_dict,
    source_fingerprint,
)
from repro.sim.cycles import CostModel, DEFAULT_COSTS
from repro.sim.params import MachineParams
from repro.workloads.registry import FUNCTION_WORKLOADS, get_workload

#: Version stamped on every FleetRequest wire payload.
FLEET_SCHEMA_VERSION = 1

FLEET_CODEC = codec.VersionedCodec("FleetRequest", FLEET_SCHEMA_VERSION)

#: Default stack pair raced by a fleet request (the paper's two);
#: any registered stack (see :mod:`repro.stacks`) may be requested.
STACKS = ("baseline", "memento")

#: Cap on auto-derived epoch count (stranding-timeline resolution).
MAX_AUTO_EPOCHS = 48


@dataclass(frozen=True)
class FleetRequest:
    """Declarative description of one fleet simulation.

    Frozen and hashable like ``RunRequest``; the content key identifies
    the platform metrics this request reduces to.
    """

    #: Function names from the workload registry; empty means every
    #: function-category workload.
    workloads: Tuple[str, ...] = ()
    #: Invocation mix across those functions: ``azure`` (Zipf-like
    #: popularity skew) or ``uniform``.
    mix: str = "azure"
    #: Total invocations over the window.
    invocations: int = 10_000
    #: Simulated window length in seconds.
    duration_s: float = 3_600.0
    #: Arrival pattern: ``poisson`` or ``diurnal``.
    pattern: str = "poisson"
    #: Master seed; every arrival, assignment, and RunRequest shard
    #: derives from it.
    seed: int = 42
    #: Epoch shards (0 = derive from the invocation count).
    epochs: int = 0
    #: Idle keep-alive before an instance is reclaimed (0 = always cold).
    keep_alive_s: float = 600.0
    #: Pool policy: ``keepalive`` (TTL only) or ``lru`` (TTL + cap).
    policy: str = "keepalive"
    #: Fleet-wide cap on idle instances under ``lru`` (0 = unlimited).
    max_warm: int = 0
    #: Distinct per-function trace seeds cycled across epochs; more
    #: seeds = more trace diversity at more engine runs.
    profile_seeds: int = 2
    #: Allocation count per invocation trace (smaller than the paper
    #: harness default: a fleet samples many short invocations).
    invocation_allocs: int = 2_000
    #: Stacks to simulate; both by default so the report can compare.
    stacks: Tuple[str, ...] = STACKS
    config: MementoConfig = field(default_factory=MementoConfig)
    machine_params: MachineParams = field(default_factory=MachineParams)

    def __post_init__(self) -> None:
        if self.invocations < 1:
            raise ValueError("invocations must be >= 1")
        limits.check_finite("duration_s", self.duration_s)
        limits.check_finite("keep_alive_s", self.keep_alive_s)
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}"
            )
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown mix {self.mix!r}; choose from {MIXES}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )
        if self.keep_alive_s < 0:
            raise ValueError("keep_alive_s must be >= 0")
        if self.max_warm < 0:
            raise ValueError("max_warm must be >= 0 (0 = unlimited)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0 (0 = auto)")
        if self.profile_seeds < 1:
            raise ValueError("profile_seeds must be >= 1")
        if self.invocation_allocs < 1:
            raise ValueError("invocation_allocs must be >= 1")
        if not self.stacks:
            raise ValueError("stacks must name at least one stack")
        limits.check("MAX_INVOCATIONS", "invocations", self.invocations)
        limits.check("MAX_EPOCHS", "epochs", self.epochs)
        limits.check("MAX_PROFILE_SEEDS", "profile_seeds", self.profile_seeds)
        limits.check(
            "MAX_NUM_ALLOCS", "invocation_allocs", self.invocation_allocs
        )
        limits.check_machine(self.machine_params)
        from repro import stacks as stack_registry

        for stack in self.stacks:
            if stack not in stack_registry.stack_names():
                raise ValueError(
                    f"unknown stack {stack!r}; choose from "
                    f"{stack_registry.stack_names()}"
                )
        for name in self.workloads:
            try:
                get_workload(name)
            except KeyError:
                raise ValueError(f"unknown workload {name!r}") from None
        # Tolerate list inputs (wire payloads) for the tuple fields.
        if not isinstance(self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if not isinstance(self.stacks, tuple):
            object.__setattr__(self, "stacks", tuple(self.stacks))

    def resolved(self) -> "FleetRequest":
        """Fill derived defaults: the full function-workload list when
        ``workloads`` is empty, and an epoch count scaled to the
        invocation volume when ``epochs`` is 0."""
        updates: Dict[str, Any] = {}
        if not self.workloads:
            updates["workloads"] = tuple(
                spec.name for spec in FUNCTION_WORKLOADS
            )
        if self.epochs == 0:
            updates["epochs"] = max(
                4, min(MAX_AUTO_EPOCHS, self.invocations // 25_000 or 4)
            )
        return dataclasses.replace(self, **updates) if updates else self

    def content_key(self, cost_model: CostModel = DEFAULT_COSTS) -> str:
        """Stable content hash identifying this fleet's metrics.

        Shares the :func:`repro.codec.content_key` derivation (and the
        source/cost-model fingerprints) with ``RunRequest``: a request
        before and after :meth:`resolved` hashes identically.
        """
        body = codec.fields_of(self.resolved())
        # The retired replay-kernel field stays in the hashed body, so
        # every key written while it existed still matches.
        body["kernel"] = None
        return codec.content_key(
            body,
            schema=FLEET_SCHEMA_VERSION,
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(cost_model),
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        """Versioned wire form (the CLI/HTTP/api payload)."""
        return FLEET_CODEC.stamp(
            {
                "workloads": list(self.workloads),
                "mix": self.mix,
                "invocations": self.invocations,
                "duration_s": self.duration_s,
                "pattern": self.pattern,
                "seed": self.seed,
                "epochs": self.epochs,
                "keep_alive_s": self.keep_alive_s,
                "policy": self.policy,
                "max_warm": self.max_warm,
                "profile_seeds": self.profile_seeds,
                "invocation_allocs": self.invocation_allocs,
                "stacks": list(self.stacks),
                "config": dataclasses.asdict(self.config),
                "machine_params": dataclasses.asdict(self.machine_params),
            }
        )

    @classmethod
    def from_dict(cls, data: Any) -> "FleetRequest":
        """Parse a wire payload (tolerant version-0 reader and retired
        ``kernel`` field, unknown fields and newer schema versions
        rejected)."""
        body = FLEET_CODEC.open_into(cls, drop_legacy_kernel(data))
        codec.check_scalars(cls, body, FLEET_CODEC.label)
        if "workloads" in body:
            body["workloads"] = tuple(body["workloads"])
        if "stacks" in body:
            body["stacks"] = tuple(body["stacks"])
        if "config" in body:
            body["config"] = config_from_dict(body["config"])
        if "machine_params" in body:
            body["machine_params"] = machine_params_from_dict(
                body["machine_params"]
            )
        return cls(**body)
