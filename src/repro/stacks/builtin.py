"""The four registered stacks: the paper's two plus two rivals.

``baseline`` and ``memento`` are pure extractions of the pre-registry
boolean — they charge nothing, so every replay is bit-identical to the
harness before stacks existed (pinned by the golden fixtures,
the lockstep kernel suite, and the differential oracle).

``snapshot`` and ``reclaim`` model the related work's rival answers:

* **snapshot** (REAP-style, vHive): the cold run demand-faults its
  working set and records the first-touch page set; a warm run restores
  from the snapshot — the recorded set is prefetched before the function
  body touches it (no demand faults), and a Table-3-style restore
  latency is charged per prefetched page plus a per-invocation setup
  cost (``restore = 2200 + 480 x warm_pages``). Idle instances keep
  almost nothing resident (the snapshot lives on disk), so they strand
  very little pool memory.
* **reclaim** (Squeezy-style): arena pages are released to a host pool
  between invocations — heap mmaps are never pre-backed, so every first
  touch of the next invocation pays a full demand fault (the refault
  cost, charged through the ordinary kernel fault path), and function
  exit pays a per-page release cost returning pages to the host
  (``reclaim_release = 150 x exit_user_pages``). Idle instances keep
  only the runtime skeleton resident.
"""

from __future__ import annotations

from repro.stacks.base import Stack, register


class BaselineStack(Stack):
    name = "baseline"
    description = "software allocator, demand paging (the paper's baseline)"
    hardware = False
    knobs = frozenset({"mmap_populate", "allocator"})
    resident_fraction = 1.0
    legacy_memento = False


class MementoStack(Stack):
    name = "memento"
    description = "Memento hardware allocators + routing runtime"
    hardware = True
    knobs = frozenset()
    resident_fraction = 1.0
    legacy_memento = True


class SnapshotStack(Stack):
    """REAP-style record/replay of first-touch page sets."""

    name = "snapshot"
    description = "REAP-style snapshot/restore with working-set prefetch"
    hardware = False
    knobs = frozenset({"allocator"})
    #: The snapshot lives on disk while the instance idles; only the
    #: container skeleton stays resident in the pool.
    resident_fraction = 0.05
    legacy_memento = None

    def allocator_warm(self, spec, cold_start):
        # Cold run = the record phase: demand-fault everything so the
        # first-touch set exists to snapshot. Warm runs restore: the
        # recorded set arrives prefetched, never demand-faulted.
        return not cold_start

    def charges(self, cold_start, facts, costs):
        # A warm restore pays a fixed setup plus one install per page
        # the recorded set prefetched.
        if cold_start:
            return {}
        return {
            "restore": costs.snapshot_restore_base
            + costs.snapshot_restore_per_page * facts.warm_pages
        }


class ReclaimStack(Stack):
    """Squeezy-style release of arena pages to a host pool."""

    name = "reclaim"
    description = "Squeezy-style page release to a host pool, refault on touch"
    hardware = False
    knobs = frozenset({"allocator"})
    #: Pages go back to the host between invocations; the process and
    #: runtime skeleton stay resident.
    resident_fraction = 0.25
    legacy_memento = None

    def allocator_warm(self, spec, cold_start):
        # Released pages are gone: every invocation refaults its heap
        # through the ordinary demand-fault path, whatever the workload's
        # warm_heap setting says.
        return False

    def charges(self, cold_start, facts, costs):
        # Every page still live at function exit goes back to the host.
        pages = facts.exit_user_pages
        if not pages:
            return {}
        return {"reclaim_release": pages * costs.reclaim_release_per_page}


BUILTIN_STACKS = (
    register(BaselineStack()),
    register(MementoStack()),
    register(SnapshotStack()),
    register(ReclaimStack()),
)
