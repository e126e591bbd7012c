"""Architectural invariant checker (audit subsystem, part a).

Pluggable :class:`Invariant` rules evaluate the *live* simulator state —
arena bitmaps against list membership, bypass counters against the 11-bit
bound, HOT/AAC contents against the backing headers and bump pointers,
Memento page-table accounting against the physical pool, the per-process
shootdown bit-vector against core TLB contents, and cache dirty bits
against the DRAM writeback ledger. The paper's correctness argument rests
on these relationships (§3.1–§3.3); PRs 2–4 rewrote the hot paths into
closure factories, so the checker is what keeps "fast" from silently
diverging from "the model".

Gating mirrors the CycleProfile pattern exactly: the ``audit`` field
of the instrument bundle (``instrumented(audit=...)``), captured by
``SimulatedSystem`` at construction. With no auditor bound the replay
paths are byte-identical to the unaudited build — the only cost is one
``None`` test per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.core.arena import HEADER_BYTES, arena_span_bytes
from repro.core.bypass import COUNTER_MAX
from repro.kernel.page_table import LEVELS, PageTable
from repro.sim.params import LINE_SIZE, PAGE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.object_allocator import HardwareObjectAllocator
    from repro.core.page_allocator import HardwarePageAllocator
    from repro.sim.machine import Machine

#: Valid audit epochs: check after every event, every N events, or once
#: per run (after replay, before teardown).
EPOCHS = ("event", "interval", "run")


@dataclass
class Violation:
    """One invariant breach, attributed to a rule and (optionally) the
    replay event index at which the check fired."""

    rule: str
    message: str
    event_index: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "message": self.message,
            "event_index": self.event_index,
        }

    def __str__(self) -> str:
        where = (
            f" @event {self.event_index}"
            if self.event_index is not None
            else ""
        )
        return f"[{self.rule}]{where} {self.message}"


class AuditContext:
    """Handles into one simulated system's live state.

    Rules read through this instead of a ``SimulatedSystem`` so they can
    also run against hand-built component stacks in unit tests (e.g. a
    bare allocator + page allocator without the harness).
    """

    def __init__(
        self,
        machine: "Machine",
        memento: bool,
        config=None,
        allocators: Iterable["HardwareObjectAllocator"] = (),
        page_allocator: Optional["HardwarePageAllocator"] = None,
    ) -> None:
        self.machine = machine
        self.memento = memento
        self.config = config
        self.allocators = list(allocators)
        self.page_allocator = page_allocator

    @classmethod
    def from_system(cls, system) -> "AuditContext":
        allocators = []
        if system.memento and system.runtime is not None:
            allocators.append(system.runtime.context.object_allocator)
        return cls(
            machine=system.machine,
            memento=system.memento,
            config=system.config,
            allocators=allocators,
            page_allocator=system.page_allocator,
        )


class Invariant:
    """Base class: one named architectural rule.

    ``check`` returns a list of violation messages (empty when the state
    is consistent) and must be read-only over the simulator — folding
    pending counters is the only permitted side effect.
    """

    name = "invariant"
    description = ""

    def check(self, ctx: AuditContext) -> List[str]:
        raise NotImplementedError


class ArenaListMembership(Invariant):
    """Bitmap/list consistency of §3.1's per-class arena lists.

    Every live header is either HOT-resident (list_name None, unlinked)
    or linked on exactly the list its ``list_name`` claims; full-list
    members are full, available-list members are not; linkage is a
    well-formed doubly-linked list whose length matches the list's count.
    """

    name = "arena-list-membership"
    description = (
        "arena allocation bitmap vs. available/full list membership"
    )

    def check(self, ctx: AuditContext) -> List[str]:
        out: List[str] = []
        for allocator in ctx.allocators:
            headers = allocator.headers
            placed: Dict[int, str] = {}  # id(header) -> where it lives
            for sc, entry in enumerate(allocator.hot.entries):
                header = entry.header
                if header is None:
                    continue
                placed[id(header)] = f"HOT[{sc}]"
                if header.list_name is not None:
                    out.append(
                        f"HOT-resident arena {header.va:#x} claims "
                        f"list {header.list_name!r}"
                    )
                if header.prev is not None or header.next is not None:
                    out.append(
                        f"HOT-resident arena {header.va:#x} carries "
                        f"stale prev/next links"
                    )
            for sc in range(len(allocator.available)):
                for lst in (allocator.available[sc], allocator.full[sc]):
                    out.extend(
                        self._walk(lst, sc, headers, placed, len(headers))
                    )
            for va, header in headers.items():
                if va != header.va:
                    out.append(
                        f"headers key {va:#x} != header.va {header.va:#x}"
                    )
                if id(header) not in placed:
                    out.append(
                        f"arena {header.va:#x} (list_name="
                        f"{header.list_name!r}) is neither HOT-resident "
                        f"nor reachable on any list"
                    )
        return out

    @staticmethod
    def _walk(lst, sc, headers, placed, max_nodes) -> List[str]:
        out: List[str] = []
        count = 0
        node = lst.head
        prev = None
        while node is not None:
            if count > max_nodes + 1:
                out.append(
                    f"{lst.name}[{sc}] linkage cycles after {count} nodes"
                )
                return out
            where = f"{lst.name}[{sc}]"
            if id(node) in placed:
                out.append(
                    f"arena {node.va:#x} on {where} is also at "
                    f"{placed[id(node)]}"
                )
                return out
            placed[id(node)] = where
            if node.list_name != lst.name:
                out.append(
                    f"arena {node.va:#x} on {where} claims list "
                    f"{node.list_name!r}"
                )
            if node.prev is not prev:
                out.append(
                    f"arena {node.va:#x} on {where} has a stale prev link"
                )
            if headers.get(node.va) is not node:
                out.append(
                    f"arena {node.va:#x} on {where} is not the live "
                    f"header for its VA"
                )
            if lst.name == "full" and not node.is_full:
                out.append(
                    f"arena {node.va:#x} on full[{sc}] has "
                    f"{node.live_objects}/{node.objects} slots set"
                )
            if lst.name == "available" and node.is_full:
                out.append(f"full arena {node.va:#x} on available[{sc}]")
            prev = node
            node = node.next
            count += 1
        if count != len(lst):
            out.append(
                f"{lst.name}[{sc}] walk found {count} nodes but the "
                f"list counts {len(lst)}"
            )
        return out


class BypassCounterRange(Invariant):
    """The 11-bit bypass counter (§3.3) stays within architectural
    bounds: 0 <= counter <= min(arena line count, COUNTER_MAX)."""

    name = "bypass-counter-range"
    description = "11-bit bypass counter saturates instead of wrapping"

    def check(self, ctx: AuditContext) -> List[str]:
        out: List[str] = []
        if ctx.config is None:
            return out
        for allocator in ctx.allocators:
            for header in allocator.headers.values():
                span_lines = (
                    arena_span_bytes(header.size_class, ctx.config)
                    // LINE_SIZE
                )
                bound = min(span_lines, COUNTER_MAX)
                counter = header.bypass_counter
                if not isinstance(counter, int) or not (
                    0 <= counter <= bound
                ):
                    out.append(
                        f"arena {header.va:#x} (class "
                        f"{header.size_class}) bypass counter {counter} "
                        f"outside [0, {bound}]"
                    )
        return out


class HotAacBacking(Invariant):
    """HOT/AAC cached state matches the backing structures (§3.1–§3.2):
    HOT entries reference live headers of the indexed class; AAC entries
    stay within the per-core budget; bump pointers stay span-aligned in
    their thread window; recycled spans are aligned, previously drawn,
    unique, and never shadow a live arena."""

    name = "hot-aac-backing"
    description = "HOT/AAC cached entries vs. backing headers and bumps"

    def check(self, ctx: AuditContext) -> List[str]:
        out: List[str] = []
        live_vas = set()
        for allocator in ctx.allocators:
            live_vas.update(allocator.headers)
            for sc, entry in enumerate(allocator.hot.entries):
                header = entry.header
                if header is None:
                    continue
                if header.size_class != sc:
                    out.append(
                        f"HOT[{sc}] caches arena {header.va:#x} of class "
                        f"{header.size_class}"
                    )
                if allocator.headers.get(header.va) is not header:
                    out.append(
                        f"HOT[{sc}] caches a dead header for "
                        f"{header.va:#x}"
                    )
        page_allocator = ctx.page_allocator
        if page_allocator is None:
            return out
        budget = page_allocator.config.aac_classes_per_core
        for slot, entry in page_allocator.aac.entries.items():
            if len(entry) > budget:
                out.append(
                    f"AAC slot {slot} holds {len(entry)} classes "
                    f"(budget {budget})"
                )
        for state in page_allocator._states.values():
            for (thread, sc), bump in state.bump.items():
                start, limit = state.thread_slice(thread, sc)
                span = arena_span_bytes(sc, page_allocator.config)
                if not start <= bump <= limit or (bump - start) % span:
                    out.append(
                        f"bump pointer for thread {thread} class {sc} at "
                        f"{bump:#x} outside/misaligned in "
                        f"[{start:#x}, {limit:#x})"
                    )
            for (thread, sc), spans in state.free_spans.items():
                start, _limit = state.thread_slice(thread, sc)
                span = arena_span_bytes(sc, page_allocator.config)
                bump = state.bump.get((thread, sc), start)
                if len(set(spans)) != len(spans):
                    out.append(
                        f"duplicate recycled span for thread {thread} "
                        f"class {sc}"
                    )
                for va in spans:
                    if (va - start) % span or not start <= va < bump:
                        out.append(
                            f"recycled span {va:#x} (thread {thread}, "
                            f"class {sc}) misaligned or never drawn"
                        )
                    if va in live_vas:
                        out.append(
                            f"recycled span {va:#x} shadows a live arena"
                        )
        return out


def _table_node_pfns(table: PageTable) -> List[int]:
    """Frames of every node page (root + interiors) of ``table``."""
    out = [table.root.pfn]

    def recurse(node, level: int) -> None:
        if level < LEVELS - 1:
            for child in node.entries.values():
                out.append(child.pfn)
                recurse(child, level + 1)

    recurse(table.root, 0)
    return out


class PoolBalance(Invariant):
    """Page-pool conservation (§3.2): pool contents match the frame
    ledger; page-table node counts match the table-page stats; leaves
    mapped equal pages drawn minus pages reclaimed; no frame is both
    pooled and mapped."""

    name = "pool-balance"
    description = "Memento page-table leaves vs. pool draws/reclaims"

    def check(self, ctx: AuditContext) -> List[str]:
        out: List[str] = []
        page_allocator = ctx.page_allocator
        if page_allocator is None:
            return out
        pool = page_allocator.pool
        if len(set(pool)) != len(pool):
            out.append(f"pool holds duplicate frames ({len(pool)} total)")
        pooled = ctx.machine.frames.live("memento")
        if pooled != len(pool):
            out.append(
                f"frame ledger says {pooled} pooled pages but the pool "
                f"holds {len(pool)}"
            )
        stats = ctx.machine.stats
        table_live = stats["memento.page.table_pages_live"]
        table_actual = sum(
            state.page_table.table_pages
            for state in page_allocator._states.values()
        )
        if table_live != table_actual:
            out.append(
                f"table_pages_live={table_live} but the page tables "
                f"hold {table_actual} node pages"
            )
        pool_set = set(pool)
        mapped_total = 0
        for pid, state in page_allocator._states.items():
            mapped = dict(state.page_table.mappings())
            mapped_total += len(mapped)
            if len(mapped) != state.page_table.mapped_pages:
                out.append(
                    f"pid {pid}: mapped_pages="
                    f"{state.page_table.mapped_pages} but the table "
                    f"holds {len(mapped)} leaves"
                )
            leaf_overlap = pool_set.intersection(mapped.values())
            if leaf_overlap:
                out.append(
                    f"pid {pid}: {len(leaf_overlap)} leaf frames are "
                    f"still in the pool"
                )
            node_overlap = pool_set.intersection(
                _table_node_pfns(state.page_table)
            )
            if node_overlap:
                out.append(
                    f"pid {pid}: {len(node_overlap)} table-node frames "
                    f"are still in the pool"
                )
        drawn = stats["memento.page.arena_pages_mapped"]
        freed = stats["memento.page.arena_pages_freed"]
        released = stats["memento.page.process_released_pages"]
        if drawn - freed - released != mapped_total:
            out.append(
                f"leaf conservation broken: mapped={drawn} freed="
                f"{freed} released={released} but {mapped_total} leaves "
                f"remain"
            )
        return out


class ShootdownCoverage(Invariant):
    """§3.2 shootdown bit-vector: any core caching a translation for a
    process's Memento region must be recorded in that process's
    ``walker_cores`` — otherwise an arena free would skip its TLB and
    leave a stale mapping."""

    name = "shootdown-coverage"
    description = "per-process shootdown bit-vector covers walker TLBs"

    def check(self, ctx: AuditContext) -> List[str]:
        out: List[str] = []
        page_allocator = ctx.page_allocator
        if page_allocator is None:
            return out
        for pid, state in page_allocator._states.items():
            region = state.region
            walkers = state.walker_cores
            for core in ctx.machine.cores:
                if core.core_id in walkers:
                    continue
                for level in (core.tlb.l1, core.tlb.l2):
                    for tlb_set in level._sets:
                        for vpn in tlb_set:
                            if region.contains(vpn << PAGE_SHIFT):
                                out.append(
                                    f"core {core.core_id} caches vpn "
                                    f"{vpn:#x} of pid {pid}'s region but "
                                    f"is not in walker_cores {walkers}"
                                )
        return out


class CacheWritebackLedger(Invariant):
    """Cache geometry and the DRAM writeback ledger: no set overflows
    its ways, dirty bits are booleans, and line/byte DRAM counters stay
    paired (every recorded line moved exactly LINE_SIZE bytes, bulk
    traffic included) and non-negative."""

    name = "cache-writeback-ledger"
    description = "cache dirty/valid bits vs. DRAM writeback ledger"

    def check(self, ctx: AuditContext) -> List[str]:
        out: List[str] = []
        for core in ctx.machine.cores:
            caches = core.caches
            for label, cache in (
                ("l1d", caches.l1d),
                ("l2", caches.l2),
                ("llc", caches.llc),
            ):
                for index, cache_set in enumerate(cache._sets):
                    if len(cache_set) > cache._ways:
                        out.append(
                            f"core {core.core_id} {label} set {index} "
                            f"holds {len(cache_set)} lines "
                            f"(ways {cache._ways})"
                        )
                    for line, dirty in cache_set.items():
                        if not isinstance(dirty, bool):
                            out.append(
                                f"core {core.core_id} {label} line "
                                f"{line:#x} has non-boolean dirty bit "
                                f"{dirty!r}"
                            )
                            break
        stats = ctx.machine.stats
        for direction in ("read", "write"):
            lines = stats[f"dram.{direction}_lines"]
            nbytes = stats[f"dram.{direction}_bytes"]
            if lines < 0 or nbytes < 0:
                out.append(
                    f"negative DRAM {direction} ledger: lines={lines} "
                    f"bytes={nbytes}"
                )
            if abs(nbytes - lines * LINE_SIZE) > 1e-6:
                out.append(
                    f"DRAM {direction} ledger unpaired: {lines} lines "
                    f"vs {nbytes} bytes (expected "
                    f"{lines * LINE_SIZE})"
                )
        return out


#: The default rule catalogue, in check order.
DEFAULT_RULES = (
    ArenaListMembership,
    BypassCounterRange,
    HotAacBacking,
    PoolBalance,
    ShootdownCoverage,
    CacheWritebackLedger,
)


class Auditor:
    """Evaluates a rule set at a configurable epoch.

    ``epoch``:

    * ``"event"``    — after every replay event (exhaustive; slow);
    * ``"interval"`` — after every ``every`` events;
    * ``"run"``      — once, after replay completes (the default; this
      is also always checked for the other epochs).
    """

    def __init__(
        self,
        epoch: str = "run",
        every: int = 256,
        rules: Optional[Iterable] = None,
        max_violations: int = 100,
    ) -> None:
        if epoch not in EPOCHS:
            raise ValueError(
                f"epoch must be one of {EPOCHS}, got {epoch!r}"
            )
        if int(every) < 1:
            # Clamped, a zero interval would check after every event.
            raise ValueError(
                f"every must be a positive integer, got {every!r}"
            )
        self.epoch = epoch
        self.every = int(every)
        self.rules: List[Invariant] = [
            rule() if isinstance(rule, type) else rule
            for rule in (rules if rules is not None else DEFAULT_RULES)
        ]
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.total_violations = 0
        self.checks = 0

    def should_check(self, event_index: int) -> bool:
        """Whether to check after event ``event_index`` (counted from 0,
        computes included)."""
        if self.epoch == "event":
            return True
        if self.epoch == "interval":
            return (event_index + 1) % self.every == 0
        return False

    def check(
        self, ctx: AuditContext, event_index: Optional[int] = None
    ) -> int:
        """Run every rule; returns the number of new violations."""
        self.checks += 1
        new = 0
        for rule in self.rules:
            try:
                messages = rule.check(ctx)
            except Exception as exc:  # rule crash is itself a finding
                messages = [f"rule crashed: {exc!r}"]
            for message in messages:
                new += 1
                if len(self.violations) < self.max_violations:
                    self.violations.append(
                        Violation(rule.name, message, event_index)
                    )
        self.total_violations += new
        return new

    def clear(self) -> None:
        self.violations.clear()
        self.total_violations = 0
        self.checks = 0

    def summary(self) -> Dict[str, Any]:
        """Ledger/RunResult payload: compact, JSON-round-trippable."""
        return {
            "epoch": self.epoch,
            "every": self.every if self.epoch == "interval" else None,
            "checks": self.checks,
            "violations": self.total_violations,
            "rules": [rule.name for rule in self.rules],
            "findings": [v.to_dict() for v in self.violations],
        }
