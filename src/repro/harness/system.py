"""System assembly and trace replay.

``SimulatedSystem`` builds a complete stack — machine, kernel, and either
the language's software allocator (baseline) or the Memento hardware plus
the routing runtime (treatment) — and replays a workload trace through it,
collecting cycles by category, DRAM traffic, and memory usage. Both stacks
run on identical hardware; the only difference is who handles memory
management.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice
from typing import Any, Dict, Mapping, Optional

from repro.allocators import ALLOCATOR_BY_LANGUAGE
from repro.allocators.jemalloc import JemallocAllocator
from repro.codec import VersionedCodec
from repro.audit import invariants as audit_invariants
from repro.harness import collector
from repro import stacks as stack_registry
from repro.stacks import ReplayFacts
from repro.resolve import resolve_stack
from repro.obs.instruments import current as current_instruments
from repro.core.bypass import COUNTER_MAX
from repro.core.config import MementoConfig
from repro.core.page_allocator import HardwarePageAllocator
from repro.core.runtime import MementoRuntime
from repro.kernel.kernel import Kernel
from repro.sim.cycles import CostModel
from repro.sim.machine import Machine
from repro.sim.params import MachineParams, PAGE_SHIFT, PAGE_SIZE
from repro.workloads.dataproc import DATAPROC_PURGE_AFTER, DATAPROC_RUN_BYTES
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import (
    OP_ALLOC,
    OP_FREE,
    OP_TOUCH,
    Alloc,
    Compute,
    Free,
    PackedTrace,
    Touch,
    Trace,
    unknown_event,
)

_PAGE_MASK = PAGE_SIZE - 1

#: Cycle categories making up memory management on each stack. The
#: ``restore``/``reclaim_release`` categories are charged only by the
#: snapshot/reclaim stacks (software paths), so including them leaves
#: baseline sums untouched.
BASELINE_MM = (
    "user_alloc",
    "user_free",
    "kernel_page",
    "walk",
    "restore",
    "reclaim_release",
)
MEMENTO_MM = (
    "hw_alloc",
    "hw_free",
    "hw_page",
    "user_alloc",
    "user_free",
    "kernel_page",
    "walk",
)

#: Container cold-start model (§6.6): crun setup work executed before the
#: function body, identical on both stacks (container pages are not heap
#: and stay outside Memento's region).
COLD_START_APP_FRACTION = 0.18
COLD_START_PAGES = 400

#: Version stamped into every :meth:`RunResult.to_dict` payload. Bump on
#: any field rename/retype; additive fields with defaults may keep it.
RESULT_SCHEMA_VERSION = 1
RESULT_CODEC = VersionedCodec("RunResult", RESULT_SCHEMA_VERSION)


@dataclass
class RunResult:
    """Everything one replay produced."""

    name: str
    memento: bool
    cycles: Dict[str, float] = field(default_factory=dict)
    total_cycles: float = 0.0
    seconds: float = 0.0
    dram_bytes: float = 0.0
    user_pages_aggregate: int = 0
    kernel_pages_aggregate: int = 0
    peak_pages: int = 0
    peak_user_pages: int = 0
    hot_alloc_hit_rate: Optional[float] = None
    hot_free_hit_rate: Optional[float] = None
    aac_hit_rate: Optional[float] = None
    bypassed_lines: int = 0
    list_ops_alloc: float = 0.0
    list_ops_free: float = 0.0
    allocs: int = 0
    frees: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    #: Invariant-audit summary (None unless an auditor was installed).
    audit: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (the wire and disk-cache format).

        Stamped with ``schema_version`` so the format can evolve.
        ``audit`` only appears when an auditor was installed, keeping
        unaudited payloads (golden fixtures, cache entries, digests)
        stable across the subsystem's introduction.

        The payload shares no mutable state with the result: ``cycles``
        and ``stats`` (flat dicts of numbers) are copied, ``audit`` is
        deep-copied; every other field is immutable.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["cycles"] = dict(self.cycles)
        payload["stats"] = dict(self.stats)
        if self.audit is None:
            del payload["audit"]
        else:
            payload["audit"] = deepcopy(self.audit)
        payload["schema_version"] = RESULT_SCHEMA_VERSION
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`; raises on unknown or missing keys
        so a corrupted cache entry fails loudly at deserialization time.
        A version newer than this reader is rejected (never guess at a
        future format).
        """
        result = cls(**RESULT_CODEC.open_into(cls, data))
        if not isinstance(result.name, str) or not isinstance(
            result.cycles, dict
        ):
            raise ValueError("malformed RunResult payload")
        return result

    def with_charges(
        self, charges: Mapping[str, int], params: MachineParams
    ) -> "RunResult":
        """This result plus a stack's ``charges`` (:meth:`Stack.charges`):
        the one pricing step, for :meth:`SimulatedSystem.run`, the engine
        and the oracle alike.

        The cycles land in ``cycles``, ``stats["cycles.<category>"]``,
        ``total_cycles`` and ``seconds``, nowhere else. A zero amount adds
        no key, and with nothing to add the result itself is returned.
        """
        charges = {c: amount for c, amount in charges.items() if amount}
        if not charges:
            return self
        cycles = dict(self.cycles)
        stats = dict(self.stats)
        total = self.total_cycles
        for category, amount in charges.items():
            cycles[category] = cycles.get(category, 0.0) + amount
            name = "cycles." + category
            stats[name] = stats.get(name, 0.0) + amount
            total += amount
        return replace(
            self,
            cycles=cycles,
            stats=stats,
            total_cycles=total,
            seconds=params.cycles_to_seconds(total),
        )

    @property
    def total_pages_aggregate(self) -> int:
        return self.user_pages_aggregate + self.kernel_pages_aggregate

    @property
    def mm_cycles(self) -> float:
        keys = MEMENTO_MM if self.memento else BASELINE_MM
        return sum(self.cycles.get(key, 0.0) for key in keys)


def _audit_segments(rows, packed: PackedTrace, should_check):
    """Split the ``rows`` iterator of ``packed`` at an auditor's epoch
    checks: ``(segment, index)`` for each event ``index`` that
    ``should_check``, ``segment`` holding the packed rows among events
    ``0..index`` not yet yielded, then ``(rest, None)``. Events are
    numbered computes included: compute ``k`` at position ``p`` is event
    ``p + k``."""
    computes = {p + k for k, (p, _, _) in enumerate(packed.computes)}
    replayed = done = 0
    for index in range(len(packed)):
        if index not in computes:
            replayed += 1
        if should_check(index):
            yield islice(rows, replayed - done), index
            done = replayed
    yield rows, None


class SimulatedSystem:
    """One process on one core, baseline or Memento."""

    def __init__(
        self,
        spec: WorkloadSpec,
        stack: Any = "baseline",
        machine_params: Optional[MachineParams] = None,
        cost_model: Optional[CostModel] = None,
        memento_config: Optional[MementoConfig] = None,
        mmap_populate: bool = False,
        cold_start: bool = False,
        allocator_cls=None,
        allocator_kwargs: Optional[dict] = None,
        machine: Optional[Machine] = None,
        kernel: Optional[Kernel] = None,
        page_allocator: Optional[HardwarePageAllocator] = None,
    ) -> None:
        """``stack`` names a registered memory-management stack (see
        :mod:`repro.stacks`) or is a :class:`~repro.stacks.Stack`.

        ``machine``/``kernel``/``page_allocator`` may be supplied to
        co-locate several systems on shared hardware (the multi-process
        study of §6.6); by default each system gets a private stack."""
        self.spec = spec.resolved()
        self.stack = stack_registry.get_stack(resolve_stack(stack))
        self.stack_name = self.stack.name
        memento = self.stack.hardware
        self.memento = memento
        # Knob support is declared per stack (repro.stacks): an
        # unsupported knob fails loudly naming the offending stack
        # instead of inheriting another stack's semantics.
        if mmap_populate and "mmap_populate" not in self.stack.knobs:
            raise ValueError(
                f"MAP_POPULATE is not supported by the "
                f"{self.stack_name!r} stack (supported knobs: "
                f"{sorted(self.stack.knobs) or 'none'})"
            )
        if allocator_cls is not None and "allocator" not in self.stack.knobs:
            raise ValueError(
                f"allocator overrides are not supported by the "
                f"{self.stack_name!r} stack (supported knobs: "
                f"{sorted(self.stack.knobs) or 'none'})"
            )
        # Cycle-attribution profile, bound before any component below is
        # constructed so their cells intern against it; the checkpoint
        # scopes this system's deltas (profiled systems must run
        # sequentially — interleaved construction would mix windows).
        instruments = current_instruments()
        self._profile = instruments.profile
        self._profile_ckpt = (
            self._profile.checkpoint() if self._profile is not None else None
        )
        # Invariant auditor, captured at construction exactly like the
        # profile: with none bound (the default) the replay paths
        # below are byte-identical to an audit-free build.
        self._audit = instruments.audit
        self.machine = machine or Machine(machine_params, cost_model)
        self.kernel = kernel or Kernel(self.machine)
        self.process = self.kernel.create_process()
        self.core = self.machine.core
        self.cold_start = cold_start
        self.config = memento_config or MementoConfig()
        #: What the stack's charges read, recorded at teardown.
        self.facts: Optional[ReplayFacts] = None

        self._addr_of: Dict[int, int] = {}
        self._size_of: Dict[int, int] = {}
        # Hoisted `cycles.touch` cell: `_touch_lines` batches one event's
        # line latencies into a single add (int sums, so bit-identical to
        # per-line charging).
        self._touch_cycles = self.core.cycle_counter("touch")
        # Replay fast-path peeks: the L1 TLB / L1D sets of this system's
        # core, so the common all-hits metadata access needs no calls into
        # the sim layer. A peek-hit mutates exactly what the full lookup
        # would (LRU bump + hit counter); a peek-miss mutates nothing and
        # falls back to the full path, which then counts the miss itself.
        tlb = self.core.tlb
        caches = self.core.caches
        self._tlb_l1_sets = tlb._l1_sets
        self._tlb_l1_nsets = tlb._l1_num_sets
        self._tlb_l1_hit = tlb.l1_hits
        self._cache_l1_sets = caches._l1_sets
        self._cache_l1_nsets = caches._l1_num_sets
        self._cache_l1_hit = caches._l1_hits
        self._l1_hit_cycles = caches._r_l1.cycles

        if memento:
            self.page_allocator = page_allocator or HardwarePageAllocator(
                self.kernel, self.config
            )
            self.runtime = MementoRuntime(
                self.kernel,
                self.process,
                self.core,
                self.spec.language,
                self.page_allocator,
                self.config,
            )
            self.allocator = None
            self._header_of = self.runtime.context.object_allocator.header_of
            self._malloc = self.runtime.malloc
            self._free = self.runtime.free
        else:
            self.page_allocator = None
            self.runtime = None
            cls = allocator_cls or ALLOCATOR_BY_LANGUAGE[self.spec.language]
            kwargs = dict(allocator_kwargs or {})
            if (
                cls is JemallocAllocator
                and self.spec.category == "dataproc"
                and "purge_after" not in kwargs
            ):
                kwargs["purge_after"] = DATAPROC_PURGE_AFTER
                kwargs["run_bytes"] = DATAPROC_RUN_BYTES
            kwargs["touch"] = self._make_metadata_touch()
            self.allocator = cls(self.kernel, self.process, **kwargs)
            self.allocator.mmap_populate = mmap_populate
            # The stack's one say in the replay: whether heap mmaps
            # arrive pre-backed (baseline: the workload's warm_heap;
            # snapshot: prefetch on warm restores; reclaim: never).
            warm = self.stack.allocator_warm(self.spec, cold_start)
            self.allocator.warm = warm
            self.allocator.large.warm = warm
            self._header_of = None
            self._malloc = partial(self.allocator.malloc, self.core)
            self._free = partial(self.allocator.free, self.core)
        # Built last: the touch closure captures the stack-specific cells
        # (bypass engine on Memento) chosen above.
        self._touch_lines = self._make_touch_lines()
        # Baseline for the derived bypass component (co-located machines
        # may carry counts from an earlier system on the same stats).
        self._profile_bypassed0 = (
            int(self.machine.stats["memento.bypass.bypassed_lines"])
            if self._profile is not None and memento
            else 0
        )

    def _make_metadata_touch(self):
        """Build the allocator metadata-touch callback.

        Allocator metadata updates (pool/run headers, free-list heads) are
        real memory accesses: they occupy cache space and generate the
        allocation traffic the HOT absorbs on the Memento stack. The
        callback runs twice per baseline malloc/free, so it is a closure —
        every piece of per-call state is a captured cell rather than an
        attribute chase through ``self``.
        """
        tlb_sets = self._tlb_l1_sets
        tlb_nsets = self._tlb_l1_nsets
        tlb_hit = self._tlb_l1_hit
        l1_sets = self._cache_l1_sets
        l1_nsets = self._cache_l1_nsets
        l1_hit = self._cache_l1_hit
        l1_hit_cycles = self._l1_hit_cycles
        access_line = self.core.caches.access_line
        translate = self._translate
        meta_cells: Dict[str, Any] = {}
        cycle_counter = self.core.cycle_counter
        page_shift = PAGE_SHIFT
        page_mask = _PAGE_MASK

        def metadata_touch(core, vaddr, write, category):
            vpn = vaddr >> page_shift
            tlb_set = tlb_sets[vpn % tlb_nsets]
            if vpn in tlb_set:
                tlb_set[vpn] = pfn = tlb_set.pop(vpn)
                tlb_hit.pending += 1
            else:
                pfn = translate(vaddr)
            line = ((pfn << page_shift) | (vaddr & page_mask)) >> 6
            l1_set = l1_sets[line % l1_nsets]
            if line in l1_set:
                l1_set[line] = l1_set.pop(line) or write
                l1_hit.pending += 1
                cycles = l1_hit_cycles
            else:
                cycles = access_line(line, write)[1]
            core.cycles += cycles
            cell = meta_cells.get(category)
            if cell is None:
                cell = meta_cells[category] = cycle_counter(category)
            cell.pending += cycles

        return metadata_touch

    # -- the malloc/free/access surface ---------------------------------------
    #
    # ``_malloc(size)`` and ``_free(addr)`` are bound in ``__init__``: the
    # Memento runtime's methods, or the software allocator's with this
    # system's core bound in.

    def _translate(self, vaddr: int) -> int:
        """MMU path: TLB, then the owning page table, filling on demand."""
        vpn = vaddr >> PAGE_SHIFT
        pfn = self.core.tlb.lookup(vpn)
        if pfn is not None:
            return pfn
        if self.memento and self.runtime.context.region.contains(vaddr):
            pfn = self.page_allocator.handle_walk(
                self.core, self.process, vaddr
            )
        else:
            pfn = self.kernel.translate(self.core, self.process, vaddr)
            if pfn is None:
                pfn = self.kernel.fault_handler.handle(
                    self.core, self.process, vaddr
                )
        self.core.tlb.insert(vpn, pfn)
        return pfn

    def _make_touch_lines(self):
        """Build the per-event line-touch kernel as a closure.

        Accesses ``lines`` consecutive cache lines of an object: the
        innermost replay loop, shared by every stack and by both replay
        paths. Two fast-path transformations, both accounting-identical
        to the straightforward per-line form:

        * consecutive lines on the same page skip the TLB probe — the
          previous line's lookup/insert left the page MRU in the L1 TLB,
          so a probe would hit without changing state; the hit is counted
          manually via the exposed ``l1_hits`` cell;
        * per-line latencies (ints) are summed locally and charged to
          ``cycles.touch`` once per event.

        On Memento, when the touched object has a live arena header, each
        line first takes the bypass decision (inlined
        ``BypassEngine.access``, §3.3). Software stacks and headerless
        objects (``header is None``) skip that block.

        A closure rather than a method so every piece of per-call state —
        TLB/L1 sets, counter cells, the bypass engine's decision inputs —
        loads from captured cells instead of attribute chains.
        """
        core = self.core
        addr_of = self._addr_of
        translate = self._translate
        tlb_sets = self._tlb_l1_sets
        tlb_nsets = self._tlb_l1_nsets
        tlb_hit = self._tlb_l1_hit
        l1_sets = self._cache_l1_sets
        l1_nsets = self._cache_l1_nsets
        l1_hit = self._cache_l1_hit
        l1_hit_cycles = self._l1_hit_cycles
        caches = core.caches
        access_line = caches.access_line
        touch_cycles = self._touch_cycles
        page_shift = PAGE_SHIFT
        page_mask = _PAGE_MASK
        header_of = self._header_of
        counter_max = COUNTER_MAX
        if self.memento:
            bypass = self.runtime.context.bypass
            enabled = bypass.enabled
            bypassed_cell = bypass._bypassed_lines
            regular_cell = bypass._regular_lines
            instantiate = caches.instantiate
            bypass_cycles = caches._r_bypass.cycles
        else:
            enabled = bypassed_cell = regular_cell = None
            instantiate = bypass_cycles = None

        def touch_lines(obj, lines, line_offset, write):
            base = addr_of[obj] + line_offset * 64
            header = header_of(base) if header_of is not None else None
            total = 0
            last_vpn = -1
            frame_base = 0
            for vaddr in range(base, base + lines * 64, 64):
                vpn = vaddr >> page_shift
                if vpn != last_vpn:
                    tlb_set = tlb_sets[vpn % tlb_nsets]
                    if vpn in tlb_set:
                        tlb_set[vpn] = pfn = tlb_set.pop(vpn)
                        tlb_hit.pending += 1
                        frame_base = pfn << page_shift
                    else:
                        frame_base = translate(vaddr) << page_shift
                    last_vpn = vpn
                else:
                    tlb_hit.pending += 1
                cache_addr = frame_base | (vaddr & page_mask)
                if header is not None:
                    # Saturated counters never bypass: past counter_max
                    # the touched-line bound is unknown (bypass-soundness).
                    line_index = (vaddr - header.va) >> 6
                    if line_index >= header.bypass_counter:
                        bypassable = enabled and line_index < counter_max
                        header.bypass_counter = (
                            line_index + 1
                            if line_index < counter_max
                            else counter_max
                        )
                    else:
                        bypassable = False
                    if bypassable:
                        bypassed_cell.pending += 1
                        instantiate(cache_addr, write)
                        total += bypass_cycles
                        continue
                    regular_cell.pending += 1
                line = cache_addr >> 6
                l1_set = l1_sets[line % l1_nsets]
                if line in l1_set:
                    l1_set[line] = l1_set.pop(line) or write
                    l1_hit.pending += 1
                    total += l1_hit_cycles
                else:
                    total += access_line(line, write)[1]
            core.cycles += total
            touch_cycles.pending += total

        return touch_lines

    # -- replay ------------------------------------------------------------------

    def run(
        self, trace: Optional[Trace] = None, charge: bool = True
    ) -> RunResult:
        """Replay ``trace`` (generated from the spec when omitted).

        Each phase — trace load, replay, stats fold — runs under a
        tracer span; with the default null tracer every span is one
        shared no-op context manager, so the instrumented path is
        indistinguishable from the bare one.
        The whole run holds the cyclic collector paused
        (:func:`repro.harness.collector.paused`).

        The replay is collected uncharged, then priced with the stack's
        charges (:meth:`_priced`); a bound profile is finished on the
        priced result. With ``charge`` False the uncharged result is
        returned: the one every software stack with the same warm-heap
        setting would replay, which ``self.facts`` prices for any of
        them (:meth:`RunResult.with_charges`).
        """
        tracer = current_instruments().tracer
        profile = self._profile
        marks = []
        with collector.paused(), tracer.span(
            "system.run",
            workload=self.spec.name,
            stack=self.stack_name,
        ) as run_span:
            if profile is not None:
                marks.append(("setup", self.core.cycles))
            if trace is None:
                with tracer.span("trace.load", workload=self.spec.name):
                    trace = generate_trace(self.spec)
            if self.cold_start:
                self._run_cold_start(trace)
            if profile is not None:
                marks.append(("cold_start", self.core.cycles))
            audit = self._audit
            with tracer.span("replay", events=len(trace)):
                allocs, frees = self._replay_columnar(trace.columnar(), audit)
            if profile is not None:
                marks.append(("replay", self.core.cycles))
            # The per-run check fires before teardown, which destroys
            # the structures the rules inspect.
            if audit is not None:
                audit.check(audit_invariants.AuditContext.from_system(self))
            self._teardown(trace)
            if profile is not None:
                marks.append(("teardown", self.core.cycles))
            with tracer.span("stats.fold"):
                result = self._collect(trace, allocs, frees)
            if audit is not None:
                result.audit = audit.summary()
            priced = self._priced(result)
            if profile is not None:
                marks.append(("charges", priced.total_cycles))
                self._finish_profile(priced, marks)
            if charge:
                result = priced
            run_span.set("total_cycles", result.total_cycles)
        return result

    def _finish_profile(self, result: RunResult, marks) -> None:
        """Reconcile this run's cycle attribution into the installed
        profile (:meth:`CycleProfile.finish_run`). Read-only over the
        simulator's state: the RunResult is already built and unchanged.
        """
        derived = None
        if self.memento:
            bypassed = (
                int(result.stats.get("memento.bypass.bypassed_lines", 0))
                - self._profile_bypassed0
            )
            if bypassed:
                # Each bypassed line charged exactly the LLC-instantiate
                # latency into cycles.touch, so the component is exact.
                cost = self.core.caches._r_bypass.cycles
                derived = {
                    "touch.bypass_instantiate": (bypassed, bypassed * cost)
                }
        phases = {}
        prev = 0
        for name, cycle_mark in marks:
            delta = cycle_mark - prev
            prev = cycle_mark
            if delta:
                phases[name] = delta
        self._profile.finish_run(
            workload=result.name,
            stack=self.stack_name,
            categories={k: int(v) for k, v in result.cycles.items()},
            total_cycles=int(result.total_cycles),
            checkpoint=self._profile_ckpt,
            derived=derived,
            phases=phases,
        )

    def _replay_columnar(
        self, packed: PackedTrace, audit=None
    ) -> "tuple[int, int]":
        """Replay a :class:`PackedTrace`: the one replay loop.

        Compute events arrive folded into two exact sums, charged once
        after the last row. Every other event runs the same callables
        :meth:`step` does (``_malloc``, ``_free``, ``_touch_lines``) in
        the same order, so results are bit-identical to stepping the
        events one by one. An unaudited replay zips the full columns in
        one segment. With ``audit``, the rows are replayed in segments
        split at its epoch checks (:func:`_audit_segments`), and each
        check runs once the rows before it have replayed.
        """
        core = self.core
        # Interned before any event runs: the order counters are created
        # in is the order of the stats snapshot.
        app_cell = core.cycle_counter("app")
        addr_of = self._addr_of
        size_of = self._size_of
        malloc = self._malloc
        free = self._free
        touch_lines = self._touch_lines
        op_touch = OP_TOUCH
        op_alloc = OP_ALLOC
        ops = packed.ops
        rows = zip(ops, packed.f0, packed.f1, packed.f2, packed.writes)
        if audit is None:
            segments = ((rows, None),)
        else:
            ctx = audit_invariants.AuditContext.from_system(self)
            segments = _audit_segments(rows, packed, audit.should_check)
        for segment, index in segments:
            for op, a, b, c, d in segment:
                if op == op_touch:
                    touch_lines(a, b, c, d)
                elif op == op_alloc:
                    addr_of[a] = malloc(b)
                    size_of[a] = b
                else:
                    free(addr_of.pop(a))
                    del size_of[a]
            if index is not None:
                audit.check(ctx, index)

        # The folded compute events, charged once. Exact: integer
        # cycle/byte sums commute, the dyadic bytes/64 line total is exactly
        # representable at every partial sum, and nothing reads these cells
        # (or core.cycles as a clock — allocator decay is retire-driven)
        # until after replay.
        cycles_sum = packed.compute_cycles
        if cycles_sum:
            core.cycles += cycles_sum
            app_cell.pending += cycles_sum
        bytes_sum = packed.compute_bytes
        if bytes_sum:
            dram = self.machine.dram
            dram._read_bytes.pending += bytes_sum
            dram._read_lines.pending += bytes_sum / 64
        return ops.count(OP_ALLOC), ops.count(OP_FREE)

    def step(self, event, index: Optional[int] = None) -> Optional[int]:
        """Apply one trace event; returns the address an Alloc got.

        The per-event reference: the differential oracle (its lockstep
        and :func:`repro.audit.oracle.replay_events`) and the sweeps that
        sample state between events step through here; :meth:`run`
        never does. Any event that is not exactly one of the four trace
        types raises ``ValueError`` (``index`` names its position when
        known) rather than being skipped.
        """
        kind = type(event)
        if kind is Touch:
            self._touch_lines(
                event.obj, event.lines, event.line_offset, event.write
            )
        elif kind is Compute:
            self.core.charge(event.cycles, "app")
            if event.dram_bytes:
                self.machine.dram.record_bulk_bytes(event.dram_bytes)
        elif kind is Alloc:
            addr = self._addr_of[event.obj] = self._malloc(event.size)
            self._size_of[event.obj] = event.size
            return addr
        elif kind is Free:
            self._free(self._addr_of.pop(event.obj))
            del self._size_of[event.obj]
        else:
            raise unknown_event(event, index)
        return None

    def _run_cold_start(self, trace: Trace) -> None:
        """Container setup before the function body (identical work on
        both stacks: container pages are not Memento-managed)."""
        spec = self.spec
        setup_app = int(
            spec.num_allocs * spec.compute_per_alloc * COLD_START_APP_FRACTION
        )
        self.core.charge(setup_app, "app")
        base = self.kernel.syscalls.mmap(
            self.core, self.process, COLD_START_PAGES * PAGE_SIZE
        )
        self.kernel.fault_handler.handle_range(
            self.core, self.process, base, COLD_START_PAGES
        )
        self.machine.dram.record_bulk_bytes(COLD_START_PAGES * 1024)

    def _teardown(self, trace: Trace) -> None:
        """Function completion on a ``function`` trace (runtimes tear
        down, the OS batch-frees), then record the :class:`ReplayFacts`
        the stack's charges read."""
        exit_user_pages = 0
        if trace.category == "function":
            exit_user_pages = self.machine.frames.live("user")
            if self.memento:
                self.runtime.teardown()
            else:
                self.allocator.teardown(self.core)
            self.kernel.exit_process(self.core, self.process)
        self.facts = ReplayFacts(
            int(self.machine.stats["kernel.warm_prefaulted_pages"]),
            exit_user_pages,
        )

    def _priced(self, result: RunResult) -> RunResult:
        """``result`` of this system's replay plus its stack's charges
        for what the replay recorded (``self.facts``)."""
        charges = self.stack.charges(
            self.cold_start, self.facts, self.machine.costs
        )
        return result.with_charges(charges, self.machine.params)

    # -- result collection ----------------------------------------------------------

    def _collect(self, trace: Trace, allocs: int, frees: int) -> RunResult:
        stats = self.machine.stats
        cycles = {
            key.split("cycles.", 1)[1]: value
            for key, value in stats.with_prefix("cycles").items()
        }
        result = RunResult(
            name=trace.name,
            memento=self.memento,
            cycles=cycles,
            total_cycles=self.core.cycles,
            seconds=self.machine.params.cycles_to_seconds(self.core.cycles),
            dram_bytes=self.machine.dram.total_bytes,
            allocs=allocs,
            frees=frees,
            stats=stats.snapshot(),
        )
        result.peak_pages = max(
            self.machine.frames.peak("user")
            + self.machine.frames.peak("kernel"),
            1,
        )
        result.peak_user_pages = max(self.machine.frames.peak("user"), 1)
        if self.memento:
            allocator = self.runtime.context.object_allocator
            result.hot_alloc_hit_rate = allocator.hot.alloc_hit_rate()
            result.hot_free_hit_rate = allocator.hot.free_hit_rate()
            result.aac_hit_rate = self.page_allocator.aac.hit_rate()
            result.bypassed_lines = int(
                stats["memento.bypass.bypassed_lines"]
            )
            list_ops = (
                stats["memento.list.available.pushes"]
                + stats["memento.list.available.removes"]
                + stats["memento.list.full.pushes"]
                + stats["memento.list.full.removes"]
            )
            # Split list surgery between the alloc path (arena switches)
            # and the free path (full->available moves, releases).
            alloc_side = (
                stats["memento.list.full.pushes"]
                + stats["memento.list.available.removes"]
            )
            result.list_ops_alloc = alloc_side / max(1, allocs)
            result.list_ops_free = (list_ops - alloc_side) / max(1, frees)
            result.user_pages_aggregate = int(
                stats["memento.page.arena_pages_mapped"]
            ) + self.process.user_pages_aggregate
            # Memento table pages are pool pages recycled in hardware; the
            # OS allocates them once, so the aggregate contribution is the
            # peak, not the churn count.
            result.kernel_pages_aggregate = (
                int(stats["memento.page.table_pages_peak"])
                + int(self.machine.frames.aggregate("kernel"))
                + self.process.vmas.aggregate_metadata_pages()
            )
        else:
            result.user_pages_aggregate = self.process.user_pages_aggregate
            result.kernel_pages_aggregate = int(
                self.machine.frames.aggregate("kernel")
            ) + self.process.vmas.aggregate_metadata_pages()
        return result
