"""Differential oracle (audit subsystem, part b).

The replay hot paths — ``CacheHierarchy.access_line``/``instantiate`` and
the harness touch kernel — are closure factories with every probe, fill,
and counter inlined (PR 3). This module runs them lockstep against a
*deliberately naive* reference: the same semantics composed from the slow,
obviously-correct per-level methods (``Cache.lookup``/``Cache.insert``,
``Dram.record_*``, ``BypassEngine.access``, per-line ``_translate``). Any
state or counter the two disagree on is a divergence, reported with the
first divergent event and a minimized event prefix that still reproduces
it.

The reference rides a :class:`BypassSoundnessMonitor`: it remembers which
live objects wrote which virtual lines and flags any bypass (LLC
zero-instantiation) of a line a live object's data still occupies — the
paper's §3.3 safety argument, checked empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import stacks as stack_registry
from repro.audit.invariants import AuditContext, Auditor, Violation
from repro.harness.system import RunResult, SimulatedSystem
from repro.resolve import resolve_stack
from repro.sim.machine import Machine
from repro.sim.params import PAGE_SHIFT, PAGE_SIZE
from repro.workloads.synth import WorkloadSpec, generate_trace
from repro.workloads.trace import Compute, Free, Trace

_PAGE_MASK = PAGE_SIZE - 1

#: Stats probed after every lockstep event. Each is a key into the
#: machine's Stats; ``core.cycles`` is read off the core directly.
_PROBE_KEYS = (
    "l1d.hits",
    "l1d.misses",
    "l2.hits",
    "l2.misses",
    "llc.hits",
    "llc.misses",
    "llc.evictions",
    "llc.dirty_evictions",
    "dram.read_lines",
    "dram.write_lines",
    "tlb_l1.hits",
    "tlb_l1.misses",
    "hierarchy.bypass_fills",
)
_PROBE_KEYS_MEMENTO = _PROBE_KEYS + (
    "memento.bypass.bypassed_lines",
    "memento.bypass.regular_lines",
    "memento.bypass.counter_decrements",
)


# -- naive reference closures ---------------------------------------------------


def _reference_access_line(caches) -> Callable:
    """``access_line`` recomposed from the per-level methods.

    Counter-for-counter equivalent to the inlined closure: probes walk
    L1 -> L2 -> LLC -> DRAM; fills cascade back up; an inner level's dirty
    victim is installed one level out with its own victim dropped (the
    insert return value is discarded, exactly as the fast path drops it).
    """
    l1d, l2, llc = caches.l1d, caches.l2, caches.llc
    dram = caches.dram
    on_writeback = caches.on_writeback
    r_l1, r_l2, r_llc, r_dram = (
        caches._r_l1,
        caches._r_l2,
        caches._r_llc,
        caches._r_dram,
    )

    def access_line(line, write=False):
        if l1d.lookup(line, write):
            return r_l1
        if l2.lookup(line, False):
            result = r_l2
        else:
            if llc.lookup(line, False):
                result = r_llc
            else:
                dram.record_read_line()
                victim = llc.insert(line, False)
                if victim is not None and victim[1]:
                    dram.record_write_line()
                    on_writeback()
                result = r_dram
            victim = l2.insert(line, False)
            if victim is not None and victim[1]:
                llc.insert(victim[0], True)  # victim's victim dropped
        victim = l1d.insert(line, write)
        if victim is not None and victim[1]:
            l2.insert(victim[0], True)  # victim's victim dropped
        return result

    return access_line


def _reference_instantiate(caches) -> Callable:
    """``instantiate`` (the §3.3 bypass fill) from the per-level methods:
    create the line dirty in the LLC without DRAM, promote inward clean
    (L2) and with the access's write bit (L1)."""
    l1d, l2, llc = caches.l1d, caches.l2, caches.llc
    dram = caches.dram
    on_writeback = caches.on_writeback
    bypass_fills = caches._bypass_fills
    r_bypass = caches._r_bypass
    line_shift = 6

    def instantiate(addr, write=True):
        line = addr >> line_shift
        bypass_fills.pending += 1
        victim = llc.insert(line, True)
        if victim is not None and victim[1]:
            dram.record_write_line()
            on_writeback()
        victim = l2.insert(line, False)
        if victim is not None and victim[1]:
            llc.insert(victim[0], True)  # victim's victim dropped
        victim = l1d.insert(line, write)
        if victim is not None and victim[1]:
            l2.insert(victim[0], True)  # victim's victim dropped
        return r_bypass

    return instantiate


class BypassSoundnessMonitor:
    """Watches the reference replay for bypasses that would zero live data.

    Tracks, per live object, the virtual lines it has written, and per
    line a refcount of live writers. A bypassed access zero-instantiates
    its line in the LLC — if any live object's written data occupies that
    line, the program would observe corruption (§3.3's safety argument).
    """

    def __init__(self) -> None:
        self._written: Dict[int, set] = {}  # obj -> written vlines
        self._live: Dict[int, int] = {}  # vline -> live-writer refcount
        self.violations: List[str] = []

    def observe(
        self, obj: int, vaddr: int, write: bool, bypassed: bool
    ) -> None:
        vline = vaddr >> 6
        if bypassed and self._live.get(vline):
            self.violations.append(
                f"object {obj} bypassed line {vline:#x} while "
                f"{self._live[vline]} live object(s) hold written data "
                f"on it"
            )
        if write:
            lines = self._written.get(obj)
            if lines is None:
                lines = self._written[obj] = set()
            if vline not in lines:
                lines.add(vline)
                self._live[vline] = self._live.get(vline, 0) + 1

    def on_free(self, obj: int) -> None:
        for vline in self._written.pop(obj, ()):
            count = self._live[vline] - 1
            if count:
                self._live[vline] = count
            else:
                del self._live[vline]


def _reference_touch_lines(
    system: SimulatedSystem, monitor: Optional[BypassSoundnessMonitor]
) -> Callable:
    """The naive touch kernel: one full TLB lookup and one full hierarchy
    access per line — no same-page skip, no L1 peeks, no inlining. On the
    Memento stack the bypass decision goes through the real
    ``BypassEngine.access`` method (whose ``caches.access``/``instantiate``
    calls dispatch to the naive closures installed above)."""
    core = system.core
    caches = core.caches
    addr_of = system._addr_of
    translate = system._translate
    touch_cycles = system._touch_cycles
    header_of = system._header_of
    bypass = system.runtime.context.bypass if system.memento else None
    bypassed_cell = bypass._bypassed_lines if bypass is not None else None

    def touch_lines(obj, lines, line_offset, write):
        base = addr_of[obj] + line_offset * 64
        total = 0
        for vaddr in range(base, base + lines * 64, 64):
            pfn = translate(vaddr)
            cache_addr = (pfn << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            header = header_of(vaddr) if header_of is not None else None
            if header is not None:
                before = bypassed_cell.get()
                result = bypass.access(
                    core, header, vaddr, write, cache_addr
                )
                if monitor is not None:
                    monitor.observe(
                        obj, vaddr, write, bypassed_cell.get() != before
                    )
                total += result.cycles
            else:
                total += caches.access(cache_addr, write).cycles
        core.cycles += total
        touch_cycles.pending += total

    return touch_lines


def build_reference_system(
    spec: WorkloadSpec,
    stack: Any = "baseline",
    monitor: Optional[BypassSoundnessMonitor] = None,
    **kwargs: Any,
) -> SimulatedSystem:
    """A :class:`SimulatedSystem` whose cache and touch paths are the
    naive reference implementations.

    ``stack`` is a registry name or a :class:`~repro.stacks.Stack`.

    The cache closures are swapped on a pre-built machine *before* system
    construction: the allocator metadata-touch closure captures
    ``caches.access_line`` at construction time, so a post-hoc swap would
    leave the metadata path running the fast closure.
    """
    machine = Machine(
        kwargs.pop("machine_params", None), kwargs.pop("cost_model", None)
    )
    caches = machine.core.caches
    caches.access_line = _reference_access_line(caches)
    caches.instantiate = _reference_instantiate(caches)
    system = SimulatedSystem(spec, stack, machine=machine, **kwargs)
    system._touch_lines = _reference_touch_lines(system, monitor)
    return system


# -- lockstep execution ---------------------------------------------------------


@dataclass
class Divergence:
    """First point where fast and reference disagree."""

    event_index: int
    kind: str  # "counter" | "alloc_addr" | "exception" | "columnar"
    key: str
    fast: Any
    reference: Any

    def to_dict(self) -> Dict[str, Any]:
        return {
            "event_index": self.event_index,
            "kind": self.kind,
            "key": self.key,
            "fast": self.fast,
            "reference": self.reference,
        }

    def __str__(self) -> str:
        return (
            f"event {self.event_index}: {self.kind} {self.key!r} "
            f"fast={self.fast} reference={self.reference}"
        )


def _probe(system: SimulatedSystem, keys) -> Dict[str, float]:
    stats = system.machine.stats
    values = {key: stats[key] for key in keys}
    values["core.cycles"] = system.core.cycles
    return values


def _step_event(system: SimulatedSystem, event) -> Optional[int]:
    """Apply one trace event to ``system`` (:meth:`SimulatedSystem.step`);
    returns the allocated address for Alloc events."""
    return system.step(event)


def run_lockstep(
    events,
    spec: WorkloadSpec,
    stack: Any = "baseline",
    monitor: Optional[BypassSoundnessMonitor] = None,
    check_every: int = 1,
) -> Tuple[Optional[Divergence], Optional[SimulatedSystem]]:
    """Drive ``events`` through a fast and a reference system in lockstep.

    Returns ``(divergence, fast_system)``; the divergence is None when
    every probe matched. The fast system comes back with its replay state
    intact (no teardown) so the caller can run invariant checks over it.

    Neither system tears down or applies the stack's charges: lockstep
    replays bare events, and the charges are a pure function of the
    replay, so leaving them out keeps the probe surface identical for
    every registered stack.
    """
    entry = stack_registry.get_stack(resolve_stack(stack))
    fast = SimulatedSystem(spec, entry)
    reference = build_reference_system(spec, entry, monitor=monitor)
    keys = _PROBE_KEYS_MEMENTO if entry.hardware else _PROBE_KEYS
    check_every = max(1, check_every)
    for index, event in enumerate(events):
        try:
            fast_addr = _step_event(fast, event)
        except Exception as exc:
            return (
                Divergence(index, "exception", "fast", repr(exc), None),
                fast,
            )
        try:
            ref_addr = _step_event(reference, event)
        except Exception as exc:
            return (
                Divergence(index, "exception", "reference", None, repr(exc)),
                fast,
            )
        if monitor is not None and type(event) is Free:
            monitor.on_free(event.obj)
        if fast_addr != ref_addr:
            return (
                Divergence(
                    index, "alloc_addr", "malloc", fast_addr, ref_addr
                ),
                fast,
            )
        if (index + 1) % check_every == 0:
            fast_values = _probe(fast, keys)
            ref_values = _probe(reference, keys)
            for key, fast_value in fast_values.items():
                if fast_value != ref_values[key]:
                    return (
                        Divergence(
                            index,
                            "counter",
                            key,
                            fast_value,
                            ref_values[key],
                        ),
                        fast,
                    )
    return None, fast


# -- prefix minimization ---------------------------------------------------------


def _diverges(events, spec: WorkloadSpec, stack: Any) -> bool:
    try:
        divergence, _system = run_lockstep(events, spec, stack)
    except Exception:
        return False  # a crashing candidate is not a reproduction
    return divergence is not None


def minimize_prefix(
    events: List,
    spec: WorkloadSpec,
    stack: Any = "baseline",
    max_runs: int = 60,
) -> List:
    """Greedy event-prefix minimization.

    Starting from the prefix ending at the divergent event, repeatedly
    try dropping every event of one object (Alloc/Touch/Free travel
    together so the address map stays consistent) and, once, every
    Compute event; keep any removal that still reproduces a divergence.
    Bounded by ``max_runs`` lockstep re-executions.
    """
    current = list(events)
    runs = 0
    objects = []
    seen = set()
    for event in current:
        obj = getattr(event, "obj", None)
        if obj is not None and obj not in seen:
            seen.add(obj)
            objects.append(obj)
    # The divergent event's own object must survive the minimization.
    last_obj = getattr(current[-1], "obj", None)
    for obj in objects:
        if obj == last_obj or runs >= max_runs:
            continue
        candidate = [
            e for e in current if getattr(e, "obj", None) != obj
        ]
        runs += 1
        if candidate and _diverges(candidate, spec, stack):
            current = candidate
    if runs < max_runs and type(current[-1]) is not Compute:
        candidate = [e for e in current if type(e) is not Compute]
        runs += 1
        if candidate and _diverges(candidate, spec, stack):
            current = candidate
    return current


# -- the full differential run ----------------------------------------------------


@dataclass
class DiffReport:
    """Everything one ``repro audit --diff`` leg produced."""

    workload: str
    stack: str
    events: int
    divergence: Optional[Divergence] = None
    minimized_events: Optional[int] = None
    minimized_divergence: Optional[Divergence] = None
    soundness: List[str] = field(default_factory=list)
    invariant_findings: List[Violation] = field(default_factory=list)
    columnar_mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.divergence is None
            and not self.soundness
            and not self.invariant_findings
            and not self.columnar_mismatches
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "stack": self.stack,
            "events": self.events,
            "ok": self.ok,
            "divergence": (
                self.divergence.to_dict() if self.divergence else None
            ),
            "minimized_events": self.minimized_events,
            "minimized_divergence": (
                self.minimized_divergence.to_dict()
                if self.minimized_divergence
                else None
            ),
            "soundness": list(self.soundness),
            "invariant_findings": [
                v.to_dict() for v in self.invariant_findings
            ],
            "columnar_mismatches": list(self.columnar_mismatches),
        }


def replay_events(system: SimulatedSystem, trace: Trace) -> RunResult:
    """The per-event reference for :meth:`SimulatedSystem.run`: the same
    phases (cold start, replay, teardown, collection, pricing), with the
    replay stepping every event through :meth:`SimulatedSystem.step`,
    computes charged where they occur, instead of the packed loop. It
    consults no instrument: no audit check runs and no profile is
    reconciled."""
    if system.cold_start:
        system._run_cold_start(trace)
    for index, event in enumerate(trace.events):
        system.step(event, index)
    system._teardown(trace)
    return system._priced(
        system._collect(trace, trace.alloc_count, trace.free_count)
    )


def _compare_columnar(
    trace: Trace, spec: WorkloadSpec, stack: Any
) -> List[str]:
    """Replay the same trace through the per-event reference and
    ``run()`` on fresh fast systems; the final stats must be
    bit-identical (the columnar form is an encoding, not a model)."""
    stepped_result = replay_events(SimulatedSystem(spec, stack), trace)
    packed_result = SimulatedSystem(spec, stack).run(trace)
    mismatches: List[str] = []
    stepped_stats = stepped_result.stats
    packed_stats = packed_result.stats
    for key in sorted(set(stepped_stats) | set(packed_stats)):
        a = stepped_stats.get(key, 0)
        b = packed_stats.get(key, 0)
        if a != b:
            mismatches.append(f"stats[{key!r}]: events={a} columnar={b}")
            if len(mismatches) >= 20:
                mismatches.append("... (truncated)")
                return mismatches
    if stepped_result.total_cycles != packed_result.total_cycles:
        mismatches.append(
            f"total_cycles: events={stepped_result.total_cycles} "
            f"columnar={packed_result.total_cycles}"
        )
    return mismatches


def run_diff(
    spec: WorkloadSpec,
    stack: Any = "baseline",
    num_allocs: Optional[int] = None,
    check_every: int = 1,
    minimize: bool = True,
    max_minimize_runs: int = 60,
) -> DiffReport:
    """The full differential audit of one workload x stack.

    ``stack`` is a registry name or a :class:`~repro.stacks.Stack`.

    1. Lockstep the fast closures against the naive reference, probing
       the counter surface every ``check_every`` events, with the bypass
       soundness monitor riding the reference.
    2. Run the per-run invariant rules over the fast system's final
       (pre-teardown) state.
    3. When lockstep is clean, cross-check the columnar replay against
       the event replay on fresh systems.
    4. On divergence, greedily minimize the reproducing event prefix.
    """
    spec = spec.resolved()
    if num_allocs is not None:
        spec = replace(spec, num_allocs=num_allocs)
    entry = stack_registry.get_stack(resolve_stack(stack))
    trace = generate_trace(spec)
    events = list(trace.events)
    monitor = BypassSoundnessMonitor() if entry.hardware else None
    report = DiffReport(
        workload=spec.name,
        stack=entry.name,
        events=len(events),
    )
    divergence, fast = run_lockstep(
        events, spec, entry, monitor=monitor, check_every=check_every
    )
    report.divergence = divergence
    if monitor is not None:
        report.soundness = list(monitor.violations)
    if fast is not None:
        auditor = Auditor(epoch="run")
        auditor.check(AuditContext.from_system(fast))
        report.invariant_findings = list(auditor.violations)
    if divergence is not None:
        if minimize:
            prefix = events[: divergence.event_index + 1]
            minimized = minimize_prefix(
                prefix, spec, entry, max_runs=max_minimize_runs
            )
            report.minimized_events = len(minimized)
            report.minimized_divergence, _ = run_lockstep(
                minimized, spec, entry
            )
        return report
    report.columnar_mismatches = _compare_columnar(trace, spec, entry)
    return report
