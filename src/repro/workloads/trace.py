"""Trace event model.

A workload is a deterministic sequence of four event kinds:

* :class:`Alloc` — an allocation request (``obj`` is a trace-local id).
* :class:`Free` — the object dies. For GC'd runtimes this marks the point
  of unreachability; the allocator decides when reclamation happens.
* :class:`Touch` — the application accesses ``lines`` cache lines of the
  object starting at ``line_offset`` (drives faults, caches, and bypass).
* :class:`Compute` — application work between memory-management activity:
  cycles plus statistically-modeled DRAM traffic.

Traces are replayed against a baseline or Memento system by the harness;
they are also analyzed directly for the characterization figures.

For replay, :meth:`Trace.columnar` packs the event list in one pass into
a :class:`PackedTrace`: parallel opcode and operand lists with every
compute event folded into two exact sums, so the harness's replay loop
iterates plain integers instead of chasing per-event objects and
``isinstance`` chains. The packed form is memoized on the trace, so
replays of the same trace share the one pass. Packing is the one check
that every event is one of the four kinds: an event that is not raises
``ValueError`` naming its index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from repro.obs.instruments import current as current_instruments


@dataclass(frozen=True, slots=True)
class Alloc:
    obj: int
    size: int


@dataclass(frozen=True, slots=True)
class Free:
    obj: int


@dataclass(frozen=True, slots=True)
class Touch:
    obj: int
    lines: int = 1
    line_offset: int = 0
    write: bool = True


@dataclass(frozen=True, slots=True)
class Compute:
    cycles: int
    dram_bytes: int = 0


Event = Union[Alloc, Free, Touch, Compute]

#: Packed-trace opcodes (:class:`PackedTrace`). Compute events have none:
#: packing folds them into two sums.
OP_ALLOC = 0
OP_FREE = 1
OP_TOUCH = 2


def unknown_event(event: object, index: Optional[int] = None) -> ValueError:
    """The error for an event that is not exactly one of the four kinds;
    ``index`` names its position when known."""
    where = "" if index is None else f" at index {index}"
    return ValueError(
        f"unknown trace event type {type(event).__name__!r}{where}: "
        "expected Alloc, Free, Touch or Compute"
    )


class PackedTrace:
    """The replay form of an event list, built in one pass by
    :meth:`Trace.columnar`.

    Two transformations, both exact refactorings of the per-event replay:

    * **Compute folding.** Compute events' only effects are additions
      into interned counters (``cycles.app``, DRAM byte/line totals) that
      nothing reads mid-replay, and the sums commute exactly: cycle/byte
      totals are integers, and the derived line count ``bytes / 64`` is a
      dyadic rational far below 2**53, so every partial sum is exactly
      representable and any accumulation order produces the same float.
      All compute events are therefore reduced into
      ``compute_cycles``/``compute_bytes`` and leave the dispatch stream.

    * **Flat operand columns.** The surviving events are stored as
      parallel lists the replay loop zips over directly; touch write
      flags are stored as ``bool`` (cache dirty bits must stay booleans —
      audit rule cache-writeback-ledger).

      ==========  ==========================================
      column      meaning per opcode
      ==========  ==========================================
      ``ops``     OP_* opcode (computes already folded)
      ``f0``      object id
      ``f1``      alloc size; touch line count; 0 for frees
      ``f2``      touch line offset (in lines); otherwise 0
      ``writes``  touch write flag; otherwise False
      ==========  ==========================================

    ``len()`` is the number of events packed, computes included.
    """

    __slots__ = (
        "ops",
        "f0",
        "f1",
        "f2",
        "writes",
        "compute_cycles",
        "compute_bytes",
        "events",
    )

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.f0: List[int] = []
        self.f1: List[int] = []
        self.f2: List[int] = []
        self.writes: List[bool] = []
        self.compute_cycles = 0
        self.compute_bytes = 0
        self.events = 0

    @classmethod
    def pack(cls, events: List[Event]) -> "PackedTrace":
        """Pack ``events``; raises ``ValueError`` naming the index of the
        first event that is not exactly one of the four kinds."""
        packed = cls()
        op = packed.ops.append
        f0 = packed.f0.append
        f1 = packed.f1.append
        f2 = packed.f2.append
        writes = packed.writes.append
        compute_cycles = compute_bytes = 0
        for event in events:
            kind = type(event)
            if kind is Touch:
                op(OP_TOUCH)
                f0(event.obj)
                f1(event.lines)
                f2(event.line_offset)
                writes(True if event.write else False)
            elif kind is Compute:
                compute_cycles += event.cycles
                compute_bytes += event.dram_bytes
            elif kind is Alloc:
                op(OP_ALLOC)
                f0(event.obj)
                f1(event.size)
                f2(0)
                writes(False)
            elif kind is Free:
                op(OP_FREE)
                f0(event.obj)
                f1(0)
                f2(0)
                writes(False)
            else:
                index = next(i for i, e in enumerate(events) if e is event)
                raise unknown_event(event, index)
        packed.compute_cycles = compute_cycles
        packed.compute_bytes = compute_bytes
        packed.events = len(events)
        return packed

    def __len__(self) -> int:
        return self.events


@dataclass
class Trace:
    """A named, replayable event sequence with summary metadata."""

    name: str
    language: str
    category: str  # "function" | "dataproc" | "platform"
    events: List[Event] = field(default_factory=list)
    # Lazily built caches, invalidated when the event count changes
    # (traces are append-only between builds and replays).
    _summary: Optional[Tuple[int, int, int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _columnar: Optional[Tuple[int, PackedTrace]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def _summarize(self) -> Tuple[int, int, int, int]:
        """One cached pass for the O(n) summary properties."""
        summary = self._summary
        if summary is None or summary[0] != len(self.events):
            allocs = frees = alloc_bytes = 0
            for event in self.events:
                kind = type(event)
                if kind is Alloc:
                    allocs += 1
                    alloc_bytes += event.size
                elif kind is Free:
                    frees += 1
            summary = (len(self.events), allocs, frees, alloc_bytes)
            self._summary = summary
        return summary

    @property
    def alloc_count(self) -> int:
        return self._summarize()[1]

    @property
    def free_count(self) -> int:
        return self._summarize()[2]

    @property
    def total_alloc_bytes(self) -> int:
        return self._summarize()[3]

    def allocs(self) -> Iterator[Alloc]:
        return (e for e in self.events if isinstance(e, Alloc))

    def columnar(self) -> PackedTrace:
        """The packed replay form (built once, re-packed if the event
        count changed); raises ``ValueError`` naming the index of an
        event that is not one of the four kinds."""
        cached = self._columnar
        if cached is None or cached[0] != len(self.events):
            with current_instruments().tracer.span(
                "trace.pack", trace=self.name, events=len(self.events)
            ):
                cached = (len(self.events), PackedTrace.pack(self.events))
            self._columnar = cached
        return cached[1]

    def validate(self) -> None:
        """Structural sanity: frees reference live objects exactly once,
        touches reference live objects, sizes are positive."""
        live = set()
        for event in self.events:
            if isinstance(event, Alloc):
                if event.size <= 0:
                    raise ValueError(f"non-positive size in {event}")
                if event.obj in live:
                    raise ValueError(f"duplicate allocation id {event.obj}")
                live.add(event.obj)
            elif isinstance(event, Free):
                if event.obj not in live:
                    raise ValueError(f"free of dead/unknown id {event.obj}")
                live.discard(event.obj)
            elif isinstance(event, Touch):
                if event.obj not in live:
                    raise ValueError(f"touch of dead/unknown id {event.obj}")
