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

For replay, a trace is a :class:`PackedTrace`: parallel opcode and
operand lists, with every compute event kept aside as a
``(position, cycles, dram_bytes)`` record and folded into two exact
sums, so the harness's replay loop iterates plain integers instead of
chasing per-event objects and ``isinstance`` chains. The packed form is
the only form a trace holds. The generator
(:func:`repro.workloads.synth.generate_trace`) writes it directly; an
event list handed to :class:`Trace` is packed at construction, which is
the one check that every event is one of the four kinds: an event that
is not raises ``ValueError`` naming its index. :attr:`Trace.events`
builds the event objects from the columns on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, starmap
from typing import Iterator, List, Optional, Sequence, Tuple, Union


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


def _unpacked(op: int, obj: int, a: int, b: int, write: bool) -> Event:
    """The event one row of :class:`PackedTrace` columns packs."""
    if op == OP_TOUCH:
        return Touch(obj, a, b, write)
    if op == OP_ALLOC:
        return Alloc(obj, a)
    return Free(obj)


class PackedTrace:
    """The replay form of an event list: written directly by the trace
    generator, or built in one pass from an event list by :meth:`pack`.

    Two transformations, both exact refactorings of stepping the events
    one by one (:meth:`SimulatedSystem.step`):

    * **Compute folding.** Compute events' only effects are additions
      into interned counters (``cycles.app``, DRAM byte/line totals) that
      nothing reads mid-replay, and the sums commute exactly: cycle/byte
      totals are integers, and the derived line count ``bytes / 64`` is a
      dyadic rational far below 2**53, so every partial sum is exactly
      representable and any accumulation order produces the same float.
      All compute events are therefore reduced into
      ``compute_cycles``/``compute_bytes`` and leave the dispatch stream.
      ``computes`` keeps one ``(position, cycles, dram_bytes)`` record
      per compute event, where ``position`` counts the packed rows
      before it, so the event stream can be rebuilt and audit epochs
      can count computes.

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
        "computes",
        "compute_cycles",
        "compute_bytes",
    )

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.f0: List[int] = []
        self.f1: List[int] = []
        self.f2: List[int] = []
        self.writes: List[bool] = []
        self.computes: List[Tuple[int, int, int]] = []
        self.compute_cycles = 0
        self.compute_bytes = 0

    @classmethod
    def pack(cls, events: Sequence[Event]) -> "PackedTrace":
        """Pack ``events``; raises ``ValueError`` naming the index of the
        first event that is not exactly one of the four kinds."""
        packed = cls()
        ops = packed.ops
        op = ops.append
        f0 = packed.f0.append
        f1 = packed.f1.append
        f2 = packed.f2.append
        writes = packed.writes.append
        compute = packed.computes.append
        compute_cycles = compute_bytes = 0
        for index, event in enumerate(events):
            kind = type(event)
            if kind is Touch:
                op(OP_TOUCH)
                f0(event.obj)
                f1(event.lines)
                f2(event.line_offset)
                writes(True if event.write else False)
            elif kind is Compute:
                compute((len(ops), event.cycles, event.dram_bytes))
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
                raise unknown_event(event, index)
        packed.compute_cycles = compute_cycles
        packed.compute_bytes = compute_bytes
        return packed

    def __len__(self) -> int:
        return len(self.ops) + len(self.computes)


class Trace:
    """A named, replayable event sequence with summary metadata.

    A trace holds one :class:`PackedTrace`: the generator's own, or the
    packing of the event list it was constructed with. ``len()``,
    :meth:`columnar` and the summary properties read the columns;
    :attr:`events` builds the event objects from them on each read.
    """

    __slots__ = ("name", "language", "category", "_packed")

    def __init__(
        self,
        name: str,
        language: str,
        category: str,  # "function" | "dataproc" | "platform"
        events: Union[Sequence[Event], PackedTrace] = (),
    ) -> None:
        """``events`` is an event list, packed here (``ValueError``
        naming the index of an event that is not one of the four kinds),
        or a :class:`PackedTrace` the trace takes as it is."""
        self.name = name
        self.language = language
        self.category = category
        self._packed = (
            events
            if isinstance(events, PackedTrace)
            else PackedTrace.pack(events)
        )

    @property
    def events(self) -> List[Event]:
        """The event list, built from the packed columns on each read:
        each compute record goes back before the packed row at its
        position."""
        packed = self._packed
        rows = zip(packed.ops, packed.f0, packed.f1, packed.f2, packed.writes)
        events: List[Event] = []
        done = 0
        for at, cycles, dram_bytes in packed.computes:
            events += starmap(_unpacked, islice(rows, at - done))
            done = at
            events.append(Compute(cycles, dram_bytes))
        events += starmap(_unpacked, rows)
        return events

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self._packed)

    @property
    def alloc_count(self) -> int:
        return self._packed.ops.count(OP_ALLOC)

    @property
    def free_count(self) -> int:
        return self._packed.ops.count(OP_FREE)

    @property
    def total_alloc_bytes(self) -> int:
        packed = self._packed
        return sum(compress(packed.f1, [op == OP_ALLOC for op in packed.ops]))

    def allocs(self) -> Iterator[Alloc]:
        return (e for e in self.events if isinstance(e, Alloc))

    def columnar(self) -> PackedTrace:
        """The packed replay form (the trace's one form)."""
        return self._packed

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
