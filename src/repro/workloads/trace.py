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

For replay, :meth:`Trace.columnar` packs the event list into
:class:`ColumnarTrace` — five parallel ``array`` columns (a kind tag plus
four integer operand slots) — so the harness's hot loop iterates machine
integers instead of chasing per-event objects and ``isinstance`` chains.

On top of the packed form, :meth:`ColumnarTrace.segments` builds a
:class:`SegmentIndex`: the event stream with every compute event
pre-reduced to exact cycle/byte sums and the remaining operands
pre-decoded. The harness's columnar replay loop iterates it, and the
index is memoized alongside the columnar form so replays of the same
trace share the one-time pass.
"""

from __future__ import annotations

from array import array
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

#: Columnar kind tags (stable — BENCH trajectories and any persisted
#: packed traces rely on them).
KIND_ALLOC = 0
KIND_FREE = 1
KIND_TOUCH = 2
KIND_COMPUTE = 3

#: Segment opcodes (:class:`SegmentIndex`). The first four alias the
#: kind tags; single-line touches get their own opcode so the replay
#: loop's hottest case needs no per-event ``lines == 1`` test.
OP_ALLOC = KIND_ALLOC
OP_FREE = KIND_FREE
OP_TOUCH_MULTI = KIND_TOUCH
OP_COMPUTE = KIND_COMPUTE
OP_TOUCH_SINGLE = 4


class SegmentIndex:
    """Replay-ready view of a :class:`ColumnarTrace`.

    Two transformations, both exact refactorings of the per-event replay:

    * **Compute extraction.** Compute events' only effects are additions
      into interned counters (``cycles.app``, DRAM byte/line totals) that
      nothing reads mid-replay, and the sums commute exactly: cycle/byte
      totals are integers, and the derived line count ``bytes / 64`` is a
      dyadic rational far below 2**53, so every partial sum is exactly
      representable and any accumulation order produces the same float.
      All compute events are therefore pre-reduced here into
      ``compute_cycles``/``compute_bytes`` and leave the dispatch stream
      entirely — which also merges the alloc/touch runs they used to
      interrupt.

    * **Operand pre-decode.** The surviving stream is stored as flat,
      fully decoded operand columns the replay loop zips over directly:
      single-line touches are split into their own opcode at pack time
      (``OP_TOUCH_SINGLE``) so the hot path needs no per-event
      ``lines == 1`` test, their byte offsets are premultiplied, and
      touch write flags are rebooled (the packed column is int64; cache
      dirty bits must stay booleans — audit rule cache-writeback-ledger).

      ==============  ====================================================
      column          meaning per opcode
      ==============  ====================================================
      ``ops``         OP_* opcode (computes already stripped)
      ``f0``          object id (alloc/free/touch)
      ``f1``          alloc size; touch line count; unused for frees
      ``f2``          OP_TOUCH_SINGLE: byte offset (premultiplied);
                      OP_TOUCH_MULTI: line offset; otherwise unused
      ``writes``      touch write flag as ``bool``
      ==============  ====================================================

    Maximal same-opcode runs on the generated workloads average ~1.2
    events (the generator interleaves alloc/touch/free tightly), which is
    why the replay loop executes the flat stream per event rather than
    dispatching per run — see DESIGN.md §15 for the arithmetic.
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

    def __init__(
        self,
        ops: List[int],
        f0: List[int],
        f1: List[int],
        f2: List[int],
        writes: List[bool],
        compute_cycles: int,
        compute_bytes: int,
        events: int,
    ) -> None:
        self.ops = ops
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.writes = writes
        self.compute_cycles = compute_cycles
        self.compute_bytes = compute_bytes
        self.events = events

    @classmethod
    def build(cls, columnar: "ColumnarTrace") -> "SegmentIndex":
        return cls(*_segment(columnar), len(columnar.kinds))

    def __len__(self) -> int:
        return len(self.ops)


def _segment(columnar: "ColumnarTrace"):
    """One pass over the packed columns; returns the
    :class:`SegmentIndex` constructor columns."""
    compute_cycles = 0
    compute_bytes = 0
    ops: List[int] = []
    f0: List[int] = []
    f1: List[int] = []
    f2: List[int] = []
    writes: List[bool] = []
    for kind, a, b, c, d in zip(
        columnar.kinds, columnar.f0, columnar.f1, columnar.f2, columnar.f3
    ):
        if kind == KIND_COMPUTE:
            compute_cycles += a
            compute_bytes += b
            continue
        if kind == KIND_TOUCH and b == 1:
            ops.append(OP_TOUCH_SINGLE)
            f2.append(c * 64)
        else:
            ops.append(kind)
            f2.append(c)
        f0.append(a)
        f1.append(b)
        writes.append(d != 0)
    return ops, f0, f1, f2, writes, compute_cycles, compute_bytes


class ColumnarTrace:
    """Packed struct-of-arrays form of an event sequence.

    ``kinds[i]`` tags event ``i``; the operand columns ``f0..f3`` carry its
    fields (unused slots are zero):

    =========  =====  ========  =============  =========
    kind       f0     f1        f2             f3
    =========  =====  ========  =============  =========
    ALLOC      obj    size      —              —
    FREE       obj    —         —              —
    TOUCH      obj    lines     line_offset    write
    COMPUTE    cycles dram      —              —
    =========  =====  ========  =============  =========
    """

    __slots__ = ("kinds", "f0", "f1", "f2", "f3", "_segments")

    def __init__(
        self,
        kinds: array,
        f0: array,
        f1: array,
        f2: array,
        f3: array,
    ) -> None:
        self.kinds = kinds
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.f3 = f3
        self._segments: Optional[SegmentIndex] = None

    @classmethod
    def pack(cls, events: List[Event]) -> Optional["ColumnarTrace"]:
        """Pack ``events``; returns None if any event is not exactly one
        of the four canonical kinds (the replayer then steps events one
        by one and rejects the offending event by index)."""
        kinds = array("B", bytes(len(events)))
        f0 = array("q", kinds)
        f1 = array("q", kinds)
        f2 = array("q", kinds)
        f3 = array("q", kinds)
        for index, event in enumerate(events):
            kind = type(event)
            if kind is Touch:
                kinds[index] = KIND_TOUCH
                f0[index] = event.obj
                f1[index] = event.lines
                f2[index] = event.line_offset
                f3[index] = 1 if event.write else 0
            elif kind is Compute:
                kinds[index] = KIND_COMPUTE
                f0[index] = event.cycles
                f1[index] = event.dram_bytes
            elif kind is Alloc:
                kinds[index] = KIND_ALLOC
                f0[index] = event.obj
                f1[index] = event.size
            elif kind is Free:
                kinds[index] = KIND_FREE
                f0[index] = event.obj
            else:
                return None
        return cls(kinds, f0, f1, f2, f3)

    def segments(self) -> "SegmentIndex":
        """Memoized run segmentation (see :class:`SegmentIndex`).

        Columns are immutable once packed, so the index is built at most
        once per packed trace — replays (and the benchmark protocol,
        which packs outside every timed region) amortize it away.
        """
        index = self._segments
        if index is None:
            with current_instruments().tracer.span(
                "trace.segment", events=len(self.kinds)
            ):
                index = SegmentIndex.build(self)
            self._segments = index
        return index

    def to_events(self) -> List[Event]:
        """Inverse of :meth:`pack` (round-trip tested)."""
        out: List[Event] = []
        for kind, a, b, c, d in zip(
            self.kinds, self.f0, self.f1, self.f2, self.f3
        ):
            if kind == KIND_TOUCH:
                out.append(Touch(a, b, c, bool(d)))
            elif kind == KIND_COMPUTE:
                out.append(Compute(a, b))
            elif kind == KIND_ALLOC:
                out.append(Alloc(a, b))
            else:
                out.append(Free(a))
        return out

    def __len__(self) -> int:
        return len(self.kinds)


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
    _columnar: Optional[Tuple[int, Optional[ColumnarTrace]]] = field(
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

    def columnar(self) -> Optional[ColumnarTrace]:
        """The packed replay form (built once, re-packed if the event
        count changed). None when the trace holds non-canonical events."""
        cached = self._columnar
        if cached is None or cached[0] != len(self.events):
            with current_instruments().tracer.span(
                "trace.pack", trace=self.name, events=len(self.events)
            ):
                cached = (len(self.events), ColumnarTrace.pack(self.events))
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
