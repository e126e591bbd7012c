"""Sampled hardware-event ring buffer for deep dives.

When bound (``repro run --trace`` or ``instrumented(ring=...)``), the
simulator's interesting-but-frequent hardware events — HOT alloc/free
hits, AAC bumps, bypass instantiations, TLB shootdowns — are sampled
into a fixed-size ring: every ``sample_every``-th occurrence of each
kind keeps a ``(seq, kind, value)`` record, and the ring holds only the
most recent ``capacity`` records, so memory stays bounded no matter how
long the replay runs.

The ring is off by default and the emit sites are gated so the disabled
cost is essentially zero: hot closures (the bypass ``instantiate`` path)
capture the bound ring at construction time and are built without
any ring code when none is bound; the per-alloc method sites check a
``None`` attribute. Bind the ring *before* constructing the system
whose events you want.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple


class EventRing:
    """Bounded, sampled event record: ``(seq, kind, value)`` tuples.

    ``seq`` is the per-kind occurrence number of the sampled event (1 is
    the first occurrence), so consumers can recover the sampling rate and
    approximate totals. ``counts`` holds exact per-kind totals.

    With ``timestamps=True`` each *sampled* record grows a fourth field —
    the ``time.perf_counter`` reading at record time (the same clock the
    tracer uses, so the timeline exporter can place events inside spans).
    The clock is read only on the sampled 1-in-``sample_every`` path, and
    the default stays off so existing 3-tuple consumers are unaffected.
    """

    __slots__ = (
        "capacity",
        "sample_every",
        "timestamps",
        "counts",
        "_buf",
        "_head",
        "_clock",
    )

    def __init__(
        self,
        capacity: int = 4096,
        sample_every: int = 64,
        timestamps: bool = False,
    ) -> None:
        if capacity <= 0 or sample_every <= 0:
            raise ValueError("capacity and sample_every must be positive")
        self.capacity = capacity
        self.sample_every = sample_every
        self.timestamps = timestamps
        self.counts: Dict[str, int] = {}
        self._buf: List[Optional[Tuple]] = [None] * capacity
        self._head = 0
        self._clock = time.perf_counter

    def record(self, kind: str, value: int = 0) -> None:
        """Count one occurrence of ``kind``; sample it into the ring."""
        counts = self.counts
        seen = counts.get(kind, 0) + 1
        counts[kind] = seen
        if seen % self.sample_every:
            return
        if self.timestamps:
            record = (seen, kind, value, self._clock())
        else:
            record = (seen, kind, value)
        self._buf[self._head % self.capacity] = record
        self._head += 1

    def events(self) -> List[Tuple]:
        """Sampled records, oldest first (4-tuples when timestamping)."""
        if self._head <= self.capacity:
            return [e for e in self._buf[: self._head] if e is not None]
        start = self._head % self.capacity
        rotated = self._buf[start:] + self._buf[:start]
        return [e for e in rotated if e is not None]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (ledger/metrics sidecar payload)."""
        return {
            "capacity": self.capacity,
            "sample_every": self.sample_every,
            "timestamps": self.timestamps,
            "counts": dict(self.counts),
            "events": [list(e) for e in self.events()],
        }

    def clear(self) -> None:
        self.counts = {}
        self._buf = [None] * self.capacity
        self._head = 0
