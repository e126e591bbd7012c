"""Warm/cold function-instance pool with keep-alive and eviction.

The pool is the platform half of the fleet model: every arrival either
reuses a warm instance of its function (paying only the invocation's
warm latency) or cold-starts a new one (paying the container-setup
penalty on top). Between invocations a warm instance sits idle with its
heap resident — that idle residency is *memory stranding*, the quantity
Memento's platform argument turns on, and the pool accounts for it
byte-second by byte-second, bucketed per epoch so a fleet run yields a
stranding timeline rather than one opaque total.

Policies:

* ``keepalive`` — fixed-TTL: an idle instance survives ``keep_alive_s``
  seconds after its last invocation, then is reclaimed (the
  OpenWhisk/Azure default model). ``keep_alive_s == 0`` degenerates to
  every invocation cold with zero stranding, each instance expiring as
  its invocation ends.
* ``lru`` — keep-alive TTL plus a fleet-wide cap of ``max_warm`` idle
  instances; exceeding the cap evicts the least-recently-used idle
  instance immediately.

Mechanics: arrivals are processed in time order. Every live instance
holds exactly one expiry-heap entry, keyed ``(deadline, tiebreak)`` as
of some park; a reuse re-parks the instance without touching the heap.
An instance's key only grows (it is reused only once idle, and parks
again no earlier), so a popped entry that is behind its instance's
current key is pushed back with that key, and expirations still come
out in current-key order. Under ``lru`` a second heap orders idle
instances the same way by ``(idle_since, tiebreak)``. Warm reuse is LIFO
(most-recently-idled first), which both matches real platforms and
maximizes the chance the reused heap is cache/TLB-warm.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Any, Dict, List, Optional, Sequence, Tuple

POLICIES = ("keepalive", "lru")


@dataclass(slots=True, eq=False)
class _Instance:
    """One warm container: its function, heap size, and idle state."""

    function: str
    resident_bytes: float
    #: Pool-assigned id, stable across the instance's whole lifetime —
    #: the telemetry track key for its busy/idle span sequence.
    uid: int
    idle_since: float = 0.0
    #: Tiebreak of the instance's latest park; a heap entry with another
    #: tiebreak is behind (the instance was reused since it was pushed).
    tiebreak: int = 0
    alive: bool = True


@dataclass
class PoolStats:
    """Everything one pool pass produced."""

    invocations: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    expirations: int = 0
    evictions: int = 0
    peak_warm: int = 0
    #: Total idle residency in byte-seconds.
    stranded_byte_seconds: float = 0.0
    #: Idle residency per epoch (byte-seconds), the stranding timeline.
    stranding_timeline: List[float] = field(default_factory=list)


class FleetPool:
    """Simulate instance reuse for one stack's arrival stream."""

    def __init__(
        self,
        keep_alive_s: float,
        policy: str = "keepalive",
        max_warm: int = 0,
        epoch_edges: Optional[Sequence[float]] = None,
        recorder: Optional[Any] = None,
        stack: str = "",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        if keep_alive_s < 0:
            raise ValueError("keep_alive_s must be >= 0")
        if max_warm < 0:
            raise ValueError("max_warm must be >= 0 (0 = unlimited)")
        self.keep_alive_s = float(keep_alive_s)
        self.policy = policy
        self.max_warm = max_warm
        #: The LRU heap is kept only when a cap can evict.
        self._capped = policy == "lru" and max_warm > 0
        self._edges = list(epoch_edges) if epoch_edges else []
        self.stats = PoolStats(
            stranding_timeline=[0.0] * max(0, len(self._edges) - 1)
        )
        #: function -> LIFO stack of idle instances.
        self._idle: Dict[str, List[_Instance]] = {}
        #: expiry heap, one entry per live instance: (deadline, tiebreak,
        #: inst).
        self._expiry: List[Tuple[float, int, _Instance]] = []
        #: LRU order over idle instances: (idle_since, tiebreak, inst).
        self._lru: List[Tuple[float, int, _Instance]] = []
        self._idle_count = 0
        self._tiebreak = 0
        #: Optional FleetRecorder (duck-typed): observes instance
        #: lifetimes; never consulted for pool decisions, so results are
        #: bit-identical with or without it.
        self._recorder = recorder
        self._stack = stack
        self._next_uid = 0
        #: Arrival time of the invocation being processed.
        self._last_now = 0.0

    @property
    def idle_count(self) -> int:
        """Idle (warm, resident) instances right now."""
        return self._idle_count

    def _retire(self, inst: _Instance, end: float, outcome: str) -> None:
        """End ``inst``'s life at ``end``: credit and record its idle
        span (an empty one too, so the spans account for every instance
        the pool created) and take it out of the idle pool."""
        self._credit_stranding(inst.resident_bytes, inst.idle_since, end)
        if self._recorder is not None:
            self._recorder.instance_span(
                self._stack,
                inst.function,
                inst.uid,
                "idle",
                inst.idle_since,
                max(end, inst.idle_since),
                outcome=outcome,
            )
        inst.alive = False
        stack = self._idle[inst.function]
        stack.remove(inst)
        if not stack:
            del self._idle[inst.function]
        self._idle_count -= 1

    # -- stranding accounting -------------------------------------------

    def _credit_stranding(
        self, resident_bytes: float, start: float, end: float
    ) -> None:
        """Account an idle residency of ``resident_bytes`` from
        ``start`` to ``end``, split across epoch buckets."""
        if end <= start:
            return
        credit = resident_bytes * (end - start)
        self.stats.stranded_byte_seconds += credit
        edges = self._edges
        timeline = self.stats.stranding_timeline
        lo = bisect_right(edges, start) - 1
        if 0 <= lo < len(timeline) and end <= edges[lo + 1]:
            # The whole span lies in one bucket.
            timeline[lo] += credit
        else:
            self._spread(resident_bytes, start, end, lo)

    def _spread(
        self, resident_bytes: float, start: float, end: float, lo: int
    ) -> None:
        """Credit a span that crosses a bucket edge (or lies outside the
        timeline) bucket by bucket; ``lo`` is the index of the last edge
        at or before ``start``."""
        edges = self._edges
        timeline = self.stats.stranding_timeline
        for i in range(max(0, lo), len(timeline)):
            seg_start = max(start, edges[i])
            seg_end = min(end, edges[i + 1])
            if seg_end <= seg_start:
                if edges[i] >= end:
                    break
                continue
            timeline[i] += resident_bytes * (seg_end - seg_start)

    # -- expiry and eviction --------------------------------------------

    def _reap(self, now: float) -> None:
        """Retire every idle instance whose keep-alive lapsed by ``now``."""
        expiry = self._expiry
        while expiry:
            deadline, tiebreak, inst = expiry[0]
            if deadline > now:
                return
            if not inst.alive:
                heappop(expiry)
            elif tiebreak != inst.tiebreak:
                # Reused since this entry was pushed: requeue it at the
                # instance's current deadline.
                heapreplace(
                    expiry,
                    (
                        inst.idle_since + self.keep_alive_s,
                        inst.tiebreak,
                        inst,
                    ),
                )
            else:
                heappop(expiry)
                self._retire(inst, deadline, "expired")
                self.stats.expirations += 1

    def _enforce_cap(self) -> None:
        """LRU policy: evict oldest-idle instances beyond ``max_warm``."""
        lru = self._lru
        while self._idle_count > self.max_warm and lru:
            _, tiebreak, inst = lru[0]
            if not inst.alive:
                heappop(lru)
            elif tiebreak != inst.tiebreak:
                heapreplace(lru, (inst.idle_since, inst.tiebreak, inst))
            else:
                heappop(lru)
                # Evicted at ``_last_now``, the arrival time of the
                # invocation whose instance just parked, not at its park
                # time: an evicted instance still busy at that arrival
                # gets an empty idle span and no stranding.
                self._retire(inst, self._last_now, "evicted")
                self.stats.evictions += 1

    # -- the public step --------------------------------------------------

    def invoke(
        self,
        function: str,
        now: float,
        warm_s: float,
        cold_extra_s: float,
        resident_bytes: float,
    ) -> Tuple[bool, float]:
        """Process one arrival; returns ``(cold, latency_s)``.

        A warm hit pops the most-recently-idled instance of ``function``
        (crediting its idle span as stranding); a miss cold-starts. In
        both cases the instance parks idle again when the invocation
        finishes. ``keep_alive_s == 0`` never parks: the instance expires
        as its invocation ends, so every arrival is cold and nothing
        strands.
        """
        self._last_now = now
        expiry = self._expiry
        if expiry and expiry[0][0] <= now:
            self._reap(now)
        stats = self.stats
        stats.invocations += 1
        idle = self._idle
        stack = idle.get(function)
        # LIFO reuse, skipping instances still busy at ``now`` (an
        # instance parks when its invocation *finishes*, which may be
        # after the next arrival).
        inst = None
        if stack:
            if stack[-1].idle_since <= now:
                inst = stack.pop()
            else:
                for i in range(len(stack) - 2, -1, -1):
                    if stack[i].idle_since <= now:
                        inst = stack.pop(i)
                        break
        if inst is not None:
            if not stack:
                # Parking re-adds it last: ``finish`` retires the idle
                # instances in the dict's order.
                del idle[function]
            self._idle_count -= 1
            start = inst.idle_since
            if now > start:
                credit = inst.resident_bytes * (now - start)
                stats.stranded_byte_seconds += credit
                edges = self._edges
                timeline = stats.stranding_timeline
                lo = bisect_right(edges, start) - 1
                if 0 <= lo < len(timeline) and now <= edges[lo + 1]:
                    timeline[lo] += credit
                else:
                    self._spread(inst.resident_bytes, start, now, lo)
            inst.resident_bytes = resident_bytes
            stats.warm_starts += 1
            cold, latency = False, warm_s
        else:
            inst = _Instance(function, resident_bytes, self._next_uid)
            self._next_uid += 1
            stats.cold_starts += 1
            cold, latency = True, warm_s + cold_extra_s
            start = now
        park = now + latency
        inst.idle_since = park
        keep_alive = self.keep_alive_s
        recorder = self._recorder
        if recorder is not None:
            # The idle span a reuse ended (an empty one is left out),
            # this invocation, and with no keep-alive the instance's
            # empty last idle span.
            if now > start:
                recorder.instance_span(
                    self._stack, function, inst.uid, "idle", start, now,
                    outcome="reused",
                )
            recorder.instance_span(
                self._stack, function, inst.uid, "busy", now, park,
                cold=cold,
            )
            if keep_alive == 0:
                recorder.instance_span(
                    self._stack, function, inst.uid, "idle", park, park,
                    outcome="expired",
                )
        if keep_alive > 0:
            # Park: idle (warm, resident) from ``park``.
            self._tiebreak += 1
            tiebreak = inst.tiebreak = self._tiebreak
            idle.setdefault(function, []).append(inst)
            self._idle_count += 1
            if self._idle_count > stats.peak_warm:
                stats.peak_warm = self._idle_count
            if cold:
                # A reused instance still holds its entry from an
                # earlier park; ``_reap`` and ``_enforce_cap`` requeue it.
                heappush(expiry, (park + keep_alive, tiebreak, inst))
                if self._capped:
                    heappush(self._lru, (park, tiebreak, inst))
            if self._capped:
                self._enforce_cap()
        else:
            stats.expirations += 1
        return cold, latency

    def finish(self, horizon: float) -> PoolStats:
        """End the run: reap, then credit still-idle spans up to the
        earlier of each instance's deadline and ``horizon``."""
        self._reap(horizon)
        for inst in [inst for stack in self._idle.values() for inst in stack]:
            until = min(horizon, inst.idle_since + self.keep_alive_s)
            self._retire(inst, max(until, inst.idle_since), "horizon")
        return self.stats
