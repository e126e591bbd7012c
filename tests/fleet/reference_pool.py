"""Reference ``FleetPool``: the straightforward form, kept as an oracle.

This is the pool as first written: every park pushes a fresh
``(deadline, tiebreak, generation, instance)`` entry, stale entries are
skipped on pop, and each step goes through small helper methods.
``repro.fleet.pool`` must agree with it exactly — same counts, same
stranding floats in the same order, same telemetry spans — which
``test_pool_differential.py`` checks over random arrival streams. Do
not optimise this copy.

Policies:

* ``keepalive`` — fixed-TTL: an idle instance survives ``keep_alive_s``
  seconds after its last invocation, then is reclaimed (the
  OpenWhisk/Azure default model). ``keep_alive_s == 0`` degenerates to
  every invocation cold with zero stranding, each instance expiring as
  its invocation ends.
* ``lru`` — keep-alive TTL plus a fleet-wide cap of ``max_warm`` idle
  instances; exceeding the cap evicts the least-recently-used idle
  instance immediately.

Mechanics: arrivals are processed in time order. Expiry is a lazy-deleted
min-heap — each idle period pushes ``(deadline, instance)`` and stale
entries (the instance was reused first) are skipped on pop. Warm reuse
is LIFO (most-recently-idled first), which both matches real platforms
and maximizes the chance the reused heap is cache/TLB-warm.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

POLICIES = ("keepalive", "lru")


@dataclass
class _Instance:
    """One warm container: its function, heap size, and idle state."""

    function: str
    resident_bytes: float
    idle_since: float = 0.0
    #: Monotonic generation stamp; an expiry-heap entry is stale unless
    #: its recorded generation matches (the instance was reused since).
    generation: int = 0
    alive: bool = True
    #: Pool-assigned id, stable across the instance's whole lifetime —
    #: the telemetry track key for its busy/idle span sequence.
    uid: int = 0


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
        self._edges = list(epoch_edges) if epoch_edges else []
        self.stats = PoolStats(
            stranding_timeline=[0.0] * max(0, len(self._edges) - 1)
        )
        #: function -> LIFO stack of idle instances.
        self._idle: Dict[str, List[_Instance]] = {}
        #: lazy-deleted expiry heap: (deadline, tiebreak, generation, inst).
        self._expiry: List[Tuple[float, int, int, _Instance]] = []
        #: LRU order over idle instances: (idle_since, tiebreak, gen, inst).
        self._lru: List[Tuple[float, int, int, _Instance]] = []
        self._idle_count = 0
        self._tiebreak = 0
        #: Optional FleetRecorder (duck-typed): observes instance
        #: lifetimes; never consulted for pool decisions, so results are
        #: bit-identical with or without it.
        self._recorder = recorder
        self._stack = stack
        self._next_uid = 0

    @property
    def idle_count(self) -> int:
        """Idle (warm, resident) instances right now."""
        return self._idle_count

    def _record_idle_end(
        self, inst: _Instance, end: float, outcome: str
    ) -> None:
        """Telemetry: one idle span, from park to ``end``.

        Every retirement (``expired``, ``evicted``, ``horizon``) is
        recorded, even one with no idle time (an instance evicted or cut
        off at the horizon before it parked), so the spans account for
        every instance the pool created; an empty ``reused`` span is
        left out.
        """
        if self._recorder is not None and (
            end > inst.idle_since or outcome != "reused"
        ):
            self._recorder.instance_span(
                self._stack,
                inst.function,
                inst.uid,
                "idle",
                inst.idle_since,
                max(end, inst.idle_since),
                outcome=outcome,
            )

    # -- stranding accounting -------------------------------------------

    def _credit_stranding(self, inst: _Instance, until: float) -> None:
        """Account ``inst``'s idle residency from ``idle_since`` to
        ``until``, split across epoch buckets."""
        start, end = inst.idle_since, until
        if end <= start:
            return
        self.stats.stranded_byte_seconds += inst.resident_bytes * (
            end - start
        )
        if not self._edges:
            return
        timeline = self.stats.stranding_timeline
        lo = max(0, bisect_right(self._edges, start) - 1)
        for i in range(lo, len(timeline)):
            seg_start = max(start, self._edges[i])
            seg_end = min(end, self._edges[i + 1])
            if seg_end <= seg_start:
                if self._edges[i] >= end:
                    break
                continue
            timeline[i] += inst.resident_bytes * (seg_end - seg_start)

    # -- instance bookkeeping -------------------------------------------

    def _park(self, inst: _Instance, now: float) -> None:
        """Mark ``inst`` idle (warm, resident) starting at ``now``."""
        inst.idle_since = now
        inst.generation += 1
        self._tiebreak += 1
        self._idle.setdefault(inst.function, []).append(inst)
        self._idle_count += 1
        self.stats.peak_warm = max(self.stats.peak_warm, self._idle_count)
        if self.keep_alive_s > 0:
            heapq.heappush(
                self._expiry,
                (
                    now + self.keep_alive_s,
                    self._tiebreak,
                    inst.generation,
                    inst,
                ),
            )
        if self.policy == "lru":
            heapq.heappush(
                self._lru, (now, self._tiebreak, inst.generation, inst)
            )
            self._enforce_cap()

    def _remove_idle(self, inst: _Instance) -> None:
        stack = self._idle.get(inst.function, [])
        stack.remove(inst)
        if not stack:
            self._idle.pop(inst.function, None)
        self._idle_count -= 1

    def _reap(self, now: float) -> None:
        """Retire every idle instance whose keep-alive lapsed by ``now``."""
        while self._expiry and self._expiry[0][0] <= now:
            deadline, _, generation, inst = heapq.heappop(self._expiry)
            if not inst.alive or inst.generation != generation:
                continue  # stale: reused (or evicted) since this push
            self._credit_stranding(inst, deadline)
            self._record_idle_end(inst, deadline, "expired")
            inst.alive = False
            self._remove_idle(inst)
            self.stats.expirations += 1

    def _enforce_cap(self) -> None:
        """LRU policy: evict oldest-idle instances beyond ``max_warm``."""
        if self.max_warm <= 0:
            return
        while self._idle_count > self.max_warm and self._lru:
            idle_since, _, generation, inst = heapq.heappop(self._lru)
            if not inst.alive or inst.generation != generation:
                continue
            # Evicted "now" == the moment the cap was exceeded, which is
            # the new instance's park time; its idle span ends here.
            self._credit_stranding(inst, self._last_now)
            self._record_idle_end(inst, self._last_now, "evicted")
            inst.alive = False
            self._remove_idle(inst)
            self.stats.evictions += 1

    # -- the public step --------------------------------------------------

    _last_now = 0.0

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
        self._reap(now)
        self.stats.invocations += 1
        stack = self._idle.get(function)
        # LIFO reuse, skipping instances still busy at ``now`` (an
        # instance parks when its invocation *finishes*, which may be
        # after the next arrival).
        inst = None
        if stack:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].idle_since <= now:
                    inst = stack.pop(i)
                    break
        if inst is not None:
            if not stack:
                self._idle.pop(function, None)
            self._idle_count -= 1
            self._credit_stranding(inst, now)
            self._record_idle_end(inst, now, "reused")
            inst.generation += 1  # invalidate queued expiry/LRU entries
            inst.resident_bytes = resident_bytes
            self.stats.warm_starts += 1
            cold, latency = False, warm_s
        else:
            inst = _Instance(function=function, resident_bytes=resident_bytes)
            inst.uid = self._next_uid
            self._next_uid += 1
            self.stats.cold_starts += 1
            cold, latency = True, warm_s + cold_extra_s
        if self._recorder is not None:
            self._recorder.instance_span(
                self._stack,
                function,
                inst.uid,
                "busy",
                now,
                now + latency,
                cold=cold,
            )
        if self.keep_alive_s > 0:
            self._park(inst, now + latency)
        else:
            inst.idle_since = now + latency
            self._record_idle_end(inst, inst.idle_since, "expired")
            inst.alive = False
            self.stats.expirations += 1
        return cold, latency

    def finish(self, horizon: float) -> PoolStats:
        """End the run: reap, then credit still-idle spans up to the
        earlier of each instance's deadline and ``horizon``."""
        self._reap(horizon)
        for stack in self._idle.values():
            for inst in stack:
                until = min(horizon, inst.idle_since + self.keep_alive_s)
                self._credit_stranding(inst, max(until, inst.idle_since))
                self._record_idle_end(
                    inst, max(until, inst.idle_since), "horizon"
                )
                inst.alive = False
        self._idle.clear()
        self._idle_count = 0
        return self.stats
