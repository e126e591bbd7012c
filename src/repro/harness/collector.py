"""One scope for the cyclic garbage collector over a simulator shard.

A :class:`~repro.harness.system.SimulatedSystem` is a few hundred
tracked objects of cyclic garbage once its run ends (closures, cells
and bound methods stored on their owners; its cache and TLB sets are
plain dicts of ints, which the collector never tracks), so only the
cyclic collector can free it. Left to run freely, young collections re-walk
the live system again and again while it is built and replayed, and
dead systems are promoted until a full collection finds them.

:func:`paused` keeps the collector off while any shard runs, across
threads (a depth count under a lock; the outermost exit restores the
caller's setting), and when a thread leaves its own outermost scope it
runs one young collection. With the collector off nothing is promoted
during the shard, so that collection frees the whole dead system before
the next shard starts. Scopes nested on one thread (the engine's shard
around ``SimulatedSystem.run``) collect only at the outer exit: an
inner collection would find the system still alive and promote it out
of reach of the young collection that follows. Threads whose shards
overlap do promote each other's live systems, and while they overlap
the depth never reaches zero to hand collection back; so the exit also
sweeps generation 1 or 2 whenever its count has reached the
interpreter's threshold, as automatic collection would have.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_was_enabled = False
_local = threading.local()


@contextmanager
def paused() -> Iterator[None]:
    """Run the body with the cyclic collector paused; see the module
    docstring for how scopes nest and when they collect."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    nested = getattr(_local, "depth", 0)
    _local.depth = nested + 1
    try:
        yield
    finally:
        _local.depth = nested
        if not nested:
            # Before re-enabling: the first allocation after that would
            # otherwise start an automatic collection of its choosing.
            counts, thresholds = gc.get_count(), gc.get_threshold()
            due = [g for g in (2, 1) if counts[g] >= thresholds[g]]
            gc.collect(due[0] if due else 0)
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
