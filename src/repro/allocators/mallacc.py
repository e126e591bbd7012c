"""Idealized Mallacc baseline (§6.7).

Mallacc [Kanev et al., ASPLOS'17] adds a small in-core malloc cache that
accelerates TCMalloc's *userspace* fast paths: size-class lookup, free-list
pop/push. The paper compares Memento against an idealized Mallacc whose
cache has zero latency and always hits — i.e. userspace fast paths become
free, while slow paths and every kernel cost remain.

Mallacc is hardwired to C++ allocators, so the model extends the jemalloc
stack and is only meaningful for C++ workloads (DeathStarBench).
"""

from __future__ import annotations

from repro.allocators.jemalloc import JemallocAllocator


#: Fraction of the fast path the malloc cache covers: the size-class
#: lookup and free-list head pop/push. The surrounding work (function
#: prologue/epilogue, slab accounting, statistics) still executes even
#: when the cache always hits at zero latency — Kanev et al. report
#: malloc latency reductions of roughly half, not elimination.
ACCELERATED_FRACTION = 0.55


class MallaccAllocator(JemallocAllocator):
    """jemalloc with an idealized always-hit, zero-latency malloc cache.

    Only the fast-path constants differ: each jemalloc small malloc or
    free charges exactly one fast op, which the cache shortens to its
    residual and counts as ``alloc_fast_accelerated`` /
    ``free_fast_accelerated``. Slow paths keep their full cost.
    """

    name = "mallacc"

    def _make_malloc_small(self):
        self._c_alloc_fast = int(
            self.costs.alloc_fast * (1 - ACCELERATED_FRACTION)
        )
        malloc_small = super()._make_malloc_small()
        accelerated = self.stats.counter("alloc_fast_accelerated")

        def _malloc_small(core, size):
            allocation = malloc_small(core, size)
            accelerated.pending += 1
            return allocation

        return _malloc_small

    def _make_free_small(self):
        self._c_free_fast = int(
            self.costs.free_fast * (1 - ACCELERATED_FRACTION)
        )
        free_small = super()._make_free_small()
        accelerated = self.stats.counter("free_fast_accelerated")

        def _free_small(core, allocation):
            free_small(core, allocation)
            accelerated.pending += 1

        return _free_small
