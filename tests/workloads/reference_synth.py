"""Reference trace generator: the event-object form, kept as an oracle.

This is ``generate_trace`` as it was before the generator wrote packed
columns: it appends one frozen ``Alloc``/``Touch``/``Free``/``Compute``
object per event, and the samplers below are the ones it drew from,
built on ``random.choices``, ``random.uniform`` and
``random.expovariate``. ``repro.workloads.synth.generate_trace`` must
make the same draws in the same order and yield the same events, which
``test_synth_differential.py`` checks for every registered workload and
over random specs. Do not optimise this copy.

It departs from the original in three places only:

* the lifetime draw is :func:`lifetime_sample` below, the original body
  of ``LifetimeProfile.sample``, so that no sampler of the package under
  test is reused here;
* a startup size is clamped to at least 1 B. The original wrote
  ``Alloc(size=0)`` whenever ``sample * startup_size_multiplier`` was
  below 1, a trace that every stack rejected; the package now clamps
  the same way, and no other trace changes;
* the finished event list is wrapped in a ``Trace`` at the end instead
  of being appended into one built first, since a trace packs its
  events when it is built. The change is mechanical: no draw moves.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.profiles import LifetimeProfile
from repro.workloads.synth import WorkloadSpec
from repro.workloads.trace import Alloc, Compute, Free, Touch, Trace


def mode_sampler(modes: Sequence[Tuple[int, float]], jitter: float = 0.0):
    sizes = [size for size, _ in modes]
    weights = [weight for _, weight in modes]

    def sample(rng: random.Random) -> int:
        size = rng.choices(sizes, weights=weights)[0]
        if jitter:
            delta = rng.uniform(-jitter, jitter) * size
            size = max(8, int(size + delta) + 7 & ~7)
        return min(size, 512)

    return sample


def large_sampler(rng: random.Random, max_bytes: int = 65_536) -> int:
    exponent = rng.uniform(math.log(600), math.log(max_bytes))
    return int(math.exp(exponent))


def lifetime_sample(
    profile: LifetimeProfile, rng: random.Random
) -> Optional[int]:
    roll = rng.random()
    if roll < profile.short:
        return min(profile.short_max, 1 + int(rng.expovariate(1 / 4.0)))
    if roll < profile.short + profile.medium:
        return rng.randint(profile.short_max + 1, profile.medium_max)
    return None


def generate_trace(spec: WorkloadSpec) -> Trace:
    """Generate the deterministic event trace for ``spec``."""
    spec = spec.resolved()
    rng = random.Random(spec.seed)
    sample_small = mode_sampler(spec.size_modes, spec.size_jitter)
    sample_lifetime = functools.partial(lifetime_sample, spec.lifetime)
    events: List = []

    next_id = 0
    sizes: Dict[int, int] = {}
    # Per-size-class allocation counters and pending frees:
    # heap entries are (due_count, obj_id).
    class_counter: Dict[int, int] = {}
    pending: Dict[int, List[Tuple[int, int]]] = {}
    phase_objects: List[int] = []
    phase_length = max(1, spec.num_allocs // max(1, spec.phases))

    def flush_due(size_class: int) -> None:
        due_heap = pending.get(size_class)
        count = class_counter.get(size_class, 0)
        while due_heap and due_heap[0][0] <= count:
            _, obj = heapq.heappop(due_heap)
            if rng.random() < spec.retouch_prob:
                events.append(Touch(obj, lines=1, write=False))
            events.append(Free(obj))
            del sizes[obj]

    startup_until = int(spec.startup_fraction * spec.num_allocs)

    for index in range(spec.num_allocs):
        in_startup = index < startup_until
        jitter = rng.uniform(0.6, 1.4)
        compute = spec.compute_per_alloc * (
            spec.startup_compute_scale if in_startup else 1.0
        )
        events.append(
            Compute(
                cycles=max(1, int(compute * jitter)),
                dram_bytes=int(spec.app_dram_per_alloc * jitter),
            )
        )

        if in_startup:
            # Runtime startup: small, never freed, touched once.
            # Clamped to at least 1 B (see the module docstring).
            size = max(1, min(
                512, int(sample_small(rng) * spec.startup_size_multiplier)
            ))
            events.append(Alloc(obj := next_id, size))
            next_id += 1
            sizes[obj] = size
            events.append(Touch(obj, lines=max(1, -(-size // 64))))
            continue

        is_large = (
            spec.large_every is not None
            and index % spec.large_every == spec.large_every - 1
        ) or rng.random() > spec.small_fraction
        obj = next_id
        next_id += 1

        if is_large:
            size = large_sampler(rng, spec.large_max)
            events.append(Alloc(obj, size))
            sizes[obj] = size
            pages = max(1, int(size / 4096 * spec.large_touch_fraction))
            # Touch one line in each touched page: enough to fault them.
            for page in range(pages):
                events.append(
                    Touch(obj, lines=1, line_offset=page * 64, write=True)
                )
            size_class = -1  # large requests share one lifetime stream
            class_counter[size_class] = class_counter.get(size_class, 0) + 1
            heapq.heappush(
                pending.setdefault(size_class, []),
                (class_counter[size_class] + spec.large_lifetime, obj),
            )
            flush_due(size_class)
            continue

        size = sample_small(rng)
        events.append(Alloc(obj, size))
        sizes[obj] = size
        lines = max(1, -(-size // 64)) + spec.extra_touch_lines
        events.append(Touch(obj, lines=lines, write=True))

        size_class = (size + 7) // 8 - 1
        class_counter[size_class] = class_counter.get(size_class, 0) + 1
        if spec.phases > 1 and rng.random() < spec.phase_local:
            phase_objects.append(obj)
        else:
            distance = sample_lifetime(rng)
            if (
                distance is None
                and spec.phases > 1
                and index > spec.longlived_early_fraction * spec.num_allocs
            ):
                # Late "immortal" draws become phase-local: long-lived
                # state is built early in real functions.
                phase_objects.append(obj)
            elif distance is not None:
                heapq.heappush(
                    pending.setdefault(size_class, []),
                    (class_counter[size_class] + distance, obj),
                )
        flush_due(size_class)

        if spec.phases > 1 and (index + 1) % phase_length == 0:
            # Phase boundary: the phase's working set dies in a batch.
            for dead in phase_objects:
                events.append(Free(dead))
                del sizes[dead]
            phase_objects.clear()

    # Objects with finite scheduled lifetimes die before exit even if
    # their size class sees no further allocations; drain them so the
    # trace's lifetime statistics match the sampled mixture. Never-freed
    # objects (no schedule entry) stay live for the OS to batch-reclaim.
    for due_heap in pending.values():
        while due_heap:
            _, obj = heapq.heappop(due_heap)
            events.append(Free(obj))
            del sizes[obj]
    for dead in phase_objects:
        events.append(Free(dead))
        del sizes[dead]

    return Trace(
        name=spec.name,
        language=spec.language,
        category=spec.category,
        events=events,
    )
