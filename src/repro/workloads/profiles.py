"""Per-language statistical profiles for allocation size and lifetime.

The numbers come from the paper's own characterization:

* Fig. 2 — 93 % of allocations are under 512 B overall (98 % for data
  processing, 99 % for the serverless platform); sub-512 B distributions
  are workload-dependent with no consistent cross-workload pattern.
* Fig. 3 — lifetimes (malloc-free distance in same-size-class
  allocations) are bimodal: 71 % freed within 16, 27 % never freed before
  function exit. C++ is mostly short-lived; Python is short-lived with a
  long-lived minority; Golang is long-lived (GC never fires in short
  functions); the platform is long-lived; data processing is short-lived.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

SizeSampler = Callable[[random.Random], int]

#: Common CPython small-object sizes: object headers, tuples, small dicts,
#: string fragments (all pre-aligned to pymalloc's 8 B classes).
PYTHON_SIZE_MODES: Sequence[Tuple[int, float]] = (
    (16, 0.10), (24, 0.14), (32, 0.13), (48, 0.12), (56, 0.11),
    (64, 0.10), (88, 0.08), (112, 0.07), (160, 0.06), (224, 0.04),
    (320, 0.03), (448, 0.02),
)

#: C++ (DeathStarBench/jemalloc): many tiny nodes and string buffers.
CPP_SIZE_MODES: Sequence[Tuple[int, float]] = (
    (8, 0.08), (16, 0.16), (24, 0.12), (32, 0.15), (48, 0.12),
    (64, 0.12), (96, 0.08), (128, 0.07), (192, 0.05), (256, 0.03),
    (384, 0.02),
)

#: Go: interface headers, small structs, slice backing fragments.
GO_SIZE_MODES: Sequence[Tuple[int, float]] = (
    (16, 0.20), (32, 0.22), (48, 0.16), (64, 0.13), (96, 0.09),
    (128, 0.08), (192, 0.05), (256, 0.04), (384, 0.02), (512, 0.01),
)

#: Kangaroo-style tiny-object value sizes for the key-value stores [37].
KV_SIZE_MODES: Sequence[Tuple[int, float]] = (
    (24, 0.16), (40, 0.22), (64, 0.22), (100, 0.16), (160, 0.12),
    (240, 0.07), (400, 0.05),
)

SIZE_MODES_BY_LANGUAGE = {
    "python": PYTHON_SIZE_MODES,
    "cpp": CPP_SIZE_MODES,
    "go": GO_SIZE_MODES,
}


def mode_sampler(
    modes: Sequence[Tuple[int, float]], jitter: float = 0.0
) -> SizeSampler:
    """Build a sampler drawing from weighted size modes.

    ``jitter`` perturbs each draw by up to ±jitter of the mode size
    (rounded to 8 B), modeling variable-length payloads around each mode.

    A draw is exactly ``rng.choices(sizes, weights)[0]`` followed by
    ``rng.uniform(-jitter, jitter)``: the cumulative weights are summed
    once here instead of on every draw, and each draw evaluates the
    standard library's own expressions on ``rng.random()``.
    """
    sizes = [size for size, _ in modes]
    cum_weights = list(accumulate(weight for _, weight in modes))
    total = cum_weights[-1] + 0.0
    if not 0.0 < total < math.inf:
        raise ValueError("size mode weights must have a positive finite sum")
    hi = len(sizes) - 1
    low, span = -jitter, jitter - -jitter

    def sample(rng: random.Random) -> int:
        size = sizes[bisect(cum_weights, rng.random() * total, 0, hi)]
        if jitter:
            delta = (low + span * rng.random()) * size
            size = max(8, int(size + delta) + 7 & ~7)
        return min(size, 512)

    return sample


#: ``log`` of the smallest large-allocation size.
_LOG_LARGE_MIN = math.log(600)


def large_sampler(rng: random.Random, max_bytes: int = 65_536) -> int:
    """Sizes for the rare >512 B allocations, log-uniform from just above
    the threshold up to ``max_bytes`` (the Fig. 2 tail). Kept mostly in
    the tens of KB so the large path's bins recycle addresses the way
    real repeated buffer allocations do."""
    exponent = _LOG_LARGE_MIN + (
        math.log(max_bytes) - _LOG_LARGE_MIN
    ) * rng.random()
    return int(math.exp(exponent))


@dataclass(frozen=True)
class LifetimeProfile:
    """Mixture over malloc-free distance (same-size-class allocations).

    ``short``: freed within ``short_max`` allocations (Fig. 3's [1-16]
    bucket); ``medium``: freed within (short_max, medium_max]; the rest
    never free before exit (the 257-Inf / OS-reclaimed bucket).
    """

    short: float
    medium: float
    short_max: int = 16
    medium_max: int = 256

    @property
    def never(self) -> float:
        return max(0.0, 1.0 - self.short - self.medium)

    def sample(self, rng: random.Random) -> Optional[int]:
        """Draw a distance, or None for never-freed."""
        roll = rng.random()
        if roll < self.short:
            # Geometric-ish within [1, short_max]: short distances dominate.
            # rng.expovariate(1 / 4.0), spelled out.
            return min(
                self.short_max,
                1 + int(-math.log(1.0 - rng.random()) / (1 / 4.0)),
            )
        if roll < self.short + self.medium:
            return rng.randint(self.short_max + 1, self.medium_max)
        return None


#: Default lifetime mixes per language (tuned to Fig. 3's bars).
LIFETIMES_BY_LANGUAGE = {
    "python": LifetimeProfile(short=0.80, medium=0.05),
    "cpp": LifetimeProfile(short=0.90, medium=0.05),
    "go": LifetimeProfile(short=0.08, medium=0.07),
}

#: Data processing: predominantly small+short-lived (§2.2), with a
#: medium-lived stored-value fraction that drains old slabs and drives
#: the decay-purge/refault churn behind Table 2's 62% kernel share.
DATAPROC_LIFETIME = LifetimeProfile(short=0.73, medium=0.27)

#: Serverless platform: 99% small, long-lived under the Go GC (§2.2).
PLATFORM_LIFETIME = LifetimeProfile(short=0.05, medium=0.10)


@dataclass(frozen=True)
class LanguageProfile:
    """Bundled defaults for one runtime."""

    language: str
    small_fraction: float
    size_modes: Sequence[Tuple[int, float]]
    lifetime: LifetimeProfile


PROFILES = {
    "python": LanguageProfile(
        "python", 0.93, PYTHON_SIZE_MODES, LIFETIMES_BY_LANGUAGE["python"]
    ),
    "cpp": LanguageProfile(
        "cpp", 0.95, CPP_SIZE_MODES, LIFETIMES_BY_LANGUAGE["cpp"]
    ),
    "go": LanguageProfile(
        "go", 0.94, GO_SIZE_MODES, LIFETIMES_BY_LANGUAGE["go"]
    ),
}
