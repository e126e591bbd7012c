"""Memento configuration.

Defaults follow the paper: 64 size classes of 8 B up to 512 B, 256 objects
per arena ("balancing metadata cost and internal fragmentation", §3.1),
bypass on, and the eager-refill optimization that hides HOT-miss latency.
The flags exist so the ablation benches can switch individual mechanisms
off.
"""

from __future__ import annotations

from dataclasses import dataclass

NUM_SIZE_CLASSES = 64
OBJECTS_PER_ARENA = 256
SMALL_THRESHOLD = NUM_SIZE_CLASSES * 8  # 512 B


@dataclass(frozen=True)
class MementoConfig:
    """Tunable parameters of the Memento hardware.

    Frozen (hence hashable and usable inside a
    :class:`~repro.harness.engine.RunRequest`): every field participates
    in the experiment engine's content key, so two runs differing in any
    parameter here occupy distinct cache entries.
    """

    num_size_classes: int = NUM_SIZE_CLASSES
    objects_per_arena: int = OBJECTS_PER_ARENA
    #: Reserved virtual region per process, divided evenly into size
    #: classes. 64 MB gives each class a 1 MB sub-region — ample for
    #: function-scale heaps with arena-VA recycling — and keeps the
    #: Memento page table compact (two size classes share each PTE page).
    region_bytes: int = 64 << 20
    #: Main-memory bypass for newly allocated lines (§3.3).
    bypass_enabled: bool = True
    #: Eagerly load/request the next arena when the last free object of the
    #: HOT-resident arena is allocated, hiding HOT-miss latency (§3.1).
    eager_refill: bool = True
    #: Pages the OS hands the hardware page pool per replenishment.
    pool_replenish_pages: int = 512
    #: Pool low-water mark that triggers an OS replenishment.
    pool_low_water: int = 32
    #: Per-core AAC entry capacity: bump pointers for this many size
    #: classes are cached ("a small number of size classes per workload is
    #: sufficient", §3.2).
    aac_classes_per_core: int = 16

    @property
    def small_threshold(self) -> int:
        """Largest request served by Memento (bytes)."""
        return self.num_size_classes * 8

    @property
    def per_class_region_bytes(self) -> int:
        """Even carve of the reserved region (§3.2)."""
        return self.region_bytes // self.num_size_classes

    def object_size(self, size_class: int) -> int:
        """Object size in bytes for a 0-based size-class index."""
        if not 0 <= size_class < self.num_size_classes:
            raise ValueError(f"size class {size_class} out of range")
        return (size_class + 1) * 8


DEFAULT_CONFIG = MementoConfig()
