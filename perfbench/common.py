"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from hostspeed import Segments

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark runs in.
ROOT = HERE.parent
#: Every file a run writes lives under here; each run removes its own
#: ``run-<pid>`` directory when it ends.
SCRATCH = ROOT / ".perfbench-tmp"
RUN_DIR = SCRATCH / f"run-{os.getpid()}"

#: Set-up is repeated this many times per run unless a workload asks for
#: more; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Resolved execution settings and run facts, printed with the result.
    info: Dict[str, Any] = field(default_factory=dict)


def scratch_dir(prefix: str) -> Path:
    """A fresh private directory inside the checkout."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=RUN_DIR))


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form: equal digests mean the
    payloads agree bit for bit (floats serialise exactly)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expected() -> Dict[str, Any]:
    """The pinned output digests in ``expected.json``."""
    return json.loads((HERE / "expected.json").read_text())


def median_setup(
    one_setup: Callable[[Callable[..., None]], Any],
    sample: Callable[[], float],
    discard: Optional[Callable[[Any], None]] = None,
    repeats: int = SETUP_REPEATS,
) -> "tuple[float, float, List[Any]]":
    """Run ``one_setup(progress)`` ``repeats`` times, each timed in
    :class:`~hostspeed.Segments` that take host-speed samples from
    ``sample``; ``progress`` ends a segment. Returns the median duration
    corrected for host speed, the raw median, and every repetition's
    value. The last value is what the timed passes use; ``discard``
    releases each earlier one, untimed, before the next repetition
    starts."""
    fixed: List[float] = []
    raw: List[float] = []
    values: List[Any] = []
    for i in range(repeats):
        if i and discard is not None:
            discard(values[-1])
        clock = Segments(sample)
        values.append(one_setup(clock.mark))
        clock.mark()
        fixed.append(clock.corrected)
        raw.append(clock.raw)
    return statistics.median(fixed), statistics.median(raw), values
