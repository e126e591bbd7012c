"""Host speed, for timings that do not drift with the neighbours.

The benchmark runs on a few vCPUs of a shared host, and the same fixed
piece of pure-Python work takes two to three times as long when the
neighbours are busy (CPU time grows with wall time, so it is not time
stolen from the process; it is the core running slower). That drift
moves over seconds and minutes, so it shifts whole runs, and it does
not move both vCPUs together.

:class:`HostSpeed` times :func:`reference_work`, a fixed piece of
benchmark-owned code that no change to the program can speed up, in the
gap before and after each timed unit (one service batch, one set-up).
:func:`corrected` then scales each unit's time by ``REFERENCE_S`` over
the reference time around it: the time the unit would have taken on a
host where the reference work takes exactly ``REFERENCE_S``. A faster
program gives a proportionally smaller corrected time; a busier host
does not. The raw medians are printed with every result.

The host can change speed within a few seconds, so a unit that long is
split: :class:`Segments` takes a short sample at every boundary the
program reports (each finished engine run, through the engine's public
``progress`` callback) and corrects each segment on its own.

Usage as a child process: ``python hostspeed.py`` reads one line per
sample from standard input, runs the reference work, and writes its
duration in seconds; it exits when standard input closes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, List

#: Rounds of :func:`reference_work` per timing (about 7-20 ms on a
#: two-vCPU shared VM, depending on the neighbours).
REFERENCE_ROUNDS = 30_000
#: Timings per sample; a sample is their median, so that one timing
#: cut short by an interrupt does not scale a whole unit.
TIMINGS = 3
#: Nominal duration of one timing: corrected times are times on a host
#: where the reference work takes exactly this long.
REFERENCE_S = 0.0125


def reference_work(rounds: int = REFERENCE_ROUNDS) -> int:
    """Dictionary updates and integer arithmetic, the interpreter's
    staple work, in a fixed amount."""
    table: dict = {}
    total = 0
    for i in range(rounds):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total + len(table)


#: Rounds of one short sample, taken at every segment boundary.
SHORT_ROUNDS = 10_000


def _timed(rounds: int = REFERENCE_ROUNDS, timings: int = TIMINGS) -> float:
    """Median duration of ``timings`` runs of ``rounds`` rounds of the
    reference work, scaled to :data:`REFERENCE_ROUNDS` rounds."""
    durations = []
    for _ in range(timings):
        begun = perf_counter()
        reference_work(rounds)
        durations.append(perf_counter() - begun)
    return statistics.median(durations) * REFERENCE_ROUNDS / rounds


def short_sample() -> float:
    """One short timing of the reference work in this process."""
    return _timed(SHORT_ROUNDS, 1)


class HostSpeed:
    """Samples the reference work at once in ``processes`` idle child
    processes, one per vCPU the measured work spreads over (the
    service's server and load generator); a sample is their mean."""

    def __init__(self, processes: int) -> None:
        self.samples: List[float] = []
        self._children: List[subprocess.Popen] = []
        try:
            for _ in range(processes):
                self._children.append(
                    subprocess.Popen(
                        [sys.executable, str(Path(__file__).resolve())],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                        bufsize=1,
                    )
                )
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Time the reference work in every child, concurrently; returns
        the mean duration and keeps it in :attr:`samples`."""
        for child in self._children:
            child.stdin.write("\n")
        durations = [float(c.stdout.readline()) for c in self._children]
        self.samples.append(statistics.fmean(durations))
        return self.samples[-1]

    def close(self) -> None:
        """Stop every child and wait until each has ended."""
        for child in self._children:
            try:
                child.stdin.close()
            except OSError:
                pass
        for child in self._children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            child.stdout.close()
        self._children = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def corrected(raw: float, before: float, after: float) -> float:
    """``raw`` seconds, timed between reference samples ``before`` and
    ``after``, at the nominal host speed."""
    return raw * REFERENCE_S / ((before + after) / 2.0)


class Segments:
    """Times one unit in segments, taking a host-speed sample from
    ``sample`` at each boundary; the samples' own time is left out.
    :meth:`mark` ends a segment and takes any arguments, so it can be
    passed as a progress callback."""

    def __init__(self, sample: Callable[[], float] = short_sample) -> None:
        self.raw = 0.0
        self.corrected = 0.0
        self._sample = sample
        self._last = sample()
        self._begun = perf_counter()

    def mark(self, *_: object) -> None:
        elapsed = perf_counter() - self._begun
        last, self._last = self._last, self._sample()
        self.raw += elapsed
        self.corrected += corrected(elapsed, last, self._last)
        self._begun = perf_counter()


def _serve() -> None:
    for _ in sys.stdin:
        print(repr(_timed()), flush=True)


if __name__ == "__main__":
    _serve()
