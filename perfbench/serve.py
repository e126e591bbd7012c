"""Launch ``repro serve`` for the benchmark, with optional layer spans.

Usage: ``python serve.py STATS_PATH -- <repro serve arguments>``

Runs the ordinary ``repro serve`` command in this process. ``SIGUSR1``
from the load generator installs the wrappers of :mod:`layers` and
``SIGUSR2`` removes them (the server is idle when either arrives); each
is acknowledged by writing the number of signals handled so far to
``STATS_PATH + ".ack"``. On exit, after the server drained its queue,
``STATS_PATH`` receives the process's peak resident set and the spans
recorded while the wrappers were installed.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path

from layers import Recorder


def main(argv: list) -> int:
    stats_path = Path(argv[0])
    serve_args = argv[argv.index("--") + 1:]
    recorder = Recorder()
    # A trace target the program no longer has stops the server here,
    # before it listens, rather than in the middle of a run.
    recorder.install()
    recorder.uninstall()
    ack = stats_path.with_name(stats_path.name + ".ack")
    handled = [0]

    def toggle_tracing(signum: int, frame: object) -> None:
        if signum == signal.SIGUSR1:
            recorder.install()
        else:
            recorder.uninstall()
        handled[0] += 1
        _write(ack, str(handled[0]))

    signal.signal(signal.SIGUSR1, toggle_tracing)
    signal.signal(signal.SIGUSR2, toggle_tracing)

    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    recorder.uninstall()
    stats = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "spans": recorder.snapshot(),
    }
    _write(stats_path, json.dumps(stats))
    return code


def _write(path: Path, text: str) -> None:
    """Replace ``path`` atomically, so a reader never sees it half
    written."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
