"""One slot for every instrument that watches a run.

An :class:`Instruments` bundle holds the four observers a run can carry:
the span :class:`~repro.obs.tracing.Tracer`, the cycle-attribution
:class:`~repro.obs.profile.CycleProfile`, the invariant
:class:`~repro.audit.invariants.Auditor` and the fleet
:class:`~repro.fleet.telemetry.FleetRecorder`. Every field is off by
default (the null tracer, ``None`` for the rest), and an instrument only
ever reads simulated state, so a run's numbers are the same with any of
them on.

Code that observes asks :func:`current` for the bundle. Each reader keeps
its own timing: simulator components bind the profile/audit when
they are constructed (the disabled replay path then carries no
instrument code at all), ``simulate_fleet`` reads the recorder at entry,
and spans ask for the tracer when they open. Set a bundle with
:func:`instrumented`, *before* building the systems it should watch::

    with instrumented(tracer=Tracer(), profile=CycleProfile()) as bundle:
        SimulatedSystem(spec, "memento").run()
    print(bundle.profile.to_dict())

Thread rule: a bundle set on the main thread is seen by every thread
that sets none of its own; a bundle set on any other thread stays
private to that thread (the service's queue workers trace their jobs
this way without interleaving span forests).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.obs.tracing import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.audit.invariants import Auditor
    from repro.fleet.telemetry import FleetRecorder
    from repro.obs.profile import CycleProfile


@dataclass(frozen=True)
class Instruments:
    """The instruments bound to a run; every field is off by default."""

    tracer: Any = NULL_TRACER
    profile: Optional["CycleProfile"] = None
    audit: Optional["Auditor"] = None
    recorder: Optional["FleetRecorder"] = None

    def __post_init__(self) -> None:
        if self.tracer is None:
            object.__setattr__(self, "tracer", NULL_TRACER)


_main = Instruments()
_local = threading.local()


def current() -> Instruments:
    """The calling thread's bundle: its own if it set one, else the
    main thread's."""
    bundle = getattr(_local, "bundle", None)
    return _main if bundle is None else bundle


@contextmanager
def instrumented(**fields: Any) -> Iterator[Instruments]:
    """Bind ``fields`` over the current bundle until the block exits.

    Fields not named keep their current value; ``tracer=None`` means the
    null tracer. The previous bundle comes back on exit, also when the
    block raises.
    """
    global _main
    bundle = replace(current(), **fields)
    if threading.current_thread() is threading.main_thread():
        previous, _main = _main, bundle
        try:
            yield bundle
        finally:
            _main = previous
    else:
        previous = getattr(_local, "bundle", None)
        _local.bundle = bundle
        try:
            yield bundle
        finally:
            _local.bundle = previous
