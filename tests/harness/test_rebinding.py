"""Instrumentation rebinding and replay-path parity regressions.

The replay hot paths are closure factories that bind the instruments of
:mod:`repro.obs.instruments` at construction time. Three properties must
hold:

* after a bundle exits, a fresh system replays bit-identically to one
  that was never instrumented (no residue), for every instrument alone
  and all together;
* the instrumented run simulates the same numbers (instruments observe,
  never perturb);
* the packed columnar path and the event path leave identical simulator
  state — including cache metadata invariants like boolean dirty bits
  (audit rule: cache-writeback-ledger).
"""

import dataclasses
import threading

import pytest

from repro.audit import AuditContext, Auditor
from repro.audit.invariants import CacheWritebackLedger
from repro.fleet.telemetry import FleetRecorder
from repro.harness.system import SimulatedSystem
from repro.obs.events import EventRing
from repro.obs.instruments import Instruments, current, instrumented
from repro.obs.profile import CycleProfile
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.workloads.registry import get_workload
from repro.workloads.synth import generate_trace

#: A live instrument per bundle field. A field added to ``Instruments``
#: without an entry here fails ``test_every_field_has_a_factory``.
FACTORIES = {
    "tracer": Tracer,
    "ring": EventRing,
    "profile": CycleProfile,
    "audit": lambda: Auditor(epoch="event"),
    "recorder": FleetRecorder,
}

FIELD_NAMES = [field.name for field in dataclasses.fields(Instruments)]


def small_spec(num_allocs=250):
    return dataclasses.replace(
        get_workload("html").resolved(), num_allocs=num_allocs
    )


def run_once(spec, stack):
    return SimulatedSystem(spec, stack).run().to_dict()


def test_every_field_has_a_factory():
    assert sorted(FACTORIES) == sorted(FIELD_NAMES)


def assert_rebinds(stack, names):
    spec = small_spec()
    before = run_once(spec, stack)
    with instrumented(**{name: FACTORIES[name]() for name in names}):
        observed = run_once(spec, stack)
    assert current() == Instruments()
    after = run_once(spec, stack)
    assert after == before
    # The instrumented run simulates the same numbers too — instruments
    # observe, never perturb.
    observed.pop("audit", None)
    assert observed == before


@pytest.mark.parametrize("stack", ["memento", "baseline"])
def test_rebinding_after_uninstall_is_bit_identical(stack):
    """Every instrument at once."""
    assert_rebinds(stack, FIELD_NAMES)


@pytest.mark.parametrize("name", FIELD_NAMES)
@pytest.mark.parametrize("stack", ["memento", "baseline"])
def test_each_instrument_alone_rebinds_bit_identically(stack, name):
    assert_rebinds(stack, [name])


def test_instrumented_restores_previous_bundle_on_exception():
    outer, inner = Tracer(), Tracer()
    with instrumented(tracer=outer) as bundle:
        assert current() is bundle and bundle.tracer is outer
        with pytest.raises(RuntimeError):
            with instrumented(tracer=inner, ring=EventRing()):
                assert current().tracer is inner
                raise RuntimeError("boom")
        assert current() is bundle
    assert current() == Instruments()
    assert current().tracer is NULL_TRACER


def test_main_bundle_is_shared_and_worker_bundle_is_private():
    main_tracer, worker_tracer = Tracer(), Tracer()
    seen = {}

    def bare_worker():
        seen["bare"] = current().tracer

    def own_worker(bound, release):
        with instrumented(tracer=worker_tracer):
            seen["own"] = current().tracer
            bound.set()
            release.wait(5)
        seen["own_after"] = current().tracer

    with instrumented(tracer=main_tracer):
        thread = threading.Thread(target=bare_worker)
        thread.start()
        thread.join()
        bound, release = threading.Event(), threading.Event()
        thread = threading.Thread(target=own_worker, args=(bound, release))
        thread.start()
        assert bound.wait(5)
        # The worker's own bundle never shows on the main thread.
        seen["main_during"] = current().tracer
        release.set()
        thread.join()
    assert seen["bare"] is main_tracer
    assert seen["own"] is worker_tracer
    assert seen["main_during"] is main_tracer
    assert seen["own_after"] is main_tracer


@pytest.mark.parametrize("stack", ["memento", "baseline"])
def test_columnar_replay_keeps_boolean_dirty_bits(stack):
    """Audit rule: cache-writeback-ledger.

    The packed write column is an int64 array; pre-fix the columnar path
    installed those ints as cache dirty bits where the event path
    installs booleans, so the two paths left observably different
    metadata.
    """
    spec = small_spec()
    columnar = generate_trace(spec).columnar()
    system = SimulatedSystem(spec, stack)
    system._replay_columnar(columnar)
    assert CacheWritebackLedger().check(AuditContext.from_system(system)) == []
    caches = system.core.caches
    for cache in (caches.l1d, caches.l2, caches.llc):
        for cache_set in cache._sets:
            for dirty in cache_set.values():
                assert isinstance(dirty, bool)
