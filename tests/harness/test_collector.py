"""A shard's simulator state dies with the shard.

The engine runs each shard under one collector scope
(:func:`repro.harness.collector.paused`): the cyclic collector is off
while any shard runs, on any thread, and the dead ``SimulatedSystem`` is
freed before the engine hands the result back.
"""

import gc
import threading
import weakref
from dataclasses import replace

import pytest

from repro.harness import collector
from repro.harness.engine import ExperimentEngine, RunRequest
from repro.workloads.registry import get_workload


def miss(seed: int = 0) -> RunRequest:
    spec = replace(get_workload("html"), num_allocs=300)
    return RunRequest(replace(spec, seed=spec.seed + seed), stack="memento")


def make_engine(tmp_path, name="cache") -> ExperimentEngine:
    return ExperimentEngine(cache_dir=tmp_path / name, jobs=1)


@pytest.fixture
def systems(monkeypatch):
    """Weak references to every system a request builds, and whether
    the collector was enabled when each was built."""
    built = []
    build = RunRequest.build_system

    def tracked(self, *args, **kwargs):
        system = build(self, *args, **kwargs)
        built.append((weakref.ref(system), gc.isenabled()))
        return system

    monkeypatch.setattr(RunRequest, "build_system", tracked)
    return built


@pytest.fixture
def collector_enabled():
    assert gc.isenabled()
    yield
    gc.enable()


def test_system_is_dead_when_run_many_returns(
    tmp_path, systems, collector_enabled
):
    make_engine(tmp_path).run_many([miss()])
    ((system, enabled_at_build),) = systems
    assert not enabled_at_build
    assert system() is None
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled(
    tmp_path, systems, collector_enabled
):
    gc.disable()
    make_engine(tmp_path).run_many([miss()])
    assert not gc.isenabled()
    assert systems[0][0]() is None


def test_nested_scopes_restore_only_at_the_outermost_exit(
    collector_enabled,
):
    with collector.paused():
        with collector.paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with collector.paused():
            raise RuntimeError("shard failed")
    assert gc.isenabled()


def test_overlapping_shards_on_two_threads(
    tmp_path, systems, collector_enabled
):
    """Shard A finishes while shard B is still running: the collector
    stays off until B is done too, and is on again after both."""
    a_started = threading.Event()
    b_started = threading.Event()
    a_done = threading.Event()
    seen_in_b = []
    errors = []
    build = RunRequest.build_system

    def overlapping(self, *args, **kwargs):
        if threading.current_thread().name == "shard-a":
            a_started.set()
            assert b_started.wait(30)
        else:
            b_started.set()
            assert a_started.wait(30)
            assert a_done.wait(30)
            # A's scope has exited; B's is still open.
            seen_in_b.append(gc.isenabled())
        return build(self, *args, **kwargs)

    def shard(name, seed, done=None):
        try:
            make_engine(tmp_path, name).run_many([miss(seed)])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunRequest, "build_system", overlapping)
        threads = [
            threading.Thread(
                target=shard, args=("a", 1, a_done), name="shard-a"
            ),
            threading.Thread(target=shard, args=("b", 2), name="shard-b"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    assert not errors
    assert seen_in_b == [False]
    assert gc.isenabled()
    assert [enabled for _, enabled in systems] == [False, False]
    assert all(system() is None for system, _ in systems)
