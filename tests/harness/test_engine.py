"""Tests for the parallel experiment engine and its persistent cache."""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import stacks as stack_registry
from repro.backends import JsonBackend
from repro.core.config import MementoConfig
from repro.harness import system as harness_system
from repro.harness.engine import (
    ExperimentEngine,
    RunRequest,
    _split_groups,
    cost_model_fingerprint,
)
from repro.harness.experiment import run_workload, workload_requests
from repro.harness.system import RunResult
from repro.obs.instruments import instrumented
from repro.obs.tracing import Tracer
from repro.sim.cycles import CostModel
from repro.sim.params import MachineParams
from repro.workloads.registry import get_workload


def small(name: str = "aes", num_allocs: int = 1_500):
    return replace(get_workload(name), num_allocs=num_allocs)


def make_engine(tmp_path, **kwargs) -> ExperimentEngine:
    return ExperimentEngine(cache_dir=tmp_path / "cache", **kwargs)


# ----------------------------------------------------------- content keys


def test_content_key_stable_and_resolution_invariant():
    spec = small()
    request = RunRequest(spec, stack="memento")
    assert request.content_key() == request.content_key()
    resolved = RunRequest(spec.resolved(), stack="memento")
    assert resolved.content_key() == request.content_key()


def test_content_key_changes_with_config_and_machine():
    spec = small()
    base = RunRequest(spec, stack="memento")
    other_config = RunRequest(
        spec, stack="memento", config=MementoConfig(eager_refill=False)
    )
    other_machine = RunRequest(
        spec,
        stack="memento",
        machine_params=MachineParams().with_iso_storage_l1d(),
    )
    keys = {
        base.content_key(),
        other_config.content_key(),
        other_machine.content_key(),
    }
    assert len(keys) == 3


def test_content_key_changes_with_cost_model():
    request = RunRequest(small(), stack="baseline")
    recalibrated = CostModel(page_fault=9_999)
    assert cost_model_fingerprint() != cost_model_fingerprint(recalibrated)
    assert request.content_key() != request.content_key(recalibrated)


def test_unknown_allocator_rejected():
    with pytest.raises(ValueError):
        RunRequest(small(), stack="baseline", allocator="bogus")
    with pytest.raises(ValueError):
        RunRequest(small(), stack="memento", allocator="pymalloc")


# ------------------------------------------------------- RunResult round-trip


def test_runresult_round_trip(tmp_path):
    engine = make_engine(tmp_path)
    result = engine.run(RunRequest(small(), stack="memento"))
    clone = RunResult.from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    assert clone.to_dict() == result.to_dict()
    assert clone.total_cycles == result.total_cycles
    assert clone.mm_cycles == result.mm_cycles


def test_runresult_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError):
        RunResult.from_dict({"name": "x", "memento": True, "bogus": 1})


# ------------------------------------------------------------- determinism


def test_parallel_results_identical_to_serial(tmp_path):
    specs = [small("aes"), small("html"), small("bfs-go"), small("US")]
    requests = [
        RunRequest(spec, stack=stack)
        for spec in specs
        for stack in ("baseline", "memento")
    ]
    serial = make_engine(tmp_path / "serial").run_many(requests, jobs=1)
    parallel = make_engine(tmp_path / "parallel").run_many(
        requests, jobs=4
    )
    for left, right in zip(serial, parallel):
        assert left.to_dict() == right.to_dict()


# ------------------------------------------------------- grouped execution


def mixed_batch():
    """Every axis the spec grouping must leave out, over two seeds:
    all four stacks cold and warm, an allocator override, two Memento
    configs (one on the resolved spec), and duplicate requests."""
    requests = []
    for seed in (1, 2):
        spec = replace(small("html", num_allocs=300), seed=seed)
        requests += [
            RunRequest(spec, stack=stack, cold_start=cold)
            for stack in stack_registry.stack_names()
            for cold in (False, True)
        ]
        requests.append(
            RunRequest(
                spec,
                stack="baseline",
                allocator="pymalloc",
                allocator_kwargs=(("arena_bytes", 1024 * 1024),),
            )
        )
        requests.append(
            RunRequest(
                spec.resolved(),
                stack="memento",
                config=MementoConfig(objects_per_arena=16),
            )
        )
    return requests + [requests[0], requests[3], requests[12]]


def test_grouped_batch_matches_per_request_execution(tmp_path, monkeypatch):
    requests = mixed_batch()
    reference = [request.execute().to_dict() for request in requests]
    unique = len({request.content_key() for request in requests})

    generated = []
    real_generate = harness_system.generate_trace

    def counting_generate(spec):
        generated.append(spec.resolved())
        return real_generate(spec)

    monkeypatch.setattr(harness_system, "generate_trace", counting_generate)
    events = []
    serial = make_engine(
        tmp_path / "serial", progress=lambda *event: events.append(event)
    ).run_many(requests, jobs=1)
    assert [result.to_dict() for result in serial] == reference
    assert len(generated) == len(set(generated)) == 2
    assert [event[0] for event in events] == list(range(1, unique + 1))
    assert all(event[1] == unique and event[3] == "live" for event in events)

    monkeypatch.setattr(harness_system, "generate_trace", real_generate)
    parallel = make_engine(tmp_path / "parallel").run_many(requests, jobs=2)
    assert [result.to_dict() for result in parallel] == reference


def alive(pid):
    """Whether ``pid`` runs: a zombie waiting to be reaped does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_pool_persists_across_batches_until_close():
    engine = ExperimentEngine(use_disk_cache=False, jobs=2)
    batches = [
        [RunRequest(small(name), stack="memento") for name in pair]
        for pair in (("aes", "html"), ("bfs-go", "US"))
    ]
    try:
        engine.run_many(batches[0])
        pids = engine.worker_pids()
        assert len(pids) == 2
        engine.run_many(batches[1])
        assert engine.worker_pids() == pids
        assert engine.summary()["engine.parallel_batches"] == 2
        # A lone miss runs on the pool too, once there is one.
        engine.run(RunRequest(small("ir"), stack="baseline"))
        assert engine.summary()["engine.parallel_batches"] == 3
        assert engine.worker_pids() == pids
    finally:
        engine.close()
    assert engine.worker_pids() == []
    assert not any(alive(pid) for pid in pids)


def test_workers_exit_when_the_pool_owner_is_killed():
    owner = subprocess.Popen(
        [
            sys.executable, "-c",
            "import time\n"
            "from repro.harness.engine import ExperimentEngine\n"
            "engine = ExperimentEngine(use_disk_cache=False, jobs=2)\n"
            "engine.start_pool(2)\n"
            "print(*engine.worker_pids(), flush=True)\n"
            "time.sleep(120)\n",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(Path(repro.__file__).parent.parent)]
                + os.environ.get("PYTHONPATH", "").split(os.pathsep)
            ),
        ),
    )
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 2 and all(alive(pid) for pid in pids)
    finally:
        owner.kill()
        owner.wait(timeout=30)
        owner.stdout.close()
    deadline = time.monotonic() + 30
    while any(alive(pid) for pid in pids):
        assert time.monotonic() < deadline, "workers outlived their owner"
        time.sleep(0.05)


def test_threads_share_one_pool():
    engine = ExperimentEngine(use_disk_cache=False, jobs=2)
    batches = [
        [
            RunRequest(replace(small(num_allocs=300), seed=seed), stack=stack)
            for stack in ("baseline", "memento")
        ]
        for seed in range(1, 7)
    ]
    out = {}
    barrier = threading.Barrier(len(batches))

    def submit(index):
        barrier.wait(timeout=30)
        out[index] = engine.run_many(batches[index])

    threads = [
        threading.Thread(target=submit, args=(index,))
        for index in range(len(batches))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        # Six submitting threads, one pool of two workers.
        assert len(engine.worker_pids()) == 2
    finally:
        engine.close()
    for index, batch in enumerate(batches):
        assert [result.to_dict() for result in out[index]] == [
            request.execute().to_dict() for request in batch
        ]


def test_pooled_batch_brings_worker_spans_home():
    engine = ExperimentEngine(use_disk_cache=False, jobs=2)
    tracer = Tracer()
    try:
        with instrumented(tracer=tracer):
            engine.run_many([
                RunRequest(small(), stack=stack)
                for stack in ("baseline", "memento")
            ])
    finally:
        engine.close()
    (batch,) = tracer.to_dict()["spans"]
    (execute,) = [s for s in batch["children"] if s["name"] == "execute"]
    runs = [c for c in execute["children"] if c["name"] == "system.run"]
    assert len(runs) == 2
    for run in runs:
        assert "replay" in [c["name"] for c in run["children"]]
        assert execute["start"] <= run["start"]
        assert run["start"] + run["seconds"] <= (
            execute["start"] + execute["seconds"]
        )


def test_split_groups_keeps_every_worker_busy():
    groups = [list("abcd"), list("e")]
    assert _split_groups(groups, 3) == [list("ab"), list("cd"), list("e")]
    assert _split_groups(groups, 1) == groups
    # Singletons cannot be split: fewer tasks than workers is the floor.
    assert _split_groups([list("a"), list("b")], 4) == [list("a"), list("b")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_engine_simulates_with_its_cost_model(tmp_path, jobs):
    recalibrated = CostModel(page_fault=9_999)
    requests = [
        RunRequest(small(num_allocs=400), stack=stack)
        for stack in ("baseline", "memento")
    ]
    engine = make_engine(tmp_path, cost_model=recalibrated)
    results = engine.run_many(requests, jobs=jobs)
    for request, result in zip(requests, results):
        expected = request.execute(recalibrated).total_cycles
        assert result.total_cycles == expected
        assert result.total_cycles != request.execute().total_cycles


# ------------------------------------------------------------------ caching


def test_memo_returns_same_object(tmp_path):
    engine = make_engine(tmp_path)
    spec = small()
    first = run_workload(spec, engine=engine)
    second = run_workload(spec, engine=engine)
    assert first.baseline is second.baseline


def test_disk_cache_round_trip_across_engines(tmp_path):
    request = RunRequest(small(), stack="memento")
    first = make_engine(tmp_path).run(request)
    warm_engine = make_engine(tmp_path)
    second = warm_engine.run(request)
    assert warm_engine.stats["engine.disk.hits"] == 1
    assert warm_engine.stats["engine.misses"] == 0
    assert second.to_dict() == first.to_dict()


def test_config_change_misses_cache(tmp_path):
    spec = small()
    engine = make_engine(tmp_path)
    engine.run(RunRequest(spec, stack="memento"))
    assert engine.stats["engine.misses"] == 1
    engine.run(
        RunRequest(spec, stack="memento", config=MementoConfig(
            objects_per_arena=64
        ))
    )
    assert engine.stats["engine.misses"] == 2
    engine.run(
        RunRequest(spec, stack="memento",
                   machine_params=MachineParams().with_iso_storage_l1d())
    )
    assert engine.stats["engine.misses"] == 3
    # Same requests again: everything answered without a simulation.
    engine.run(RunRequest(spec, stack="memento"))
    assert engine.stats["engine.misses"] == 3


def test_corrupted_cache_entry_falls_back_to_rerun(tmp_path):
    request = RunRequest(small(), stack="baseline")
    engine = make_engine(tmp_path)
    reference = engine.run(request)
    path = engine.disk.path(request.content_key())
    assert path.is_file()

    for garbage in (
        "{not json",
        '{"schema_version": 999}',
        '{"schema_version": 1, "result": {"bogus": 1}}',
    ):
        path.write_text(garbage)
        fresh = make_engine(tmp_path)
        recovered = fresh.run(request)
        assert recovered.to_dict() == reference.to_dict()
        assert fresh.stats["engine.misses"] == 1
        # The re-run repaired the entry on disk.
        assert json.loads(path.read_text())["result"] == reference.to_dict()


def test_warm_cache_at_least_5x_faster(tmp_path):
    requests = []
    for name in ("aes", "html"):
        requests += workload_requests(small(name, num_allocs=4_000))

    cold_engine = make_engine(tmp_path)
    started = time.perf_counter()
    cold = cold_engine.run_many(requests)
    cold_seconds = time.perf_counter() - started
    assert cold_engine.stats["engine.misses"] == len(requests)

    warm_engine = make_engine(tmp_path)  # fresh memo, same disk cache
    started = time.perf_counter()
    warm = warm_engine.run_many(requests)
    warm_seconds = time.perf_counter() - started
    assert warm_engine.stats["engine.misses"] == 0
    for left, right in zip(cold, warm):
        assert left.to_dict() == right.to_dict()
    assert warm_seconds * 5 <= cold_seconds, (cold_seconds, warm_seconds)


def test_disk_cache_info_and_clear(tmp_path):
    engine = make_engine(tmp_path)
    engine.run(RunRequest(small(), stack="baseline"))
    cache = JsonBackend(engine.disk.root)
    info = cache.info()
    assert info["entries"] == 1 and info["bytes"] > 0
    assert cache.clear() == 1
    assert cache.info()["entries"] == 0


def test_cache_can_be_disabled(tmp_path):
    engine = make_engine(tmp_path, use_disk_cache=False)
    engine.run(RunRequest(small(), stack="baseline"))
    assert engine.disk is None
    assert not (tmp_path / "cache").exists()


# ------------------------------------------------------------ API surface


def test_positional_config_arguments_removed(tmp_path):
    """The PR 1 deprecation completed: positional flags raise a
    TypeError that names the keyword-only signature."""
    from repro.harness.experiment import run_all

    engine = make_engine(tmp_path)
    spec = small(num_allocs=1_000)
    with pytest.raises(TypeError, match=r"run_workload\(.*cold_start"):
        run_workload(spec, True, engine=engine)
    with pytest.raises(TypeError, match=r"run_all\(.*cold_start"):
        run_all([spec], True, engine=engine)
    modern = run_workload(spec, cold_start=True, engine=engine)
    assert modern.baseline.total_cycles > 0


def test_keyword_config_changes_results(tmp_path):
    engine = make_engine(tmp_path)
    spec = small()
    default = run_workload(spec, engine=engine)
    tiny_arenas = run_workload(
        spec, config=MementoConfig(objects_per_arena=16), engine=engine
    )
    # The non-default config went through the same cached path but
    # produced its own entry (different arena geometry, different runs).
    assert default.memento.total_cycles != tiny_arenas.memento.total_cycles
    assert default.baseline.to_dict() == tiny_arenas.baseline.to_dict()


def test_progress_callback_sees_every_run(tmp_path):
    events = []
    engine = ExperimentEngine(
        cache_dir=tmp_path / "cache",
        progress=lambda *event: events.append(event),
    )
    spec = small(num_allocs=1_000)
    run_workload(spec, engine=engine)
    assert len(events) == 3
    assert all(event[3] == "live" for event in events)
    run_workload(spec, engine=engine)
    assert len(events) == 6
    assert all(event[3] == "memo" for event in events[3:])


def test_cost_model_fingerprint_is_memoized_per_object():
    model = CostModel()
    digest = cost_model_fingerprint(model)
    assert cost_model_fingerprint(model) == digest
    assert len(digest) == 16


def test_cost_model_fingerprint_tracks_content():
    base = CostModel()
    tweaked = replace(base, page_fault=base.page_fault + 1)
    assert cost_model_fingerprint(tweaked) != cost_model_fingerprint(base)
    # A distinct but equal-content instance digests identically, so the
    # identity-keyed memo never changes what the cache keys contain.
    clone = CostModel()
    assert cost_model_fingerprint(clone) == cost_model_fingerprint(base)


# ----------------------------------------------------------- jobs validation


class TestResolveJobs:
    def test_valid_counts_pass_through(self):
        from repro.harness.engine import resolve_jobs

        assert resolve_jobs(1) == 1
        assert resolve_jobs("4") == 4

    def test_none_means_unspecified(self, monkeypatch):
        # The shared resolver (PR 8) treats None as "unspecified":
        # $REPRO_JOBS wins, then the default of 1.
        from repro.harness.engine import resolve_jobs

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    @pytest.mark.parametrize("bad", [0, -1, "-3", "two", 1.5])
    def test_invalid_counts_raise_value_error(self, bad):
        from repro.harness.engine import resolve_jobs

        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs(bad)

    def test_engine_rejects_bad_jobs_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="positive integer"):
            make_engine(tmp_path, jobs=0)

    def test_run_many_rejects_bad_jobs_override(self, tmp_path):
        engine = make_engine(tmp_path, use_disk_cache=False)
        with pytest.raises(ValueError, match="positive integer"):
            engine.run_many(
                [RunRequest(small(), stack="baseline")], jobs=-2
            )

    def test_cli_reports_bad_jobs_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "--workload", "aes", "--jobs", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        # Bad runtime options are usage errors (PR 8): same one-line
        # ``repro: error:`` report, exit code 2.
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "positive integer" in err
        assert "Traceback" not in err
