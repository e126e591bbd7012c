"""Integration tests: engine ledger, traced runs, the ``repro obs`` CLI,
and the ``repro.api`` facade."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.engine import ExperimentEngine, RunRequest
from repro.obs import (
    Instruments,
    RunLedger,
    Tracer,
    current,
    default_ledger_path,
    instrumented,
)
from repro.workloads.registry import get_workload


def small_spec(name="html", num_allocs=1_500):
    return replace(get_workload(name).resolved(), num_allocs=num_allocs)


@pytest.fixture(autouse=True)
def _no_leaked_instruments():
    yield
    assert current() == Instruments()


@pytest.fixture
def small_cli_workloads(monkeypatch):
    import repro.cli as cli

    original = cli.get_workload
    monkeypatch.setattr(
        cli, "get_workload",
        lambda name: replace(original(name), num_allocs=1_500),
    )


# -- engine ledger integration ------------------------------------------------


class TestEngineLedger:
    def test_every_execution_appends_a_manifest(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True)
        request = RunRequest(spec=small_spec(), stack="memento")
        engine.run(request)  # live
        engine.run(request)  # memo hit
        entries = RunLedger(default_ledger_path(tmp_path)).read()
        assert [e["source"] for e in entries] == ["live", "memo"]
        live, memo = entries
        assert live["key"] == memo["key"]
        # The determinism canary: identical requests, identical digests.
        assert live["counter_digest"] == memo["counter_digest"]
        assert live["workload"] == "html"
        assert live["elapsed_s"] > 0 and memo["elapsed_s"] == 0.0
        assert set(live["fingerprints"]) == {"source", "cost_model"}
        assert engine.summary().get("engine.ledger.writes") == 2

    def test_disk_hit_recorded_as_cache_source(self, tmp_path):
        request = RunRequest(spec=small_spec(), stack="baseline")
        ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True).run(request)
        ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True).run(request)
        sources = [
            e["source"]
            for e in RunLedger(default_ledger_path(tmp_path)).read()
        ]
        assert sources == ["live", "cache"]

    def test_use_ledger_false_writes_nothing(self, tmp_path):
        engine = ExperimentEngine(
            cache_dir=tmp_path, use_disk_cache=True, use_ledger=False
        )
        engine.run(RunRequest(spec=small_spec(), stack="baseline"))
        assert not default_ledger_path(tmp_path).exists()

    def test_repro_no_ledger_env_opts_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_LEDGER", "1")
        engine = ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True)
        assert engine.ledger is None


# -- span integration ---------------------------------------------------------


def test_system_run_produces_phase_spans(tmp_path):
    tracer = Tracer()
    engine = ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True)
    with instrumented(tracer=tracer):
        engine.run(RunRequest(spec=small_spec(), stack="memento"))
    (batch,) = tracer.roots
    assert batch.name == "engine.run_many"
    names = [c.name for c in batch.children]
    assert names[0] == "cache.lookup"
    assert "execute" in names
    execute = batch.children[names.index("execute")]
    children = [c.name for c in execute.children]
    # The engine loads the trace, then replays it.
    assert children.index("trace.load") < children.index("system.run")
    run_spans = [c for c in execute.children if c.name == "system.run"]
    assert run_spans, "system.run should nest under execute"
    phases = [c.name for c in run_spans[0].children]
    assert phases == ["replay", "stats.fold"]
    assert "total_cycles" in run_spans[0].attrs
    assert any(c.name == "cache.admit" for c in execute.children)


def test_cached_run_skips_execute_span(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True)
    request = RunRequest(spec=small_spec(), stack="baseline")
    engine.run(request)
    tracer = Tracer()
    with instrumented(tracer=tracer):
        engine.run(request)
    (batch,) = tracer.roots
    assert [c.name for c in batch.children] == ["cache.lookup"]


# -- repro run --trace --metrics ---------------------------------------------


def test_run_trace_and_metrics_end_to_end(
    tmp_path, capsys, small_cli_workloads
):
    prom = tmp_path / "out.prom"
    assert main([
        "run", "--workload", "html",
        "--cache-dir", str(tmp_path / "cache"),
        "--trace", "--metrics", str(prom),
    ]) == 0
    out = capsys.readouterr().out
    assert "Span tree" in out
    assert "engine.run_many" in out and "replay" in out

    text = prom.read_text()
    assert "# TYPE" in text
    assert 'workload="html"' in text
    assert 'stack="baseline"' in text and 'stack="memento"' in text

    records = [
        json.loads(line)
        for line in (tmp_path / "out.prom.jsonl").read_text().splitlines()
    ]
    kinds = [r["kind"] for r in records]
    assert kinds.count("run") == 3  # baseline, memento, memento_nobypass
    assert "spans" in kinds and "events" not in kinds
    stacks = {r["stack"] for r in records if r["kind"] == "run"}
    assert stacks == {"baseline", "memento", "memento_nobypass"}
    # HOT hits are counted on the run record itself.
    (memento,) = [
        r for r in records if r["kind"] == "run" and r["stack"] == "memento"
    ]
    assert memento["counters"]["memento.hot.alloc_hits"] > 0

    # The CLI restored the previous (empty) bundle on exit.
    assert current() == Instruments()


def test_run_positional_and_flag_workloads_combine(
    tmp_path, capsys, small_cli_workloads
):
    assert main([
        "run", "aes", "--workload", "html",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "aes" in out and "html" in out


# -- repro obs ----------------------------------------------------------------


class TestObsCli:
    def run_once(self, tmp_path, extra=()):
        return main([
            "run", "--workload", "html",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ])

    def test_report_renders_ledger_and_metrics(
        self, tmp_path, capsys, small_cli_workloads
    ):
        prom = tmp_path / "m.prom"
        assert self.run_once(
            tmp_path, ["--trace", "--metrics", str(prom)]
        ) == 0
        capsys.readouterr()
        assert main([
            "obs", "report",
            "--ledger", str(tmp_path / "cache" / "ledger.jsonl"),
            "--metrics", str(tmp_path / "m.prom.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "run ledger" in out
        assert "metric runs" in out
        assert "Span tree" in out
        assert "sampled hardware events" not in out

    def test_report_last_shows_the_newest_entries(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for index in range(5):
            ledger.append({
                "key": f"k{index}", "workload": f"w{index}",
                "stack": "baseline",
            })
        assert main([
            "obs", "report", "--ledger", str(ledger.path), "--last", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "last 2 of 5" in out
        assert "w3" in out and "w4" in out and "w2" not in out

    @pytest.mark.parametrize("last", ["0", "-3", "abc"])
    def test_report_bad_last_is_usage_error(self, tmp_path, capsys, last):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"key": "k0", "workload": "w0", "stack": "baseline"})
        assert main([
            "obs", "report", "--ledger", str(ledger.path), "--last", last,
        ]) == 2
        assert "last must be a positive integer" in capsys.readouterr().err

    def test_report_empty_everything(self, tmp_path, capsys):
        assert main([
            "obs", "report", "--ledger", str(tmp_path / "absent.jsonl"),
        ]) == 0
        assert "nothing to report" in capsys.readouterr().out

    def test_check_flags_nondeterministic_ledger(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"key": "k", "counter_digest": "d1"})
        ledger.append({"key": "k", "counter_digest": "d2"})
        assert main(["obs", "report", "--ledger", str(ledger.path)]) == 1
        captured = capsys.readouterr()
        assert "run ledger" in captured.out
        assert "digest drift in 1 ledger key(s)" in captured.err
        assert "  k: d1, d2" in captured.err

    def test_report_flags_a_fleet_key_with_two_digests(
        self, tmp_path, capsys
    ):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        # Lines written before ``scenario``/``fleet_key`` were dropped
        # still read.
        ledger.append({
            "kind": "fleet", "key": "fk", "metrics_digest": "m1",
            "scenario": "s1", "fleet_key": "fk",
        })
        for digest in ("m1", "m2"):
            ledger.append({
                "kind": "fleet", "key": "fk", "metrics_digest": digest,
                "invocations": 10, "stacks": {},
            })
        assert main(["obs", "report", "--ledger", str(ledger.path)]) == 1
        captured = capsys.readouterr()
        assert "fleet executions" in captured.out
        assert "  fk: m1, m2" in captured.err

    def test_report_renders_a_null_cold_start_p95_as_a_dash(
        self, tmp_path, capsys
    ):
        # A fleet stack that never went cold records a null p95.
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({
            "kind": "fleet", "key": "fk", "metrics_digest": "m1",
            "invocations": 10, "stacks": {
                "baseline": {"cold_start_p95_ms": 12.34,
                             "stranded_gb_s": 1.0},
                "memento": {"cold_start_p95_ms": None,
                            "stranded_gb_s": 0.5},
            },
        })
        assert main(["obs", "report", "--ledger", str(ledger.path)]) == 0
        assert "12.3/-" in capsys.readouterr().out

    def test_report_checks_the_whole_ledger_not_the_window(
        self, tmp_path, capsys
    ):
        # The conflicting line is older than what --last 1 shows.
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for key, workload, digest in (
            ("k", "w-old", "d1"), ("k", "w-old", "d2"), ("n", "w-new", "d9"),
        ):
            ledger.append({
                "key": key, "workload": workload, "counter_digest": digest,
            })
        assert main([
            "obs", "report", "--ledger", str(ledger.path), "--last", "1",
        ]) == 1
        captured = capsys.readouterr()
        assert "w-new" in captured.out and "w-old" not in captured.out
        assert "  k: d1, d2" in captured.err

    def test_report_on_a_consistent_ledger_exits_0(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for _ in range(2):
            ledger.append({"key": "k", "counter_digest": "d1"})
            ledger.append({
                "kind": "fleet", "key": "fk", "metrics_digest": "m1",
            })
        assert main(["obs", "report", "--ledger", str(ledger.path)]) == 0
        assert capsys.readouterr().err == ""

    def test_diff_metrics_jsonl(self, tmp_path, capsys):
        record = {
            "kind": "run", "workload": "html", "stack": "memento",
            "total_cycles": 100.0, "counters": {"c": 1.0},
        }
        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        old.write_text(json.dumps(record) + "\n")
        new.write_text(
            json.dumps({**record, "total_cycles": 110.0}) + "\n"
        )
        assert main(["obs", "diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "+10.00%" in out

    @pytest.mark.parametrize("argv", [
        ["obs", "report", "--ledger", "{dir}/absent.jsonl",
         "--metrics", "{missing}"],
        ["obs", "diff", "{missing}", "{present}"],
        ["obs", "diff", "{present}", "{missing}"],
        ["obs", "profile", "{missing}"],
        ["obs", "timeline", "{missing}", "--out", "{dir}/trace.json"],
    ], ids=["report", "diff-old", "diff-new", "profile", "timeline"])
    def test_missing_metrics_file_is_usage_error(
        self, tmp_path, capsys, argv
    ):
        present = tmp_path / "present.jsonl"
        present.write_text('{"kind": "run"}\n')
        missing = tmp_path / "missing.jsonl"
        assert main([
            arg.format(dir=tmp_path, missing=missing, present=present)
            for arg in argv
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: no metrics file at {missing}\n"
        )

    def test_diff_mixed_kinds_is_usage_error(self, tmp_path, capsys):
        bench = tmp_path / "b.json"
        bench.write_text(json.dumps({"replay": {}}, indent=2))
        jsonl = tmp_path / "m.jsonl"
        jsonl.write_text('{"kind": "run"}\n')
        assert main(["obs", "diff", str(bench), str(jsonl)]) == 2

    def test_diff_of_bench_files_is_usage_error(self, capsys):
        # The committed BENCH_*.json files are read-only history; diff
        # reads metrics JSONL only and says so in one line.
        root = Path(__file__).resolve().parents[2]
        assert main([
            "obs", "diff",
            str(root / "BENCH_2026-08-06.json"),
            str(root / "BENCH_2026-08-08.json"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro: error: obs diff:")
        assert "metrics JSONL" in captured.err


# -- repro run --profile / repro obs profile|timeline ------------------------


class TestProfileCli:
    def profiled_run(self, tmp_path, capsys, extra=()):
        prom = tmp_path / "p.prom"
        code = main([
            "run", "--workload", "html",
            "--cache-dir", str(tmp_path / "cache"),
            "--profile", "--metrics", str(prom), *extra,
        ])
        return code, prom, capsys.readouterr()

    def test_profile_prints_breakdown_and_exports(
        self, tmp_path, capsys, small_cli_workloads
    ):
        code, prom, captured = self.profiled_run(tmp_path, capsys)
        assert code == 0
        assert "Cycle attribution" in captured.out
        assert "hot.alloc_hit" in captured.out
        assert "top 10 cycle consumers" in captured.out
        records = [
            json.loads(line)
            for line in (tmp_path / "p.prom.jsonl").read_text().splitlines()
        ]
        (profile,) = [r for r in records if r["kind"] == "profile"]
        assert len(profile["runs"]) == 3
        for run in profile["runs"]:
            assert run["unattributed_cycles"] == 0
        # Histograms ride in the Prometheus file too.
        text = prom.read_text()
        assert "# TYPE repro_op_alloc histogram" in text
        assert "repro_op_alloc_bucket" in text

    def test_profile_forces_serial(
        self, tmp_path, capsys, small_cli_workloads
    ):
        code, _, captured = self.profiled_run(
            tmp_path, capsys, ["--jobs", "4"]
        )
        assert code == 0
        assert "ignoring --jobs" in captured.err

    def test_obs_profile_renders_an_export(
        self, tmp_path, capsys, small_cli_workloads
    ):
        self.profiled_run(tmp_path, capsys)
        assert main([
            "obs", "profile", str(tmp_path / "p.prom.jsonl"), "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cycle attribution" in out
        assert "top 5 cycle consumers" in out
        assert "op.alloc" in out

    def test_obs_profile_without_records_errors(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "run"}\n')
        assert main(["obs", "profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"no profile records in {path}" in err
        assert len(err.splitlines()) == 1

    def test_obs_timeline_exports_valid_trace(
        self, tmp_path, capsys, small_cli_workloads
    ):
        prom = tmp_path / "t.prom"
        assert main([
            "run", "--workload", "html",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", "--metrics", str(prom),
        ]) == 0
        capsys.readouterr()
        out_path = tmp_path / "trace.json"
        assert main([
            "obs", "timeline", str(tmp_path / "t.prom.jsonl"),
            "--out", str(out_path),
        ]) == 0
        assert "trace events" in capsys.readouterr().out
        from repro.obs import validate_trace_events

        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        assert validate_trace_events(events) == len(events)
        assert any(e.get("name") == "system.run" for e in events)

    def test_obs_timeline_without_records_errors(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "run"}\n')
        assert main([
            "obs", "timeline", str(path),
            "--out", str(tmp_path / "trace.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"no span or fleet records in {path}" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "trace.json").exists()

    def test_obs_timeline_startless_span_is_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(
            {"kind": "spans", "spans": [{"name": "run", "seconds": 1.0}]}
        ) + "\n")
        assert main([
            "obs", "timeline", str(path),
            "--out", str(tmp_path / "trace.json"),
        ]) == 2
        assert "'run' has no numeric 'start'" in capsys.readouterr().err

    def test_report_warns_on_unknown_schema_lines(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({
            "key": "k1", "workload": "html", "stack": "memento",
            "counter_digest": "d0",
        })
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "future", "schema_version": 99}\n')
            handle.write("corrupt\n")
        assert main(["obs", "report", "--ledger", str(ledger.path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 ledger line(s)" in captured.err
        assert "run ledger" in captured.out


# -- metrics files written before the event ring was removed ----------------

#: A ``kind: "events"`` record as ``repro run --trace`` used to write it:
#: exact per-kind counts plus 1-in-64 timestamped samples.
LEGACY_EVENTS = {
    "kind": "events",
    "capacity": 4096,
    "sample_every": 64,
    "timestamps": True,
    "counts": {"hot.alloc_hit": 128, "aac.miss": 3},
    "events": [
        [64, "hot.alloc_hit", 2, 10.5],
        [128, "hot.alloc_hit", 4, 10.6],
    ],
}

#: The Perfetto track (tid) the sampled events used to be exported on.
LEGACY_EVENT_TID = 2


class TestLegacyMetricsFile:
    def legacy_file(self, tmp_path):
        path = tmp_path / "old.prom.jsonl"
        records = [
            {
                "kind": "run", "workload": "html", "stack": "memento",
                "total_cycles": 1234.0, "seconds": 0.001,
                "dram_bytes": 2e6,
                "counters": {"memento.hot.alloc_hits": 128},
            },
            {
                "kind": "spans",
                "spans": [{
                    "name": "system.run", "start": 10.0, "seconds": 1.0,
                    "children": [
                        {"name": "replay", "start": 10.2, "seconds": 0.7},
                    ],
                }],
            },
            LEGACY_EVENTS,
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_report_shows_runs_and_spans_and_skips_events(
        self, tmp_path, capsys
    ):
        path = self.legacy_file(tmp_path)
        assert main([
            "obs", "report", "--ledger", str(tmp_path / "absent.jsonl"),
            "--metrics", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "metric runs" in out and "html" in out and "memento" in out
        assert "Span tree" in out
        assert "system.run" in out and "replay" in out
        assert "hot.alloc_hit" not in out and "aac.miss" not in out

    def test_timeline_exports_spans_only(self, tmp_path, capsys):
        path = self.legacy_file(tmp_path)
        out_path = tmp_path / "trace.json"
        assert main([
            "obs", "timeline", str(path), "--out", str(out_path),
        ]) == 0
        events = json.loads(out_path.read_text())["traceEvents"]
        assert sorted(e["name"] for e in events if e["ph"] == "X") == [
            "replay", "system.run",
        ]
        assert not [e for e in events if e["ph"] == "i"]
        assert all(e["tid"] != LEGACY_EVENT_TID for e in events)
        assert "hw events" not in json.dumps(events)

    def test_timeline_of_only_events_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(LEGACY_EVENTS) + "\n")
        assert main([
            "obs", "timeline", str(path),
            "--out", str(tmp_path / "trace.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and len(err.splitlines()) == 1


# -- the repro.api facade -----------------------------------------------------


class TestApiFacade:
    def test_every_exported_name_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_facade_covers_the_documented_surface(self):
        import repro.api as api

        for name in (
            "RunRequest", "ExperimentEngine", "run_workload", "run_all",
            "Tracer", "Instruments", "instrumented", "render_span_tree",
            "MementoConfig", "MachineParams", "Stats",
            "RunResult", "WorkloadResult", "get_workload", "all_workloads",
            "CycleProfile", "render_profile",
            "export_timeline", "validate_trace_events", "digest_conflicts",
        ):
            assert name in api.__all__, name

    def test_traced_run_through_the_facade(self, tmp_path):
        from repro import api

        tracer = api.Tracer()
        engine = api.ExperimentEngine(cache_dir=tmp_path, use_disk_cache=True)
        with api.instrumented(tracer=tracer):
            result = api.run_workload(small_spec(), engine=engine)
        assert result.speedup > 1.0
        assert tracer.roots
        rendered = api.render_span_tree(tracer.to_dict())
        assert "engine.run_many" in rendered
