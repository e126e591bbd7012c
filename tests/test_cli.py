"""Tests for the command-line interface."""

import pytest

from repro.cli import _ProgressLines, build_parser, main
from repro.harness.engine import RunRequest
from repro.workloads.registry import get_workload


def test_list_prints_all_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("html", "Redis", "deploy", "aes-go"):
        assert name in out


def test_run_single_workload(capsys, monkeypatch):
    # Shrink the workload so the CLI test stays fast.
    from dataclasses import replace
    import repro.cli as cli

    original = cli.get_workload
    monkeypatch.setattr(
        cli, "get_workload",
        lambda name: replace(original(name), num_allocs=2_000),
    )
    assert main(["run", "aes"]) == 0
    out = capsys.readouterr().out
    assert "aes" in out and "speedup" in out


def test_run_unknown_workload_reports_error(capsys):
    # A workload name is a flag, so an unknown one is a usage error:
    # exit code 2 and a one-line ``repro: error: ...`` report on stderr,
    # not a traceback.
    assert main(["run", "not-a-workload"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "not-a-workload" in err


def test_run_requires_names_or_all(capsys):
    assert main(["run"]) == 2
    assert main(["run", "aes", "--all"]) == 2


def test_run_all_with_jobs(capsys, monkeypatch, tmp_path):
    # Shrink the world to two workloads so --all stays fast.
    from dataclasses import replace
    import repro.harness.experiment as experiment

    small = [
        replace(spec, num_allocs=1_200)
        for spec in experiment.FUNCTION_WORKLOADS[:2]
    ]
    monkeypatch.setattr(experiment, "FUNCTION_WORKLOADS", small)
    monkeypatch.setattr(experiment, "DATAPROC_WORKLOADS", [])
    monkeypatch.setattr(experiment, "PLATFORM_WORKLOADS", [])
    assert main([
        "run", "--all", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    captured = capsys.readouterr()
    for spec in small:
        assert spec.name in captured.out
    # Per-run progress lines go to stderr: workload, stack, hit-or-live.
    assert "live" in captured.err and "baseline" in captured.err
    # A second invocation is answered from the persistent cache.
    assert main([
        "run", "--all",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    assert "cache hit" in capsys.readouterr().err


def test_cache_info_and_clear(capsys, tmp_path, monkeypatch):
    from dataclasses import replace
    import repro.cli as cli

    original = cli.get_workload
    monkeypatch.setattr(
        cli, "get_workload",
        lambda name: replace(original(name), num_allocs=1_000),
    )
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "aes", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "3" in out
    assert "json" in out and cache_dir in out

    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 3" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    assert "0" in capsys.readouterr().out


def test_serve_validates_arguments(capsys):
    # Usage errors follow the exit-2 convention, before binding a port.
    assert main(["serve", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert main(["serve", "--workers", "-1"]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert main(["serve", "--port", "70000"]) == 2
    assert "port" in capsys.readouterr().err
    assert main(["serve", "--host", ""]) == 2
    assert "host" in capsys.readouterr().err


def test_serve_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--backend", "bogus"])


def test_parser_accepts_the_benchmark_server_argv():
    # The argv the benchmark starts its server with.
    args = build_parser().parse_args([
        "serve", "--port", "0", "--cache-dir", "D", "--workers", "2",
        "--jobs", "1", "--backend", "json",
    ])
    assert (args.port, args.cache_dir, args.workers, args.jobs) == (
        0, "D", 2, 1,
    )
    assert args.backend == "json"


@pytest.mark.parametrize("argv", [
    ["serve", "--backend", "sqlite"],
    ["serve", "--backend", "memory"],
    ["cache", "info", "--backend", "json"],
])
def test_retired_backend_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_sweep_choices_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "bogus"])


def test_sweep_iso_storage(capsys):
    assert main(["sweep", "iso-storage"]) == 0
    out = capsys.readouterr().out
    assert "iso" in out.lower()
    assert "memento" in out.lower()


def test_characterize(capsys, monkeypatch):
    from dataclasses import replace
    import repro.cli as cli

    monkeypatch.setattr(
        cli, "all_workloads",
        lambda: [replace(s, num_allocs=1_500) for s in
                 __import__("repro.workloads.registry",
                            fromlist=["all_workloads"]).all_workloads()[:4]],
    )
    assert main(["characterize"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out and "Fig. 3" in out and "Table 1" in out


def test_energy_command(capsys, monkeypatch):
    from dataclasses import replace
    import repro.cli as cli

    original = cli.get_workload
    monkeypatch.setattr(
        cli, "get_workload",
        lambda name: replace(original(name), num_allocs=2_000),
    )
    assert main(["energy", "aes"]) == 0
    out = capsys.readouterr().out
    assert "mm_energy_reduction" in out


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


# -- one request path per command: run --stack, audit --diff, fleet run ------


def test_run_stacks_export_metrics_per_stack(capsys, monkeypatch, tmp_path):
    import json
    from dataclasses import replace

    import repro.cli as cli
    from repro.harness.engine import ExperimentEngine, RunRequest
    from repro.stacks import stack_names

    original = cli.get_workload
    monkeypatch.setattr(
        cli, "get_workload",
        lambda name: replace(original(name), num_allocs=1_000),
    )
    prom = tmp_path / "stacks.prom"
    assert main([
        "run", "html", "--stack", "all", "--metrics", str(prom),
        "--no-cache",
    ]) == 0
    assert "runs: baseline, memento, snapshot, reclaim" in (
        capsys.readouterr().out
    )
    records = [
        json.loads(line)
        for line in (tmp_path / "stacks.prom.jsonl").read_text().splitlines()
    ]
    runs = {r["stack"]: r for r in records if r["kind"] == "run"}
    assert list(runs) == list(stack_names())
    engine = ExperimentEngine(use_disk_cache=False)
    spec = cli.get_workload("html")
    for stack, record in runs.items():
        assert record["workload"] == "html"
        expected = engine.run(RunRequest(spec, stack=stack))
        assert record["total_cycles"] == expected.total_cycles
    for stack in stack_names():
        assert f'stack="{stack}"' in prom.read_text()


def test_run_diff_flags_are_gone(capsys):
    # The differential oracle has one entry point: `repro audit --diff`.
    with pytest.raises(SystemExit):
        main(["run", "html", "--diff"])
    with pytest.raises(SystemExit):
        main(["run", "html", "--diff-allocs", "100"])


def test_audit_diff_writes_json_report(capsys, tmp_path):
    import json

    report = tmp_path / "audit.json"
    assert main([
        "audit", "html", "--stack", "memento", "--num-allocs", "300",
        "--diff", "--json", str(report),
    ]) == 0
    payload = json.loads(report.read_text())
    (leg,) = payload["legs"]
    assert leg["stack"] == "memento"
    assert leg["audit"]["checks"] > 0
    assert leg["diff"]["ok"] is True


def test_fleet_run_matches_simulate_fleet(capsys, tmp_path):
    import json

    from repro.fleet import FleetRequest, simulate_fleet
    from repro.harness.engine import ExperimentEngine

    out = tmp_path / "fleet.json"
    assert main([
        "fleet", "run", "--workloads", "html", "aes",
        "--invocations", "300", "--duration", "600", "--seed", "11",
        "--profile-seeds", "1", "--allocs", "300", "--keep-alive", "60",
        "--stacks", "baseline,snapshot", "--no-cache", "--out", str(out),
    ]) == 0
    request = FleetRequest(
        workloads=("html", "aes"),
        invocations=300,
        duration_s=600.0,
        seed=11,
        profile_seeds=1,
        invocation_allocs=300,
        keep_alive_s=60.0,
        stacks=("baseline", "snapshot"),
    )
    direct = simulate_fleet(
        request, engine=ExperimentEngine(use_disk_cache=False)
    )
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(direct.to_dict())
    )
    # One stack flag: --stacks.
    with pytest.raises(SystemExit) as exc:
        main(["fleet", "run", "--stack", "memento"])
    assert exc.value.code == 2


# -- file errors and interval bounds report what went wrong ------------------

#: The smallest fleet the CLI runs: one workload, a few short invocations.
SMALL_FLEET = [
    "fleet", "run", "--workloads", "html", "--invocations", "20",
    "--allocs", "100", "--profile-seeds", "1", "--stacks", "baseline",
    "--no-cache",
]


@pytest.mark.parametrize(
    "argv",
    [
        SMALL_FLEET + ["--out", "{missing}/fleet.json"],
        SMALL_FLEET + ["--telemetry", "{missing}/t.jsonl"],
        ["run", "html", "--no-cache", "--metrics", "{missing}/m.prom"],
    ],
    ids=["fleet-out", "fleet-telemetry", "run-metrics"],
)
def test_unwritable_output_names_the_path(argv, capsys, monkeypatch, tmp_path):
    # An OSError's first argument is its errno: the report once read
    # "repro: error: 2".
    from dataclasses import replace

    import repro.cli as cli

    original = cli.get_workload
    monkeypatch.setattr(
        cli, "get_workload",
        lambda name: replace(original(name), num_allocs=500),
    )
    missing = tmp_path / "no-such-dir"
    argv = [arg.format(missing=missing) for arg in argv]
    assert main(argv) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("repro: error:")
    assert str(missing) in last and "No such file or directory" in last


@pytest.mark.parametrize(
    "argv, named",
    [
        (SMALL_FLEET + ["--invocations", "0"], "invocations"),
        (SMALL_FLEET + ["--duration", "-1"], "duration_s"),
        (SMALL_FLEET + ["--allocs", "0"], "invocation_allocs"),
        (SMALL_FLEET + ["--profile-seeds", "0"], "profile_seeds"),
        (SMALL_FLEET + ["--epochs", "-1"], "epochs"),
        (SMALL_FLEET + ["--max-warm", "-1"], "max_warm"),
        (SMALL_FLEET + ["--keep-alive", "-5"], "keep_alive_s"),
        (SMALL_FLEET + ["--workloads", "nope"], "nope"),
        (["run", "nope", "--no-cache"], "nope"),
        (["audit", "nope", "--num-allocs", "100"], "nope"),
        (["energy", "nope"], "nope"),
    ],
    ids=[
        "fleet-invocations", "fleet-duration", "fleet-allocs",
        "fleet-profile-seeds", "fleet-epochs", "fleet-max-warm",
        "fleet-keep-alive", "fleet-workloads", "run-workload",
        "audit-workload", "energy-workload",
    ],
)
def test_rejected_flag_values_exit_2(argv, named, capsys):
    # A value a flag supplied is a usage error wherever it is rejected:
    # one ``repro: error:`` line naming it, exit code 2, nothing run.
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("repro: error:") and named in line
    assert captured.out == ""


@pytest.mark.parametrize("every", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "html", "--audit", "--audit-epoch", "interval",
          "--audit-every"], "--audit-every"),
        (["audit", "html", "--epoch", "interval", "--num-allocs", "100",
          "--every"], "--every"),
    ],
)
def test_nonpositive_audit_interval_exits_2(argv, flag, every, capsys):
    # Clamped to 1, a zero interval once checked after every event.
    assert main(argv + [every]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and flag in err
    assert "audit:" not in capsys.readouterr().out


@pytest.mark.parametrize("num_allocs", ["-5", "-1"])
def test_negative_audit_num_allocs_exits_2(num_allocs, capsys):
    # Once read as "no limit", a negative size replayed an empty trace
    # and reported "1 checks ok".
    assert main(["audit", "html", "--num-allocs", num_allocs]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error:")
    assert "--num-allocs" in captured.err
    assert "audit:" not in captured.out


def progress_lines(capsys, progress, total, live):
    """Stderr of the CLI's progress callback over one batch of ``total``
    runs whose last ``live`` ran live (hits come first, as the engine
    reports them)."""
    request = RunRequest(get_workload("aes"), stack="memento")
    for index in range(1, total + 1):
        source = "live" if index > total - live else "cache"
        progress(index, total, request, source, 0.0)
    return capsys.readouterr().err.splitlines()


def test_progress_below_100_runs_prints_a_line_per_run(capsys):
    lines = progress_lines(capsys, _ProgressLines(), 99, live=9)
    assert len(lines) == 99
    assert lines[0].startswith("[  1/99] aes")
    assert lines[0].endswith("cache hit")
    assert lines[-1].startswith("[ 99/99] aes") and lines[-1].endswith("live")


def test_progress_from_100_runs_prints_a_tally_per_twentieth(capsys):
    progress = _ProgressLines()
    for _ in range(2):  # a second batch starts a fresh tally
        lines = progress_lines(capsys, progress, 128, live=28)
        # One line per 128 // 20 = 6 runs, plus the last.
        assert len(lines) == 128 // 6 + 1
        assert lines[0] == "[  6/128] 6 cached / 0 live"
        assert lines[-2] == "[126/128] 100 cached / 26 live"
        assert lines[-1] == "[128/128] 100 cached / 28 live"
