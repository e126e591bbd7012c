"""Fleet telemetry: the bundle-gated recorder and the ledger canary.

The acceptance criteria from the telemetry plane live here: a fleet run
with the recorder bound produces a bit-identical ``FleetResult`` to
one without (the rebinding-style off-path test), epoch records reconcile
exactly with the reduced ``StackMetrics`` counters, instance lifetime
spans export to a valid Perfetto timeline, and two seeded runs write
ledger lines with identical ``metrics_digest`` values.
"""

from dataclasses import replace

import pytest

from repro.fleet import (
    FleetRecorder,
    FleetRequest,
    simulate_fleet,
)
from repro.harness.engine import ExperimentEngine
from repro.obs.instruments import current, instrumented
from repro.obs.ledger import split_fleet_entries
from repro.obs.timeline import (
    export_timeline,
    fleet_trace_events,
    validate_trace_events,
)
from repro.obs.trend import check_fleet_trend


def small_fleet(**overrides) -> FleetRequest:
    defaults = dict(
        workloads=("html", "aes"),
        invocations=600,
        duration_s=600.0,
        seed=11,
        profile_seeds=1,
        invocation_allocs=300,
        keep_alive_s=60.0,
    )
    defaults.update(overrides)
    return FleetRequest(**defaults)


def engine() -> ExperimentEngine:
    return ExperimentEngine(cache_dir=None)


def recorded_run(request: FleetRequest, recorder: FleetRecorder):
    with instrumented(recorder=recorder):
        return simulate_fleet(request, engine=engine())


class TestGating:
    def test_recorder_is_off_by_default(self):
        assert current().recorder is None

    def test_install_returns_previous(self):
        first = FleetRecorder()
        second = FleetRecorder()
        with instrumented(recorder=first):
            with pytest.raises(RuntimeError):
                with instrumented(recorder=second):
                    assert current().recorder is second
                    raise RuntimeError("boom")
            assert current().recorder is first
        assert current().recorder is None

    def test_result_bit_identical_with_recorder_installed(self):
        """The recorder only observes: before / observed / after runs of
        the same request agree bit for bit."""
        request = small_fleet()
        before = simulate_fleet(request, engine=engine())
        observed = recorded_run(request, FleetRecorder())
        after = simulate_fleet(request, engine=engine())
        assert before.to_dict() == observed.to_dict()
        assert observed.to_dict() == after.to_dict()


class TestRecords:
    def test_epoch_records_reconcile_with_stack_metrics(self):
        request = small_fleet()
        recorder = FleetRecorder()
        result = recorded_run(request, recorder)
        epochs = recorder.epochs
        assert len(epochs) == result.epochs * len(result.stacks)
        for stack, metrics in result.stacks.items():
            mine = [r for r in epochs if r["stack"] == stack]
            assert [r["epoch"] for r in mine] == list(range(result.epochs))
            assert sum(r["cold_starts"] for r in mine) == metrics.cold_starts
            assert sum(r["warm_starts"] for r in mine) == metrics.warm_starts
            assert sum(r["evictions"] for r in mine) == metrics.evictions
            assert (
                sum(r["invocations"] for r in mine) == metrics.invocations
            )
            # Stranding is backfilled per epoch once the pool pass ends.
            assert [r["stranded_byte_s"] for r in mine] == list(
                metrics.stranding_timeline
            )

    def test_instance_spans_cover_busy_and_idle_lifetimes(self):
        recorder = FleetRecorder()
        recorded_run(small_fleet(), recorder)
        states = {r["state"] for r in recorder.instances}
        assert states == {"busy", "idle"}
        for record in recorder.instances:
            assert record["end_s"] >= record["start_s"]
            if record["state"] == "busy":
                assert record["cold"] in (True, False)
            else:
                assert record["outcome"] in (
                    "reused", "expired", "evicted", "horizon"
                )

    def test_lru_cap_produces_evicted_outcomes(self):
        recorder = FleetRecorder()
        result = recorded_run(
            small_fleet(policy="lru", max_warm=1), recorder
        )
        assert any(
            m.evictions > 0 for m in result.stacks.values()
        )
        evicted = [
            r for r in recorder.instances
            if r.get("outcome") == "evicted"
        ]
        assert evicted

    def test_capacity_bounds_instance_spans(self):
        recorder = FleetRecorder(capacity=16)
        recorded_run(small_fleet(), recorder)
        assert len(recorder.instances) == 16
        assert recorder.dropped > 0


class TestTimeline:
    def test_fleet_records_export_to_valid_perfetto_trace(self, tmp_path):
        recorder = FleetRecorder()
        recorded_run(small_fleet(policy="lru", max_warm=1), recorder)
        events = fleet_trace_events(recorder.records())
        assert validate_trace_events(events) == len(events)
        # Instance tracks, counter series, and eviction markers all land.
        phases = {event["ph"] for event in events}
        assert {"X", "C", "M", "i"} <= phases
        out = export_timeline(tmp_path / "fleet.json", recorder.records())
        assert out.exists()


class TestLedgerCanary:
    def test_metrics_digest_identical_across_seeded_runs(self, tmp_path):
        """Two runs of one seeded fleet request write ledger lines whose
        full-payload digests agree — the fleet determinism canary."""
        request = small_fleet()
        eng = ExperimentEngine(cache_dir=tmp_path, use_ledger=True)
        simulate_fleet(request, engine=eng)
        simulate_fleet(request, engine=eng)
        entries, skipped = eng.ledger.read_classified()
        assert skipped == 0
        _, fleets = split_fleet_entries(entries)
        assert len(fleets) == 2
        first, second = fleets
        assert first["key"] == second["key"] == request.content_key()
        assert first["scenario"] == second["scenario"]
        assert first["metrics_digest"] == second["metrics_digest"]
        assert set(first["stacks"]) == {"baseline", "memento"}
        # Two agreeing samples: the trend gate sees no digest drift (and
        # abstains on the headline metrics — below MIN_SAMPLES).
        report = check_fleet_trend(eng.ledger)
        assert report["ok"] is True
        assert report["entries"] == 2

    def test_digest_drift_flags_the_gate(self, tmp_path):
        request = small_fleet()
        eng = ExperimentEngine(cache_dir=tmp_path, use_ledger=True)
        simulate_fleet(request, engine=eng)
        entries, _ = eng.ledger.read_classified()
        _, (entry,) = split_fleet_entries(entries)
        forged = dict(entry)
        forged["metrics_digest"] = "0" * 16
        eng.ledger.append(forged)
        report = check_fleet_trend(eng.ledger)
        assert report["ok"] is False
        assert any(row["digest_drift"] for row in report["rows"])
