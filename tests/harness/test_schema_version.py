"""Schema versioning: one explicit field, loud rejection.

Every serialized artifact (RunRequest/RunResult payloads, cache
envelopes, ledger lines) carries an explicit ``schema_version`` and no
other version spelling. Readers take a missing version as the current
one and reject anything but an integer from 1 to the current version.
"""

import copy
import json
from dataclasses import asdict, replace

import pytest

from repro.fleet import FleetRequest
from repro.harness.engine import (
    ExperimentEngine,
    REQUEST_SCHEMA_VERSION,
    RunRequest,
    SCHEMA_VERSION,
)
from repro.harness.system import RESULT_SCHEMA_VERSION, RunResult
from repro.obs.ledger import RunLedger, manifest
from repro.workloads.registry import get_workload


def small(num_allocs: int = 1_200):
    return replace(get_workload("aes"), num_allocs=num_allocs)


@pytest.fixture(scope="module")
def result() -> RunResult:
    return ExperimentEngine(use_disk_cache=False).run(
        RunRequest(small(), stack="memento")
    )


class TestRunResultVersioning:
    def test_to_dict_stamps_version(self, result):
        assert result.to_dict()["schema_version"] == RESULT_SCHEMA_VERSION

    def test_round_trip(self, result):
        assert RunResult.from_dict(result.to_dict()) == result

    def test_version_zero_payload_upgrades(self, result):
        payload = result.to_dict()
        del payload["schema_version"]
        assert RunResult.from_dict(payload) == result

    def test_newer_version_rejected(self, result):
        payload = result.to_dict()
        payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            RunResult.from_dict(payload)

    @pytest.mark.parametrize("audit", [None, {"rules": {"r": [1, {"x": 2}]}}])
    def test_to_dict_matches_the_deep_copying_asdict(self, result, audit):
        result = replace(result, audit=audit)
        reference = asdict(result)
        reference["schema_version"] = RESULT_SCHEMA_VERSION
        if reference["audit"] is None:
            del reference["audit"]
        payload = result.to_dict()
        assert payload == reference
        assert list(payload) == list(reference)
        assert json.dumps(payload) == json.dumps(reference)

    def test_to_dict_shares_no_mutable_state(self, result):
        result = replace(result, audit={"rules": {"r": [1]}})
        before = copy.deepcopy(result)
        payload = result.to_dict()
        payload["cycles"]["restore"] = -1.0
        payload["stats"].clear()
        payload["audit"]["rules"]["r"].append(2)
        assert result == before


class TestRunRequestVersioning:
    def test_to_dict_stamps_version(self):
        request = RunRequest(small(), stack="memento")
        assert request.to_dict()["schema_version"] == (
            REQUEST_SCHEMA_VERSION
        )

    def test_version_zero_payload_upgrades(self):
        request = RunRequest(small(), stack="memento")
        payload = request.to_dict()
        del payload["schema_version"]
        assert RunRequest.from_dict(payload) == request

    def test_newer_version_rejected(self):
        payload = RunRequest(small(), stack="memento").to_dict()
        payload["schema_version"] = REQUEST_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            RunRequest.from_dict(payload)


@pytest.mark.parametrize("version", [True, False, 0, -3, 1.0, "1", None])
@pytest.mark.parametrize(
    "decode, payload",
    [
        (RunRequest.from_dict,
         lambda: RunRequest(small(), stack="memento").to_dict()),
        (FleetRequest.from_dict,
         lambda: FleetRequest(workloads=("html",)).to_dict()),
        (RunResult.from_dict,
         lambda: RunResult(name="x", memento=False).to_dict()),
    ],
    ids=["RunRequest", "FleetRequest", "RunResult"],
)
def test_unsupported_version_rejected(decode, payload, version):
    # ``bool`` is an ``int`` and versions start at 1: neither a flag nor
    # a zero or negative number is a version.
    body = payload()
    body["schema_version"] = version
    with pytest.raises(ValueError, match="must be an integer from 1"):
        decode(body)


class TestCacheEnvelopeVersioning:
    def test_cache_payload_carries_one_spelling(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        request = RunRequest(small(), stack="memento")
        engine.run(request)
        key = request.content_key(engine.cost_model)
        payload = engine.disk.get(key)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "schema" not in payload

    def test_unversioned_envelope_evicted_and_rerun(self, tmp_path):
        """An entry spelling its version ``schema`` only is stale."""
        engine = ExperimentEngine(cache_dir=tmp_path)
        request = RunRequest(small(), stack="memento")
        engine.run(request)
        key = request.content_key(engine.cost_model)
        payload = engine.disk.get(key)
        payload["schema"] = payload.pop("schema_version")
        engine.disk.put(key, payload)

        warm = ExperimentEngine(cache_dir=tmp_path)
        warm.run(request)
        assert warm.stats.snapshot().get("engine.disk.hits", 0) == 0
        assert engine.disk.get(key)["schema_version"] == SCHEMA_VERSION

    def test_foreign_envelope_evicted_and_rerun(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        request = RunRequest(small(), stack="memento")
        first = engine.run(request)
        key = request.content_key(engine.cost_model)
        engine.disk.put(key, {"schema_version": 999, "result": {}})

        warm = ExperimentEngine(cache_dir=tmp_path)
        rerun = warm.run(request)
        assert rerun == first
        assert warm.stats.snapshot().get("engine.disk.hits", 0) == 0
        # The stale entry was replaced by the re-simulated result.
        assert engine.disk.get(key)["schema_version"] == SCHEMA_VERSION


class TestLedgerVersioning:
    def test_manifest_carries_one_spelling(self):
        entry = manifest("k", "aes", "memento", "live", 0.1, {})
        assert entry["schema_version"] == 1
        assert "schema" not in entry

    def test_reader_tolerates_history_and_rejects_future(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        lines = [
            {"key": "k1", "schema_version": 1},  # current
            {"key": "k2", "schema": 1},          # old spelling, ignored
            {"key": "k3"},                       # pre-field
            {"key": "k4", "schema_version": 99}, # future
            {"no_key": True},                    # pre-manifest
        ]
        with ledger.path.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
            handle.write("{corrupt\n")
        entries, skipped = ledger.read_classified()
        assert [entry["key"] for entry in entries] == ["k1", "k2", "k3"]
        assert skipped == 3
