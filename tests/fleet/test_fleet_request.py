"""FleetRequest wire round-trip and content-key semantics.

The acceptance criteria for the request-API unification live here:
``FleetRequest`` speaks the same versioned wire conventions as
``RunRequest`` (stamp on write, tolerate version-0 payloads, reject
newer versions and unknown fields) because both delegate to the one
codec in :mod:`repro.codec`.
"""

import dataclasses

import pytest

from repro import codec
from repro.core.config import MementoConfig
from repro.fleet.request import (
    FLEET_SCHEMA_VERSION,
    FleetRequest,
)
from repro.harness.engine import cost_model_fingerprint, source_fingerprint

#: The frozen canonical field list every fleet content key hashes.
FLEET_KEY_FIELDS = (
    "workloads",
    "mix",
    "invocations",
    "duration_s",
    "pattern",
    "seed",
    "epochs",
    "keep_alive_s",
    "policy",
    "max_warm",
    "profile_seeds",
    "invocation_allocs",
    "stacks",
    "config",
    "machine_params",
    "kernel",
)


class TestRoundTrip:
    def test_to_dict_stamps_schema_version(self):
        payload = FleetRequest(workloads=("html",)).to_dict()
        assert payload["schema_version"] == FLEET_SCHEMA_VERSION

    def test_round_trip_is_identity(self):
        request = FleetRequest(
            workloads=("html", "aes"),
            invocations=5_000,
            duration_s=1800.0,
            pattern="diurnal",
            mix="uniform",
            seed=7,
            keep_alive_s=120.0,
            policy="lru",
            max_warm=8,
            config=MementoConfig(bypass_enabled=False),
        )
        back = FleetRequest.from_dict(request.to_dict())
        assert back == request
        assert back.content_key() == request.content_key()

    def test_version_0_payload_tolerated(self):
        request = FleetRequest(workloads=("html",), seed=3)
        legacy = request.to_dict()
        del legacy["schema_version"]
        assert FleetRequest.from_dict(legacy) == request

    def test_newer_schema_rejected(self):
        payload = FleetRequest().to_dict()
        payload["schema_version"] = FLEET_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            FleetRequest.from_dict(payload)

    def test_unknown_fields_rejected(self):
        payload = FleetRequest().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown FleetRequest"):
            FleetRequest.from_dict(payload)


class TestContentKey:
    def test_resolved_request_hashes_identically(self):
        request = FleetRequest(invocations=1000, seed=5)
        assert request.resolved().content_key() == request.content_key()

    def test_kernel_choice_excluded_from_key(self):
        # The retired replay-kernel field: legacy payloads carrying any
        # value it once accepted parse to the same request and key.
        base = FleetRequest(workloads=("html",), seed=5)
        for kernel in (None, "scalar", "vectorized", "auto"):
            payload = base.to_dict()
            payload["kernel"] = kernel
            parsed = FleetRequest.from_dict(payload)
            assert parsed == base
            assert parsed.content_key() == base.content_key()

    def test_unknown_kernel_still_rejected(self):
        payload = FleetRequest(workloads=("html",)).to_dict()
        payload["kernel"] = "bogus"
        with pytest.raises(ValueError, match="unknown replay kernel"):
            FleetRequest.from_dict(payload)

    def test_key_matches_frozen_field_list(self):
        # Re-derive the key by hand from the frozen field list, the
        # retired ``kernel`` hashing as null, so a field change that
        # would retire every cached fleet fails here.
        request = FleetRequest(workloads=("html", "ir"), seed=9)
        resolved = request.resolved()
        body = {"__type__": "FleetRequest"}
        for name in FLEET_KEY_FIELDS:
            body[name] = (
                None
                if name == "kernel"
                else codec.canonical(getattr(resolved, name))
            )
        by_hand = codec.content_key(
            body,
            schema=FLEET_SCHEMA_VERSION,
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(),
            },
        )
        assert request.content_key() == by_hand

    def test_platform_knobs_change_the_key(self):
        base = FleetRequest(workloads=("html",), seed=5)
        assert (
            dataclasses.replace(base, keep_alive_s=1.0).content_key()
            != base.content_key()
        )
        assert (
            dataclasses.replace(base, seed=6).content_key()
            != base.content_key()
        )

    def test_wire_round_trip_preserves_key(self):
        # The HTTP-vs-direct half of the criterion: a request that rode
        # the wire hashes to the same fleet key as the original.
        request = FleetRequest(
            workloads=("html", "ir"), invocations=777, pattern="diurnal"
        )
        assert (
            FleetRequest.from_dict(request.to_dict()).content_key()
            == request.content_key()
        )


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            FleetRequest(workloads=("nope",))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("invocations", 0, "invocations"),
            ("duration_s", 0.0, "duration_s"),
            ("pattern", "weekly", "pattern"),
            ("mix", "heavy", "mix"),
            ("policy", "fifo", "policy"),
            ("keep_alive_s", -1.0, "keep_alive_s"),
            ("profile_seeds", 0, "profile_seeds"),
            ("stacks", (), "stacks"),
            ("stacks", ("gc",), "stack"),
        ],
    )
    def test_bad_fields_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            FleetRequest(**{field: value})

    def test_resolved_fills_workloads_and_epochs(self):
        resolved = FleetRequest(invocations=1_000_000).resolved()
        assert len(resolved.workloads) == 16
        assert resolved.epochs > 0
