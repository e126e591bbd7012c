"""The shared wire codec both request hierarchies are built on."""

from dataclasses import dataclass

import pytest

from repro import codec


@dataclass(frozen=True)
class Point:
    x: int = 1
    y: int = 2


@dataclass(frozen=True)
class Vector:
    x: int = 1
    y: int = 2


class TestCanonical:
    def test_dataclasses_are_type_tagged(self):
        # Equal fields, different types: must not collide.
        assert codec.canonical(Point()) != codec.canonical(Vector())
        assert codec.digest(Point()) != codec.digest(Vector())

    def test_dict_keys_sorted(self):
        assert codec.canonical({"b": 1, "a": 2}) == {"a": 2, "b": 1}

    def test_tuples_normalize_to_lists(self):
        assert codec.canonical((1, 2)) == [1, 2]

    def test_unhashable_types_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            codec.canonical(object())


class TestContentKey:
    def test_key_is_stable(self):
        key = codec.content_key(
            Point(), schema=1, fingerprints={"source": "abc"}
        )
        assert key == codec.content_key(
            Point(), schema=1, fingerprints={"source": "abc"}
        )

    def test_schema_and_fingerprints_fold_in(self):
        base = codec.content_key(
            Point(), schema=1, fingerprints={"source": "abc"}
        )
        assert base != codec.content_key(
            Point(), schema=2, fingerprints={"source": "abc"}
        )
        assert base != codec.content_key(
            Point(), schema=1, fingerprints={"source": "xyz"}
        )


class TestVersionedCodec:
    CODEC = codec.VersionedCodec("Point", 3)

    def test_stamp_then_open_round_trips(self):
        wire = self.CODEC.stamp({"x": 1})
        assert wire["schema_version"] == 3
        assert self.CODEC.open(wire) == {"x": 1}

    def test_version_0_payload_tolerated(self):
        assert self.CODEC.open({"x": 1}) == {"x": 1}

    def test_older_versions_tolerated(self):
        assert self.CODEC.open({"schema_version": 2, "x": 1}) == {"x": 1}

    def test_newer_version_rejected_with_label(self):
        with pytest.raises(ValueError, match="Point schema_version 4"):
            self.CODEC.open({"schema_version": 4})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            self.CODEC.open([1, 2])

    def test_open_into_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown Point"):
            self.CODEC.open_into(Point, {"x": 1, "z": 3})

    def test_open_into_accepts_known_fields(self):
        assert self.CODEC.open_into(Point, {"x": 5}) == {"x": 5}


class TestSharedDerivation:
    def test_run_request_key_still_matches_codec_derivation(self):
        # The refactor moved RunRequest's key derivation into the codec;
        # re-deriving it by hand must agree (cache compatibility).
        import dataclasses as dc

        from repro.core.config import MementoConfig
        from repro.harness.engine import (
            RunRequest,
            SCHEMA_VERSION,
            cost_model_fingerprint,
            source_fingerprint,
        )
        from repro.workloads.registry import get_workload

        request = RunRequest(get_workload("html"), memento=False)
        normalized = dc.replace(
            request,
            spec=request.spec.resolved(),
            config=MementoConfig(),
        )
        # The hashed body is the pre-stack-registry field list: the
        # legacy ``memento`` boolean, no ``stack`` key. This is what
        # keeps .repro-cache/ content keys stable across the registry's
        # introduction (see RunRequest.content_key).
        body = {"__type__": "RunRequest"}
        for name in (
            "spec",
            "memento",
            "config",
            "machine_params",
            "cold_start",
            "mmap_populate",
            "allocator",
            "allocator_kwargs",
            "kernel",
        ):
            # The retired replay-kernel field hashes as null.
            body[name] = (
                None
                if name == "kernel"
                else codec.canonical(getattr(normalized, name))
            )
        by_hand = codec.content_key(
            body,
            schema=SCHEMA_VERSION,
            fingerprints={
                "source": source_fingerprint(),
                "cost_model": cost_model_fingerprint(),
            },
        )
        assert request.content_key() == by_hand
