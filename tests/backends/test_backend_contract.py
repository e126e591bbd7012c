"""The result-store contract, enforced on :class:`JsonBackend`.

get/put round-trips, corruption recovery, concurrent-writer safety, and
the maintenance surface (``keys``/``info``/``clear``/``delete``), plus
the on-disk layout: one ``<key>.json`` file per content key.
"""

import json
import threading

import pytest

from repro.backends import JsonBackend


# One store; the ``[json]`` id suffix is kept so test ids stay stable.
@pytest.fixture(params=["json"])
def backend(tmp_path):
    return JsonBackend(tmp_path / "store")


def corrupt_entry(store: JsonBackend, key: str) -> None:
    """Rot the stored bytes for ``key``."""
    store.path(key).write_text("{not json", encoding="utf-8")


PAYLOAD = {
    "schema_version": 1,
    "result": {"wall_s": 1.25, "counters": {"cycles": 123}},
    "nested": {"list": [1, 2, 3], "none": None, "flag": True},
}


class TestRoundTrip:
    def test_get_missing_returns_none(self, backend):
        assert backend.get("deadbeef") is None

    def test_put_get_round_trip(self, backend):
        backend.put("k1", PAYLOAD)
        assert backend.get("k1") == PAYLOAD

    def test_stored_entry_isolated_from_caller_mutation(self, backend):
        payload = {"a": [1, 2]}
        backend.put("k1", payload)
        payload["a"].append(3)
        assert backend.get("k1") == {"a": [1, 2]}

    def test_put_overwrites_last_writer_wins(self, backend):
        backend.put("k1", {"v": 1})
        backend.put("k1", {"v": 2})
        assert backend.get("k1") == {"v": 2}

    def test_unserializable_payload_rejected(self, backend):
        with pytest.raises(TypeError):
            backend.put("k1", {"bad": object()})


class TestMaintenance:
    def test_delete_is_idempotent(self, backend):
        backend.put("k1", {"v": 1})
        backend.delete("k1")
        backend.delete("k1")  # second delete must not raise
        assert backend.get("k1") is None

    def test_keys_sorted(self, backend):
        for key in ("bb", "aa", "cc"):
            backend.put(key, {"k": key})
        assert backend.keys() == ["aa", "bb", "cc"]

    def test_clear_empties_and_counts(self, backend):
        for i in range(3):
            backend.put(f"k{i}", {"i": i})
        assert backend.clear() == 3
        assert backend.keys() == []
        assert backend.clear() == 0

    def test_info_reports_contract_fields(self, backend):
        backend.put("k1", PAYLOAD)
        info = backend.info()
        assert info["backend"] == "json"
        assert info["path"] == str(backend.root)
        assert info["entries"] == 1
        assert info["bytes"] > 0


class TestCorruptionRecovery:
    def test_corrupt_entry_reads_as_missing(self, backend):
        backend.put("k1", PAYLOAD)
        corrupt_entry(backend, "k1")
        assert backend.get("k1") is None

    def test_corrupt_entry_recovers_on_next_put(self, backend):
        backend.put("k1", PAYLOAD)
        corrupt_entry(backend, "k1")
        assert backend.get("k1") is None
        backend.put("k1", {"v": "fresh"})
        assert backend.get("k1") == {"v": "fresh"}


class TestConcurrency:
    def test_concurrent_writers_leave_intact_entries(self, backend):
        """Racing writers of a shared keyspace never leave torn entries:
        every surviving payload is one that some writer actually wrote."""
        writers, rounds, keyspace = 8, 20, [f"key{i}" for i in range(4)]
        errors = []

        def hammer(worker: int) -> None:
            try:
                for round_no in range(rounds):
                    for key in keyspace:
                        backend.put(
                            key, {"worker": worker, "round": round_no}
                        )
                        got = backend.get(key)
                        # Another writer may have replaced the entry,
                        # but a torn/corrupt read is a contract breach.
                        assert got is None or (
                            set(got) == {"worker", "round"}
                        ), got
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for key in keyspace:
            final = backend.get(key)
            assert set(final) == {"worker", "round"}
            assert 0 <= final["worker"] < writers
            assert final["round"] == rounds - 1


class TestLayout:
    def test_json_backend_stores_one_file_per_key(self, tmp_path):
        store = JsonBackend(tmp_path)
        store.put("abc123", {"v": 1})
        path = store.path("abc123")
        assert path.name == "abc123.json"
        assert json.loads(path.read_text()) == {"v": 1}
