"""The result store: a flat directory of ``<key>.json`` artifacts.

:class:`JsonBackend` is the persistence layer behind the
:class:`~repro.harness.engine.ExperimentEngine`'s content-addressed
result store: a durable key/value map from content keys to
JSON-serializable payload dicts. The engine owns the *semantics* of the
payload (envelope schema, ``result`` body, invalidation fingerprints);
the store owns only storage, under this contract
(``tests/backends/test_backend_contract.py``):

* ``get`` returns the stored payload dict, or ``None`` when the key is
  absent **or the stored bytes are corrupt**; corrupt entries are
  evicted on read so a later ``put`` starts clean.
* ``put`` is atomic and last-writer-wins: each write goes to a private
  temp file that is renamed into place, so a crashed or concurrent
  writer never leaves a torn entry, and concurrent writers of the same
  key leave one of the written payloads, intact.
* ``delete`` is idempotent; ``clear`` empties the store and returns the
  number of entries removed; ``keys`` lists stored content keys.
* ``info`` reports ``backend``, ``path``, ``entries`` and ``bytes``
  (the ``repro cache info`` table).

One file per content key keeps entries independently inspectable
(``cat`` a result, ``rm`` a single key).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional


class JsonBackend:
    """One ``<content-key>.json`` file per entry under ``root``."""

    kind = "json"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._evict(path)
            return None
        if not isinstance(payload, dict):
            self._evict(path)
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist an entry (write-to-temp + rename), so a
        crashed or concurrent writer can never leave a torn file."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:12]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> None:
        self._evict(self.path(key))

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- maintenance -----------------------------------------------------

    def entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def keys(self) -> List[str]:
        return [path.stem for path in self.entries()]

    def clear(self) -> int:
        removed = 0
        for path in self.entries():
            self._evict(path)
            removed += 1
        return removed

    def info(self) -> Dict[str, Any]:
        entries = self.entries()
        return {
            "backend": self.kind,
            "path": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
        }
