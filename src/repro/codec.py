"""One versioned wire codec shared by every declarative request type.

Every versioned wire type (the two request hierarchies,
:class:`~repro.harness.engine.RunRequest` and
:class:`~repro.fleet.request.FleetRequest`, and their results) reads
and writes through this one implementation:

* :func:`canonical` / :func:`digest` — reduce any dataclass tree to a
  stable JSON form and hash it (the content-key primitive).
* :class:`VersionedCodec` — the write/read halves of the versioned wire
  schema: ``stamp`` adds ``schema_version``; ``open`` pops it back off,
  reading a missing one as the current version (so a hand-written body
  such as ``{"workload": "html", "stack": "snapshot"}`` needs none) and
  rejecting any other value than a supported version, so wire or disk
  corruption fails loudly instead of silently simulating the wrong
  thing.
* :func:`checked_fields` — strict unknown-field rejection for nested
  dataclass bodies.
* :func:`check_scalars` — strict type (and optional range) checks of
  a body's scalar fields against the dataclass's declared types.
* :func:`content_key` — the shared key derivation: schema tag plus
  provenance fingerprints plus the canonicalized request body, hashed.

The codec knows nothing about any specific request type; each type owns
its field list and normalization rules and delegates the mechanics here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple


def canonical(value: Any) -> Any:
    """Reduce a request component to a stable, JSON-serializable form.

    Dataclasses are tagged with their class name so two different types
    with coincidentally equal fields cannot collide.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **body}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def fields_of(value: Any) -> Dict[str, Any]:
    """A dataclass's type-tagged field dict, one level deep.

    :func:`canonical` of the result equals :func:`canonical` of
    ``value``, so a request type can adjust its top-level fields before
    hashing and still pay for only one canonical walk of the tree.
    """
    body = {"__type__": type(value).__name__}
    for f in dataclasses.fields(value):
        body[f.name] = getattr(value, f.name)
    return body


def _hash(form: Any) -> str:
    """sha256 hex digest of an already-canonical form."""
    blob = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of ``payload``."""
    return _hash(canonical(payload))


def content_key(
    body: Any,
    *,
    schema: int,
    fingerprints: Mapping[str, str],
) -> str:
    """The shared content-key derivation.

    ``schema`` retires old artifacts when the payload shape changes;
    ``fingerprints`` fold in provenance (source tree, cost model) so a
    key can never answer from a different model of the system; ``body``
    is the normalized request itself.
    """
    payload: Dict[str, Any] = {"schema": schema}
    payload.update(sorted(fingerprints.items()))
    payload["request"] = canonical(body)
    # Canonical already: the one walk is the body's.
    return _hash(payload)


def checked_fields(cls: type, data: Any, label: str) -> Dict[str, Any]:
    """A copy of ``data`` verified to hold only ``cls`` field names."""
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be an object, got {data!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {label} fields: {sorted(unknown)}")
    return dict(data)


#: Inclusive ``(low, high)`` bounds per field name; ``None`` leaves a
#: side open.
Bounds = Mapping[str, Tuple[Optional[float], Optional[float]]]

_NOUNS = {
    bool: "a boolean",
    int: "an integer",
    float: "a finite number",
    str: "a string",
}


@lru_cache(maxsize=None)
def _scalar_kinds(cls: type) -> Dict[str, Tuple[type, bool]]:
    """``{field: (type, optional)}`` for ``cls``'s ``bool``, ``int``,
    ``float`` and ``str`` fields, ``Optional`` or not."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        optional = typing.get_origin(hint) is typing.Union
        if optional and len(args) == 2 and args[1] is type(None):
            hint = args[0]
        if hint in _NOUNS:
            kinds[name] = (hint, optional)
    return kinds


def is_scalar(kind: type, value: Any) -> bool:
    """Whether ``value`` is a wire value of type ``kind``, uncoerced: an
    ``int`` is not a bool, and a ``float`` is a finite int or float."""
    if kind is bool or kind is str:
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return isinstance(value, int)
    # 1e400 parses as infinity; 10**400 stays an int past the float range.
    return abs(value) <= sys.float_info.max and not math.isnan(value)


def check_scalars(
    cls: type,
    body: Mapping[str, Any],
    label: str,
    bounds: Optional[Bounds] = None,
) -> None:
    """Reject a wire body whose ``bool``/``int``/``float``/``str``
    fields do not hold ``cls``'s declared types (see :func:`is_scalar`;
    ``None`` where the field is ``Optional``), or lie outside
    ``bounds``. Nothing is coerced: a coerced value would run a
    different request than the one sent."""
    kinds = _scalar_kinds(cls)
    for name, value in body.items():
        if name not in kinds or (value is None and kinds[name][1]):
            continue
        kind = kinds[name][0]
        if not is_scalar(kind, value):
            raise ValueError(
                f"{label} field {name!r} must be {_NOUNS[kind]}, "
                f"got {value!r}"
            )
        low, high = (bounds or {}).get(name, (None, None))
        if (low is not None and value < low) or (
            high is not None and value > high
        ):
            raise ValueError(
                f"{label} field {name!r} must lie in [{low}, {high}] "
                f"(None: unbounded), got {value!r}"
            )


def supported_version(version: Any, current: int) -> bool:
    """Whether ``version`` is a ``schema_version`` a reader at
    ``current`` understands: an integer, not a bool, from 1 to
    ``current``."""
    return type(version) is int and 1 <= version <= current


@dataclass(frozen=True)
class VersionedCodec:
    """Stamp/validate one wire schema's ``schema_version`` field.

    One instance per wire type (``RunRequest``, ``FleetRequest``,
    ``FleetResult``, ...): ``label`` names the type in error messages,
    ``version`` is the writer's current schema version.
    """

    label: str
    version: int

    def stamp(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """The versioned wire form: ``schema_version`` plus the body."""
        return {"schema_version": self.version, **body}

    def open(self, data: Any) -> Dict[str, Any]:
        """Validate and unwrap a wire payload; returns a mutable copy
        of the body with ``schema_version`` popped off.

        A missing ``schema_version`` reads as the current version; any
        other value must be an integer from 1 to the current version
        (see :func:`supported_version`).
        """
        if not isinstance(data, dict):
            raise ValueError(f"{self.label} payload must be an object")
        body = dict(data)
        version = body.pop("schema_version", self.version)
        if type(version) is int and version > self.version:
            raise ValueError(
                f"{self.label} schema_version {version} is newer than "
                f"this reader understands ({self.version})"
            )
        if not supported_version(version, self.version):
            raise ValueError(
                f"{self.label} schema_version must be an integer from 1 "
                f"to {self.version}, got {version!r}"
            )
        return body

    def open_into(self, cls: type, data: Any) -> Dict[str, Any]:
        """:meth:`open` plus strict unknown-field rejection for ``cls``."""
        return checked_fields(cls, self.open(data), self.label)
