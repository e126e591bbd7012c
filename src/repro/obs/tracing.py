"""Span tracing: where a run spends its wall time.

A :class:`Tracer` records a tree of named, nested :class:`Span` objects
— trace load, replay, stats fold, cache admit — each with
wall-clock duration and free-form attributes. Instrumented code asks for
the active tracer via ``repro.obs.instruments.current().tracer``; by
default that is the :data:`NULL_TRACER`, whose ``span`` returns one shared no-op context
manager, so the instrumentation points cost a single method call and no
allocation when tracing is off. The hot replay loops themselves are never
instrumented per event — spans wrap phases, not lines.

Span trees serialize with ``to_dict`` (consumed by the metrics exporters
and the ``repro obs`` CLI) and render as an ASCII tree with
:func:`render_span_tree`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List


class Span:
    """One timed, named region; nests via ``children``."""

    __slots__ = ("name", "attrs", "start", "end", "children", "_tracer")

    def __init__(self, name: str, tracer: "Tracer", attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: List["Span"] = []
        self._tracer = tracer

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on the open span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._clock()
        self._tracer._pop(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form: name, seconds, start, attrs, children.

        ``start`` is the raw tracer-clock reading at span entry — only
        offsets between spans of one payload are meaningful (the timeline
        exporter rebases them to the earliest span).
        """
        out: Dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "start": self.start,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], tracer: "Tracer") -> "Span":
        """Rebuild a finished span tree from its :meth:`to_dict` form."""
        span = cls(payload["name"], tracer, dict(payload.get("attrs") or {}))
        span.start = payload["start"]
        span.end = span.start + payload["seconds"]
        span.children = [
            cls.from_dict(child, tracer)
            for child in payload.get("children", ())
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s)"


class Tracer:
    """Collects a forest of nested spans.

    ``span(name, **attrs)`` returns a context manager; entering it pushes
    onto the nesting stack (becoming the parent of spans opened inside),
    exiting records the duration. Completed top-level spans accumulate in
    ``roots``. Thread-compatible for the harness's use (one tracer per
    thread; a worker process records into its own tracer, whose spans
    the parent attaches with :meth:`adopt`).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new (not yet entered) span under the current one."""
        return Span(name, self, attrs)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exits out of order (a span leaked across an exception):
        # unwind to the matching entry instead of corrupting the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def adopt(self, spans: List[Dict[str, Any]]) -> None:
        """Attach finished spans in :meth:`to_dict` form (recorded by
        another tracer, such as a worker process's) under the open span.
        The default clock, ``perf_counter``, reads the system-wide
        monotonic clock on Linux, so their starts share this axis."""
        for payload in spans:
            span = Span.from_dict(payload, self)
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)

    def clear(self) -> None:
        self.roots = []
        self._stack = []

    def to_dict(self) -> Dict[str, Any]:
        """The whole span forest in plain-JSON form."""
        return {"spans": [span.to_dict() for span in self.roots]}


class _NullSpan:
    """Shared do-nothing span: every call is a constant-time no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"name": "null", "seconds": 0.0}


class NullTracer:
    """The disabled tracer: one shared span, no recording, no allocation."""

    enabled = False

    _span = _NullSpan()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return self._span

    @property
    def roots(self) -> List[Span]:
        return []

    def adopt(self, spans: List[Dict[str, Any]]) -> None:
        pass

    def clear(self) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": []}


#: The process-wide default: tracing off.
NULL_TRACER = NullTracer()


def render_span_tree(tree: Dict[str, Any], indent: str = "") -> str:
    """ASCII rendering of a ``Tracer.to_dict()`` payload (or one span).

    Each line shows the span name, duration in milliseconds, and its
    attributes; children are indented two spaces per level.
    """
    lines: List[str] = []

    def walk(span: Dict[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        attr_text = (
            " " + " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            if attrs
            else ""
        )
        lines.append(
            f"{indent}{'  ' * depth}{span['name']:<24} "
            f"{span.get('seconds', 0.0) * 1e3:9.3f} ms{attr_text}"
        )
        for child in span.get("children", ()):
            walk(child, depth + 1)

    spans = tree.get("spans", [tree] if "name" in tree else [])
    for span in spans:
        walk(span, 0)
    return "\n".join(lines)
