"""Tests for span tracing (:mod:`repro.obs.tracing`)."""

import pytest

from repro.obs.instruments import current, instrumented
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    render_span_tree,
)


def make_tracer(times):
    """A tracer driven by a scripted clock (one reading per call)."""
    readings = iter(times)
    return Tracer(clock=lambda: next(readings))


def test_nested_spans_build_a_tree():
    tracer = Tracer()
    with tracer.span("outer", workload="html"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner2"):
            pass
    assert len(tracer.roots) == 1
    outer = tracer.roots[0]
    assert outer.name == "outer"
    assert [c.name for c in outer.children] == ["inner", "inner2"]


def test_span_durations_from_clock():
    tracer = make_tracer([10.0, 11.0, 13.0, 14.0])
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer = tracer.roots[0]
    assert outer.seconds == pytest.approx(4.0)
    assert outer.children[0].seconds == pytest.approx(2.0)


def test_span_set_attribute():
    tracer = Tracer()
    with tracer.span("s", a=1) as span:
        span.set("b", 2)
    payload = tracer.to_dict()["spans"][0]
    assert payload["attrs"] == {"a": 1, "b": 2}


def test_exception_inside_span_still_closes_it():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    assert len(tracer.roots) == 1
    outer = tracer.roots[0]
    assert outer.end >= outer.start
    assert outer.children[0].end >= outer.children[0].start
    # The stack fully unwound: a new span is a root, not a child.
    with tracer.span("after"):
        pass
    assert [s.name for s in tracer.roots] == ["outer", "after"]


def test_to_dict_round_trips_structure():
    tracer = Tracer()
    with tracer.span("a", k="v"):
        with tracer.span("b"):
            pass
    payload = tracer.to_dict()
    assert list(payload) == ["spans"]
    (root,) = payload["spans"]
    assert root["name"] == "a"
    assert root["attrs"] == {"k": "v"}
    assert root["children"][0]["name"] == "b"
    assert "children" not in root["children"][0]


def test_clear_resets_roots_and_stack():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    tracer.clear()
    assert tracer.roots == []
    assert tracer.to_dict() == {"spans": []}


def test_null_tracer_is_shared_noop():
    null = NullTracer()
    first = null.span("anything", attr=1)
    second = null.span("else")
    assert first is second  # one shared instance, no allocation
    with first as span:
        span.set("ignored", True)
    assert null.roots == []
    assert null.to_dict() == {"spans": []}
    assert null.enabled is False and Tracer.enabled is True


def test_get_set_tracer_protocol():
    assert current().tracer is NULL_TRACER
    tracer = Tracer()
    with instrumented(tracer=tracer):
        assert current().tracer is tracer
        with instrumented(tracer=None):
            assert current().tracer is NULL_TRACER
        assert current().tracer is tracer
    assert current().tracer is NULL_TRACER
    with pytest.raises(KeyError):
        with instrumented(tracer=tracer):
            raise KeyError("boom")
    assert current().tracer is NULL_TRACER


def test_render_span_tree_indents_and_sorts_attrs():
    tracer = make_tracer([0.0, 0.0, 0.001, 0.002])
    with tracer.span("outer", z=1, a=2):
        with tracer.span("inner"):
            pass
    text = render_span_tree(tracer.to_dict())
    lines = text.splitlines()
    assert lines[0].startswith("outer")
    assert "a=2 z=1" in lines[0]  # attrs sorted by key
    assert lines[1].startswith("  inner")
    assert "ms" in lines[0]


def test_render_span_tree_accepts_single_span():
    text = render_span_tree({"name": "solo", "seconds": 0.001})
    assert text.startswith("solo")
