"""Exposition-format validity of the live ``/metrics`` endpoint.

Rather than pinning individual lines, this suite runs one job through a
real service and checks the invariants a Prometheus scraper relies on:
every sample's family has exactly one ``# HELP`` and ``# TYPE`` header,
metric names match the exposition grammar, and histogram bucket series
are cumulative with ``+Inf`` equal to ``_count``.
"""

import re
from math import inf

import pytest

from repro.harness.engine import ExperimentEngine
from repro.service.app import ExperimentServer
from repro.service.client import ServiceClient

#: Prometheus metric-name grammar (exposition format).
NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")

LABELS_RE = re.compile(r"\{[^}]*\}")


@pytest.fixture(scope="module")
def metrics_text(tmp_path_factory):
    """One scrape of ``/metrics`` after a run completed."""
    engine = ExperimentEngine(cache_dir=tmp_path_factory.mktemp("cache"))
    with ExperimentServer(host="127.0.0.1", port=0, engine=engine) as srv:
        client = ServiceClient(srv.url, timeout=30)
        job_id = client.submit({
            "workload": "aes", "stack": "memento",
            "spec_overrides": {"num_allocs": 1_200},
        })
        client.result(job_id, timeout=60)
        return client.metrics()


def parse(text):
    """``(helps, types, samples)`` — samples as (name, labels, value)."""
    helps, types, samples = {}, {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split(maxsplit=3)[2]
            assert name not in helps, f"duplicate HELP for {name}"
            helps[name] = line
        elif line.startswith("# TYPE "):
            parts = line.split()
            name, kind = parts[2], parts[3]
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
        else:
            match = LABELS_RE.search(line)
            labels = match.group(0) if match else ""
            bare = LABELS_RE.sub("", line)
            name, value = bare.split()
            samples.append((name, labels, float(value)))
    return helps, types, samples


def family_of(name, types):
    """The sample's metric family (folding histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return name


def test_scrape_is_nonempty_and_covers_both_components(metrics_text):
    assert 'component="service"' in metrics_text
    assert 'component="engine"' in metrics_text
    assert metrics_text.endswith("\n")


def test_every_sample_family_has_help_and_type(metrics_text):
    helps, types, samples = parse(metrics_text)
    assert samples
    for name, _, _ in samples:
        family = family_of(name, types)
        assert family in types, f"{name} has no # TYPE"
        assert family in helps, f"{name} has no # HELP"
        assert types[family] in ("gauge", "counter", "histogram")


def test_metric_names_match_the_exposition_grammar(metrics_text):
    _, types, samples = parse(metrics_text)
    for name, _, _ in samples:
        assert NAME_RE.fullmatch(name), f"bad metric name {name!r}"
    for name in types:
        assert NAME_RE.fullmatch(name), f"bad family name {name!r}"


def test_job_latency_histograms_are_exposed(metrics_text):
    _, types, samples = parse(metrics_text)
    assert types.get("repro_service_job_wait_us") == "histogram"
    assert types.get("repro_service_job_run_us") == "histogram"
    finished = [
        value for name, _, value in samples
        if name == "repro_service_jobs_finished_done"
    ]
    assert finished and finished[0] >= 1


def test_histogram_buckets_are_cumulative_to_count(metrics_text):
    _, types, samples = parse(metrics_text)
    families = [
        name for name, kind in types.items() if kind == "histogram"
    ]
    assert families
    for family in families:
        buckets = []
        for name, labels, value in samples:
            if name != f"{family}_bucket":
                continue
            le = re.search(r'le="([^"]+)"', labels).group(1)
            buckets.append((inf if le == "+Inf" else float(le), value))
        buckets.sort()
        assert buckets, f"{family} has no buckets"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), f"{family} not cumulative"
        assert buckets[-1][0] == inf
        (count,) = [
            value for name, _, value in samples
            if name == f"{family}_count"
        ]
        assert buckets[-1][1] == count
        assert any(name == f"{family}_sum" for name, _, _ in samples)
