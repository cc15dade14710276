"""Unit tests for the JSONL / Prometheus / summary exporters."""

import json

import pytest

from repro.core import Machine
from repro.obs import (
    MetricsRegistry,
    SpeculationMetrics,
    render,
    summary,
    to_jsonl,
    to_prometheus,
)


@pytest.fixture
def populated():
    """A registry fed by one guess/affirm round."""
    registry = MetricsRegistry()
    spec = SpeculationMetrics(registry)
    machine = Machine()
    clock = {"now": 0.0}
    machine.subscribe(lambda event: spec.observe_event(event, clock["now"]))
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    clock["now"] = 1.0
    machine.guess("p", x)
    clock["now"] = 4.0
    machine.affirm("q", x)
    return registry, spec


def test_jsonl_rows_parse_and_cover_everything(populated):
    registry, _ = populated
    lines = to_jsonl(registry).splitlines()
    rows = [json.loads(line) for line in lines]
    metric_rows = [r for r in rows if r["type"] in ("counter", "gauge", "histogram")]
    assert len(metric_rows) == len(rows) == len(list(registry))
    by_name = {r["name"]: r for r in metric_rows}
    assert by_name["hope_guesses_total"]["value"] == 1
    latency = by_name["hope_commit_latency"]
    assert latency["count"] == 1
    assert latency["sum"] == pytest.approx(3.0)
    # the +Inf tail serializes as a string, not Infinity (invalid JSON)
    assert latency["buckets"][-1][0] == "+Inf"


def test_jsonl_empty_registry_is_empty_string():
    assert to_jsonl(MetricsRegistry()) == ""


def test_prometheus_format(populated):
    registry, _ = populated
    text = to_prometheus(registry)
    assert "# TYPE hope_guesses_total counter\nhope_guesses_total 1\n" in text
    assert "# HELP hope_guesses_total" in text
    # histogram: cumulative buckets, +Inf equals _count, sum without .0
    assert 'hope_commit_latency_bucket{le="+Inf"} 1' in text
    assert "hope_commit_latency_sum 3\n" in text
    assert "hope_commit_latency_count 1" in text
    cumulative = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("hope_commit_latency_bucket")
    ]
    assert cumulative == sorted(cumulative)


def test_prometheus_float_rendering():
    registry = MetricsRegistry()
    registry.gauge("g").set(2.5)
    registry.counter("c").inc(3)
    text = to_prometheus(registry)
    assert "\ng 2.5" in text
    assert "\nc 3" in text


def test_summary_table(populated):
    registry, spec = populated
    text = summary(registry, spec)
    assert "speculation metrics" in text
    assert "hope_guesses_total" in text
    assert "wasted-work ratio" in text
    # histogram line carries n / mean / conservative quantiles
    assert "n=1 mean=3" in text


def test_summary_without_spans_or_spec():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    text = summary(registry)
    assert "derived" not in text


def test_render_dispatch(populated):
    registry, spec = populated
    assert render("jsonl", registry) == to_jsonl(registry)
    assert render("prom", registry) == to_prometheus(registry)
    assert render("summary", registry, spec) == summary(registry, spec)
    with pytest.raises(ValueError):
        render("xml", registry)


def test_exports_are_pure_functions(populated):
    registry, spec = populated
    for fmt in ("jsonl", "prom", "summary"):
        assert render(fmt, registry, spec) == render(fmt, registry, spec)
