"""Observability for speculation: metrics and their exporters.

The measurement substrate the perf work builds on: the quantities the
paper's theorems argue about (wasted work, commit latency, cascade blast
radius) as first-class counters/histograms instead of post-hoc trace
grepping.  Wire it in with ``HopeSystem(metrics=MetricsRegistry())``;
disabled (the default ``NullRegistry``) it costs nothing, the same
contract as :class:`repro.sim.NullTracer`.

See docs/PERFORMANCE.md §5 ("Measuring speculation") for the metric set
and exporter formats.
"""

from .export import FORMATS, render, summary, to_jsonl, to_prometheus
from .metrics import (
    CASCADE_DEPTH_BUCKETS,
    COMMIT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    SpeculationMetrics,
)

__all__ = [
    "CASCADE_DEPTH_BUCKETS",
    "COMMIT_LATENCY_BUCKETS",
    "Counter",
    "FORMATS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "SpeculationMetrics",
    "render",
    "summary",
    "to_jsonl",
    "to_prometheus",
]
