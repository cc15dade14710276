"""Exporters: JSONL, Prometheus text format, and a human summary table.

All three read a :class:`~repro.obs.metrics.MetricsRegistry` and are pure
functions of it, so exporting twice yields identical bytes (there is
no wall-clock anywhere in the pipeline; see the module docstring of
:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
from typing import Optional

from .metrics import Histogram, MetricsRegistry, SpeculationMetrics

FORMATS = ("summary", "jsonl", "prom")


def to_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per line, one per metric."""
    lines = []
    for metric in registry:
        if metric.kind == "histogram":
            row = {
                "type": "histogram",
                "name": metric.name,
                "buckets": [
                    ["+Inf" if bound == float("inf") else bound, count]
                    for bound, count in metric.items()
                ],
                "sum": metric.sum,
                "count": metric.count,
            }
        else:
            row = {"type": metric.kind, "name": metric.name, "value": metric.value}
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def _prom_num(value: float) -> str:
    """Prometheus number rendering: integers without the trailing .0."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format."""
    lines = []
    for metric in registry:
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            cumulative = 0
            for bound, count in metric.items():
                cumulative += count
                le = "+Inf" if bound == float("inf") else _prom_num(bound)
                lines.append(f'{metric.name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{metric.name}_sum {_prom_num(metric.sum)}")
            lines.append(f"{metric.name}_count {metric.count}")
        else:
            lines.append(f"{metric.name} {_prom_num(metric.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def _histogram_sketch(hist: Histogram, width: int = 20) -> list[str]:
    """Tiny ASCII bucket chart for the summary table."""
    rows = []
    peak = max(hist.counts) if hist.count else 0
    for bound, count in hist.items():
        if not count:
            continue
        le = "+Inf" if bound == float("inf") else f"{bound:g}"
        bar = "#" * max(1, round(width * count / peak)) if peak else ""
        rows.append(f"    le={le:>6}  {count:>8}  {bar}")
    return rows


def summary(
    registry: MetricsRegistry, spec: Optional[SpeculationMetrics] = None
) -> str:
    """Human-readable rollup: raw instruments and derived ratios.

    ``spec`` (when the registry was populated through
    :class:`SpeculationMetrics`) adds the derived lines the paper's
    figures argue about — wasted-work ratio and cache hit rate.
    """
    lines = ["speculation metrics", "-------------------"]
    name_width = max((len(m.name) for m in registry), default=0)
    for metric in registry:
        if metric.kind == "histogram":
            lines.append(
                f"{metric.name.ljust(name_width)}  n={metric.count} "
                f"mean={metric.mean:g} p50<={metric.quantile(0.5):g} "
                f"p95<={metric.quantile(0.95):g}"
            )
            lines.extend(_histogram_sketch(metric))
        else:
            lines.append(f"{metric.name.ljust(name_width)}  {metric.value:g}")
    if spec is not None:
        lines.append("")
        lines.append("derived")
        lines.append("-------")
        lines.append(f"wasted-work ratio       {spec.wasted_work_ratio():.4f}")
        lines.append(f"resolve-cache hit rate  {spec.resolve_cache_hit_rate():.4f}")
    return "\n".join(lines) + "\n"


def render(
    fmt: str, registry: MetricsRegistry, spec: Optional[SpeculationMetrics] = None
) -> str:
    """Dispatch on one of :data:`FORMATS` (the CLI's --metrics-format)."""
    if fmt == "jsonl":
        return to_jsonl(registry)
    if fmt == "prom":
        return to_prometheus(registry)
    if fmt == "summary":
        return summary(registry, spec)
    raise ValueError(f"unknown metrics format {fmt!r} (expected one of {FORMATS})")
