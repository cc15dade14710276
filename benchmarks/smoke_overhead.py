"""CI smoke: fail if HOPE-vs-bare wall overhead regresses past the budget.

Four checks: the FOSSIL memory budget (peak RSS growth of a
fossil-collected 100k-event run must stay within
``max_fossil_rss_delta_kib``), the METRICS budget
(traces byte-identical with metrics off/null/metered, and the metered
ping-pong within ``max_metrics_overhead_ratio`` of the plain one), the
EVSEC throughput floor (the kernel's worst events/sec across the
chain/fanout/cancel shapes must stay above ``min_events_per_sec``),
then the TRACK wall-clock budget.  The TRACK half runs the ping-pong point at
the message count stored in
``overhead_threshold.json`` and compares the measured
``hope_wall / bare_wall`` ratio against ``max_overhead_ratio``.  Wall
times are min-of-``repeats`` (noise-robust); the whole measurement is
retried up to ``attempts`` times and the best ratio is judged, so a
single contended CI moment cannot fail the build — a real regression
fails every attempt.

Usage::

    PYTHONPATH=src python benchmarks/smoke_overhead.py
"""

import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load_bench(name: str):
    path = os.path.join(HERE, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_memory(budget: dict) -> int:
    """FOSSIL half of the smoke: long runs must hold memory flat.

    Runs the fossil-collected steady-state workload over the budgeted
    event horizon and compares the peak resident-set growth against
    ``max_fossil_rss_delta_kib``.  The uncollected twin grows by hundreds
    of KiB per 10k events, so any regression that stops collection from
    reclaiming (a new pin leak, a frontier that stops advancing) blows
    the budget immediately.
    """
    fossil = _load_bench("bench_fossil_steady")
    limit = budget["max_fossil_rss_delta_kib"]
    # RSS growth is allocator- and box-dependent; best-of-attempts like
    # the TRACK check, so one noisy allocation spike cannot fail the
    # build while a real pin leak blows the budget on every attempt.
    best = None
    for attempt in range(budget.get("attempts", 3)):
        result = fossil.run_horizon(True, events_total=budget["fossil_events"])
        peak = result["peak_rss_delta_kib"]
        stats = result["stats"]
        print(
            f"fossil steady-state {budget['fossil_events']} events "
            f"(attempt {attempt + 1}): "
            f"peak RSS delta {peak} KiB (budget {limit}), "
            f"{stats['fossil_collections']} collections, "
            f"{stats['fossil_log_dropped']} log entries dropped"
        )
        if not stats["fossil_collections"] or not stats["fossil_log_dropped"]:
            print("FAIL: fossil collection never reclaimed anything")
            return 1
        best = peak if best is None else min(best, peak)
        if best <= limit:
            break
    if best is None or best > limit:
        print(f"FAIL: fossil-collected peak RSS delta {best} KiB "
              f"best-of-attempts exceeds budget {limit}")
        return 1
    return 0


def _check_metrics(budget: dict) -> int:
    """METRICS half: observability must be free when off, cheap when on.

    Disabled path: a run handed a ``NullRegistry`` subscribes no machine
    listener, so its trace must be byte-identical to a metrics-off run —
    and so must a *metered* run, whose listener only reads.  Checked on a
    rollback-heavy call-streaming workload via trace fingerprints.
    Enabled path: wall time of the speculative ping-pong with a live
    registry vs the default (NullRegistry) must stay under
    ``max_metrics_overhead_ratio``; min-of-repeats and best-of-attempts,
    like the TRACK check.
    """
    from repro.apps.call_streaming import run_optimistic
    from repro.bench import probabilistic_config
    from repro.obs import MetricsRegistry, NullRegistry
    from repro.sim import Tracer

    config = probabilistic_config(n_reports=8, success_probability=0.5)
    t_off, t_null, t_on = Tracer(), Tracer(), Tracer()
    run_optimistic(config, trace=t_off)
    run_optimistic(config, trace=t_null, metrics=NullRegistry())
    run_optimistic(config, trace=t_on, metrics=MetricsRegistry())
    if t_off.format() != t_null.format() or t_off.fingerprint() != t_null.fingerprint():
        print("FAIL: NullRegistry run's trace differs from the metrics-off run")
        return 1
    if t_off.fingerprint() != t_on.fingerprint():
        print("FAIL: metered run's trace differs from the metrics-off run")
        return 1
    print(f"metrics: traces byte-identical across off/null/metered runs "
          f"({len(t_off)} records)")

    bench = _load_bench("bench_tracking_overhead")
    n = budget["messages"]
    repeats = budget.get("repeats", 5)
    limit = budget["max_metrics_overhead_ratio"]
    best = None
    for attempt in range(budget.get("attempts", 3)):
        plain_s = min(
            bench._hope_pingpong(n, speculative=True)["wall_s"]
            for _ in range(repeats)
        )
        metered_s = min(
            bench._hope_pingpong(n, speculative=True, metrics=MetricsRegistry())[
                "wall_s"
            ]
            for _ in range(repeats)
        )
        ratio = metered_s / plain_s
        best = ratio if best is None else min(best, ratio)
        print(
            f"metrics attempt {attempt + 1}: metered {1000 * metered_s:.2f} ms / "
            f"plain {1000 * plain_s:.2f} ms = {ratio:.2f} (budget {limit})"
        )
        if best <= limit:
            break
    if best is None or best > limit:
        print(f"FAIL: metrics overhead ratio {best:.2f} exceeds budget {limit}")
        return 1
    print(f"OK: metrics overhead ratio {best:.2f} within budget {limit}")
    return 0


def _check_throughput(budget: dict) -> int:
    """EVSEC half: the kernel must keep its events/sec floor.

    Runs the three scheduling shapes from ``bench_events_per_sec`` and
    judges the *worst* shape's throughput against ``min_events_per_sec``;
    best-of-attempts like the TRACK check.  The floor sits well below the
    measured numbers — it catches a complexity regression (a queue
    degenerating into linear scans), not a slow CI box.
    """
    evsec = _load_bench("bench_events_per_sec")
    n = budget.get("evsec_events", 20000)
    floor = budget["min_events_per_sec"]
    best = None
    for attempt in range(budget.get("attempts", 3)):
        points = {
            shape: evsec.run_point(shape, n=n, repeats=budget.get("repeats", 5))
            for shape in sorted(evsec.SHAPES)
        }
        worst = 1000 * min(p["kev_s"] for p in points.values())
        best = worst if best is None else max(best, worst)
        detail = ", ".join(
            f"{shape} {1000 * p['kev_s']:,.0f} ev/s" for shape, p in sorted(points.items())
        )
        print(
            f"evsec attempt {attempt + 1}: {detail}; "
            f"worst {worst:,.0f} ev/s (floor {floor:,})"
        )
        if best >= floor:
            break
    if best is None or best < floor:
        print(f"FAIL: kernel throughput {best:,.0f} ev/s below floor {floor:,}")
        return 1
    print(f"OK: kernel worst-shape throughput {best:,.0f} ev/s above floor {floor:,}")
    return 0


def main() -> int:
    with open(os.path.join(HERE, "overhead_threshold.json"), encoding="utf-8") as fh:
        budget = json.load(fh)
    if _check_memory(budget):
        return 1
    if _check_metrics(budget):
        return 1
    if _check_throughput(budget):
        return 1
    bench = _load_bench("bench_tracking_overhead")
    n = budget["messages"]
    limit = budget["max_overhead_ratio"]
    best = None
    for attempt in range(budget.get("attempts", 3)):
        point = bench.run_point(n, repeats=budget.get("repeats", 5))
        ratio = point["overhead_ratio"]
        best = ratio if best is None else min(best, ratio)
        print(
            f"attempt {attempt + 1}: hope {point['hope_wall_ms']:.2f} ms / "
            f"bare {point['bare_wall_ms']:.2f} ms = {ratio:.2f} "
            f"(budget {limit})"
        )
        if best <= limit:
            break
    if best is None or best > limit:
        print(f"FAIL: overhead ratio {best:.2f} exceeds budget {limit}")
        return 1
    print(f"OK: overhead ratio {best:.2f} within budget {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
