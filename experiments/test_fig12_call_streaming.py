"""Experiment FIG1/FIG2: the paper's Figures 1 and 2, head to head.

Regenerates the implicit figure of the worked example: the pessimistic
(Figure 1) and optimistic (Figure 2) programs run the identical report
workload across a range of network latencies; the optimistic program
must commit the identical server ledger while the worker's makespan
shrinks as latency grows.

A second section runs the same workloads with the observability layer
enabled and cross-checks the registry against values hand-computed from
the raw trace: commit latency (guess -> finalize sim time), the
rollback-cascade-depth histogram, and the wasted-work ratio.
"""

from repro.apps.call_streaming import expected_output, run_optimistic, run_pessimistic
from repro.bench import (
    format_table,
    probabilistic_config,
    speedup,
    streaming_config,
    sweep,
)
from repro.obs import Histogram, MetricsRegistry
from repro.obs.metrics import CASCADE_DEPTH_BUCKETS, COMMIT_LATENCY_BUCKETS
from repro.sim import Tracer

from . import check_table

LATENCIES = [1.0, 5.0, 10.0, 25.0, 50.0, 100.0]


def run_pair(latency: float) -> dict:
    config = streaming_config(n_reports=10, latency=latency)
    pess = run_pessimistic(config)
    opt = run_optimistic(config)
    assert pess.server_output == expected_output(config)
    assert opt.server_output == expected_output(config)
    return {
        "pessimistic": pess.makespan,
        "optimistic": opt.makespan,
        "speedup_pct": 100.0 * speedup(pess.makespan, opt.makespan),
        "rollbacks": opt.rollbacks,
    }


def build_table():
    result = sweep("latency", LATENCIES, run_pair)
    metrics = ["pessimistic", "optimistic", "speedup_pct", "rollbacks"]
    return result, format_table(
        "FIG1/FIG2 — Call Streaming: Figure 1 vs Figure 2 (10 reports)",
        result.headers(metrics),
        result.rows(metrics),
    )


def hand_computed_from_trace(tracer: Tracer):
    """Recompute commit latencies, cascade depths, and wasted time from
    raw trace records — independently of the metrics listener.

    Explicit guesses pair with finalizes by AID key (AIDs are per-report
    here, so keys are unique); implicit-guess intervals pair FIFO per
    process, since a process's intervals finalize in creation order
    (the commit frontier advances oldest-first).
    """
    explicit_opens = {}
    implicit_opens = {}
    latencies = []
    depths = []
    wasted = 0.0
    for rec in tracer.records:
        if rec.category == "guess":
            explicit_opens[rec.detail["aid"]] = rec.time
        elif rec.category == "implicit_guess":
            implicit_opens.setdefault(rec.process, []).append(rec.time)
        elif rec.category == "finalize":
            aid = rec.detail["aid"]
            if aid is not None:
                latencies.append(rec.time - explicit_opens.pop(aid))
            else:
                latencies.append(rec.time - implicit_opens[rec.process].pop(0))
        elif rec.category == "rollback":
            depths.append(rec.detail["discarded"])
        elif rec.category == "restart":
            wasted += rec.detail["wasted"]
    return latencies, depths, wasted


def run_metered(config, seed: int = 0):
    registry = MetricsRegistry()
    tracer = Tracer()
    result = run_optimistic(config, seed=seed, trace=tracer, metrics=registry)
    return result, registry, tracer


def metrics_section() -> str:
    # Happy path: every guess finalizes, so guess->finalize pairing from
    # the trace is total and the commit-latency histogram must match it.
    happy, registry, tracer = run_metered(streaming_config(n_reports=10, latency=25.0))
    latencies, depths, _ = hand_computed_from_trace(tracer)
    hist = registry.get("hope_commit_latency")
    expected = Histogram("expected", COMMIT_LATENCY_BUCKETS)
    for value in latencies:
        expected.observe(value)
    assert not depths and happy.rollbacks == 0
    assert hist.count == expected.count == len(latencies) > 0
    assert hist.sum == expected.sum
    assert hist.counts == expected.counts

    # Rollback path: cascade depths and wasted time from the trace must
    # match the histogram and counter the listener built.
    lossy, reg2, tr2 = run_metered(
        probabilistic_config(n_reports=12, success_probability=0.5, latency=25.0)
    )
    _, depths2, wasted2 = hand_computed_from_trace(tr2)
    cascade = reg2.get("hope_rollback_cascade_depth")
    expected2 = Histogram("expected", CASCADE_DEPTH_BUCKETS)
    for depth in depths2:
        expected2.observe(depth)
    assert lossy.rollbacks > 0
    assert cascade.count == expected2.count == len(depths2)
    assert cascade.counts == expected2.counts
    wasted_counter = reg2.get("hope_wasted_time_total").value
    assert abs(wasted_counter - wasted2) < 1e-5          # restart detail is rounded
    assert abs(wasted_counter - lossy.wasted_time) < 1e-9
    busy = reg2.get("hope_busy_time").value
    ratio = wasted_counter / (busy + wasted_counter)

    hist2 = reg2.get("hope_commit_latency")
    rows = [
        ["commit latency n", hist.count, hist2.count],
        ["commit latency mean", round(hist.mean, 4), round(hist2.mean, 4)],
        ["rollbacks", happy.rollbacks, lossy.rollbacks],
        ["wasted time", happy.wasted_time, round(wasted_counter, 4)],
        ["wasted-work ratio", 0.0, round(ratio, 4)],
    ]
    table = format_table(
        "FIG1/FIG2 — speculation metrics, cross-checked against the trace",
        ["metric", "happy path", "rollback path"],
        rows,
    )
    depth_rows = [
        [f"<= {bound:g}", count]
        for bound, count in cascade.items()
        if count
    ]
    table += "\n" + format_table(
        "rollback cascade depth (intervals discarded per rollback)",
        ["bucket", "count"],
        depth_rows,
    )
    return table


def test_fig12_metrics_match_trace():
    check_table("fig12_metrics", metrics_section())


def test_fig12_call_streaming():
    result, table = build_table()
    check_table("fig12_call_streaming", table)
    # shape assertions: optimism wins at every latency, and the win grows
    gains = result.column("speedup_pct")
    assert all(g > 0 for g in gains)
    assert gains[-1] > gains[0]
    assert gains[-1] > 50.0
