"""Experiment CLAIM-80: §7's "performance gains of up to 80% using the
Call Streaming protocol".

The prototype's number came from the authors' PVM testbed; the *shape* we
must reproduce is that, with verification pipelined and latency dominating
local work, the Figure 2 transformation approaches and passes an 80%
makespan reduction.  The sweep varies the latency-to-compute ratio and
reports the best observed gain.
"""

from repro.apps.call_streaming import run_optimistic, run_pessimistic
from repro.bench import format_table, speedup, streaming_config, sweep

from . import check_table

RATIOS = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0]       # latency / local compute


def run_ratio(ratio: float) -> dict:
    config = streaming_config(
        n_reports=20,
        latency=ratio,            # local_compute = 1.0 ⇒ ratio is the knob
        local_compute=1.0,
        summary_prep=2.0,
    )
    pess = run_pessimistic(config)
    opt = run_optimistic(config)
    assert opt.server_output == pess.server_output
    return {
        "pessimistic": pess.makespan,
        "optimistic": opt.makespan,
        "gain_pct": 100.0 * speedup(pess.makespan, opt.makespan),
        "worker_blocked_pess": pess.worker_blocked,
        "worker_blocked_opt": opt.worker_blocked,
    }


def build_table():
    result = sweep("lat/compute", RATIOS, run_ratio)
    metrics = [
        "pessimistic",
        "optimistic",
        "gain_pct",
        "worker_blocked_pess",
        "worker_blocked_opt",
    ]
    return result, format_table(
        'CLAIM-80 — "gains of up to 80%" (20 reports, pipelined warts)',
        result.headers(metrics),
        result.rows(metrics),
    )


def test_claim_80pct():
    result, table = build_table()
    check_table("claim_80pct", table)
    gains = result.column("gain_pct")
    # monotone in the latency ratio, and "up to 80%" is actually reached
    assert gains == sorted(gains)
    assert max(gains) >= 80.0
