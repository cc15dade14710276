"""Ablation: verification parallelism (WorryWart pool size).

A design choice DESIGN.md calls out: one WorryWart serializes
verification at an S1 round trip per report; when the worker streams
faster than verification completes, S3s overtake queued S1s and the
Order assumption fails under load.  The sweep shows the three regimes —
backlogged (rollback storms), balanced, and fully pipelined — and that
correctness holds in all of them.
"""

from repro.apps.call_streaming import run_optimistic, run_pessimistic
from repro.bench import format_table, streaming_config, sweep

from . import check_table

WARTS = [1, 2, 4, 8, 16, 20]
N_REPORTS = 20
LATENCY = 25.0


def run_warts(n_warts: int) -> dict:
    config = streaming_config(
        n_reports=N_REPORTS, latency=LATENCY, n_warts=n_warts
    )
    opt = run_optimistic(config)
    pess = run_pessimistic(config)
    assert opt.server_output == pess.server_output
    return {
        "makespan": opt.makespan,
        "rollbacks": opt.rollbacks,
        "wasted": opt.wasted_time,
        "gain_pct": 100 * (pess.makespan - opt.makespan) / pess.makespan,
    }


def test_wart_pipeline_ablation():
    result = sweep("warts", WARTS, run_warts)
    metrics = ["makespan", "rollbacks", "wasted", "gain_pct"]
    check_table(
        "wart_pipeline",
        format_table(
            f"ABLATION — WorryWart pool size ({N_REPORTS} reports, latency {LATENCY})",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    rollbacks = result.column("rollbacks")
    gains = result.column("gain_pct")
    # backlogged regime really has failures; pipelined regime has none
    assert rollbacks[0] > 0
    assert rollbacks[-1] == 0
    # more verification parallelism never hurts
    assert result.column("makespan")[-1] <= result.column("makespan")[0]
    assert gains[-1] > gains[0]
