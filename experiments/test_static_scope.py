"""Experiment STATIC: the cost of statically-bounded optimism (§2).

Three executions of the same report stream: pessimistic (Figure 1),
statically-scoped speculation (Bubenik/Zwaenepoel-style: local compute
may run ahead, but no speculative message ever leaves the process), and
HOPE (speculation crosses processes freely).  The sweep varies how much
*local* preparation each report needs — the only thing static scoping can
hide — and shows HOPE's additional win is the *remote* latency.
"""

from repro.apps.call_streaming import run_optimistic, run_pessimistic
from repro.baselines.static_scope import run_static_scope
from repro.bench import format_table, streaming_config, sweep

from . import check_table

PREPS = [1.0, 5.0, 15.0, 30.0, 60.0]
LATENCY = 30.0


def run_prep(prep: float) -> dict:
    config = streaming_config(
        n_reports=8, latency=LATENCY, summary_prep=prep, n_warts=8
    )
    pess = run_pessimistic(config)
    static = run_static_scope(config)
    hope = run_optimistic(config)
    assert pess.server_output == static.server_output == hope.server_output
    return {
        "pessimistic": pess.makespan,
        "static_scope": static.makespan,
        "hope": hope.makespan,
        "static_gain_pct": 100 * (pess.makespan - static.makespan) / pess.makespan,
        "hope_gain_pct": 100 * (pess.makespan - hope.makespan) / pess.makespan,
    }


def test_static_scope():
    result = sweep("summary_prep", PREPS, run_prep)
    metrics = [
        "pessimistic",
        "static_scope",
        "hope",
        "static_gain_pct",
        "hope_gain_pct",
    ]
    check_table(
        "static_scope",
        format_table(
            f"STATIC — statically-scoped vs HOPE optimism (latency {LATENCY})",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    static_gain = result.column("static_gain_pct")
    hope_gain = result.column("hope_gain_pct")
    # HOPE dominates static scoping at every preparation size
    assert all(h > s for h, s in zip(hope_gain, static_gain))
    # static scoping's gain grows with local prep (the only thing it hides)
    assert static_gain[-1] > static_gain[0]
