"""Experiment SWEEP-P: when does optimism pay?

§3's implicit claim: optimism wins when the assumption usually holds.
The sweep varies the probability that a report leaves the page partial
(the PartPage assumption's success rate) and reports both programs'
makespans plus the rollback count; with a non-trivial rollback overhead
the curves cross — the crossover probability is the actionable number.
"""

from repro.apps.call_streaming import run_optimistic, run_pessimistic
from repro.bench import (
    find_crossover,
    format_table,
    probabilistic_config,
    sweep,
)

from . import check_table

PROBS = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
ROLLBACK_OVERHEAD = 30.0          # makes failed speculation genuinely costly


def run_prob(p: float) -> dict:
    config = probabilistic_config(
        n_reports=12,
        success_probability=p,
        seed=7,
        latency=10.0,
        rollback_overhead=ROLLBACK_OVERHEAD,
    )
    pess = run_pessimistic(config)
    opt = run_optimistic(config)
    assert opt.server_output == pess.server_output
    return {
        "pessimistic": pess.makespan,
        "optimistic": opt.makespan,
        "rollbacks": opt.rollbacks,
        "wasted": opt.wasted_time,
    }


def build_table():
    result = sweep("P(success)", PROBS, run_prob)
    metrics = ["pessimistic", "optimistic", "rollbacks", "wasted"]
    table = format_table(
        "SWEEP-P — makespan vs assumption success probability "
        f"(rollback overhead {ROLLBACK_OVERHEAD})",
        result.headers(metrics),
        result.rows(metrics),
    )
    return result, table


def test_success_probability_sweep():
    result, table = build_table()
    cross = find_crossover(
        result.values, result.column("optimistic"), result.column("pessimistic")
    )
    check_table(
        "success_probability",
        table + f"\n\ncrossover at P(success) ≈ {cross:.2f}"
        if cross is not None
        else table + "\n\nno crossover in range",
    )
    opt = result.column("optimistic")
    pess = result.column("pessimistic")
    rolls = result.column("rollbacks")
    # all assumptions hold ⇒ no rollbacks and a clear win
    assert rolls[-1] == 0
    assert opt[-1] < pess[-1]
    # all assumptions fail ⇒ optimism loses under this rollback overhead
    assert rolls[0] >= 12
    assert opt[0] > pess[0]
    # more successes ⇒ fewer rollbacks (weakly monotone)
    assert all(a >= b for a, b in zip(rolls, rolls[1:]))
