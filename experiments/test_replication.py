"""Experiment (extension): optimistic concurrency vs read-before-write.

§7's future-work replication claim, quantified: optimistic clients send
updates against their cache and keep computing; pessimistic clients pay a
read round trip before every update.  Contention is the enemy of
optimism — the sweep moves from private keys to one hot key and shows
where the denial/retry cost eats the latency win.
"""

from repro.apps.replication import (
    ReplicationWorkload,
    run_optimistic_replication,
    run_pessimistic_replication,
)
from repro.bench import format_table, sweep
from repro.sim import ConstantLatency

from . import check_table

#: label -> (n_clients, keys, assignment)
CONTENTION_LEVELS = {
    "private": (4, ("a", "b", "c", "d"), "fixed"),
    "pairs": (4, ("a", "b"), "fixed"),
    "rotating": (4, ("a", "b", "c", "d"), "rotate"),
    "hot-key": (4, ("hot",), "fixed"),
}
LATENCY = 15.0


def run_level(label: str) -> dict:
    n_clients, keys, assignment = CONTENTION_LEVELS[label]
    workload = ReplicationWorkload(
        n_clients=n_clients,
        ops_per_client=5,
        keys=keys,
        client_compute=1.0,
        assignment=assignment,
    )
    latency = ConstantLatency(LATENCY)
    opt = run_optimistic_replication(workload, latency=latency)
    pess = run_pessimistic_replication(workload, latency=latency)
    total = sum(v for _ver, v in opt.cells.values())
    assert total == workload.total_ops
    return {
        "optimistic": opt.makespan,
        "pessimistic": pess.makespan,
        "denials": opt.denials,
        "rollbacks": opt.rollbacks,
        "speedup_pct": 100 * (pess.makespan - opt.makespan) / pess.makespan,
    }


def test_replication_contention():
    result = sweep("contention", list(CONTENTION_LEVELS), run_level)
    metrics = ["optimistic", "pessimistic", "denials", "rollbacks", "speedup_pct"]
    check_table(
        "replication",
        format_table(
            f"REPLICATION — OCC vs read-before-write "
            f"(4 clients x 5 ops, latency {LATENCY})",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    denials = result.column("denials")
    speedups = result.column("speedup_pct")
    assert denials[0] == 0                  # private keys: no conflicts
    assert any(d > 0 for d in denials[1:])  # sharing creates real contention
    assert speedups[0] > 40.0               # uncontended OCC wins big
    assert all(s > 0 for s in speedups)     # OCC never loses outright here
