"""Experiment (extension): the price and payoff of logging optimism.

Strom & Yemini's insight, measured: a sender that waits for every stable
write pays the disk latency on the critical path; the optimistic sender
streams ahead while writes drain in the background, paying only when a
crash orphans the unflushed window.

* Sweep 1 — failure-free overhead vs. disk write latency: optimistic
  logging's makespan stays flat while synchronous logging degrades
  linearly.
* Sweep 2 — crash recovery cost vs. volatile buffer size (flush_every):
  bigger buffers stream faster but orphan more on a crash.
"""

from repro.apps.recovery import (
    RecoveryConfig,
    disk,
    receiver,
    reference_ledger,
    run_recovery,
    sender,
)
from repro.bench import format_table, sweep
from repro.runtime import HopeSystem, call
from repro.sim import ConstantLatency

from . import check_table

WRITE_LATENCIES = [1.0, 4.0, 8.0, 16.0]
FLUSH_SIZES = [1, 2, 4, 8]


def sync_sender(p, config: RecoveryConfig):
    """The pessimistic comparator: stable-write *then* send, per item."""
    corr = int((yield p.random()) * 1_000_000_000) * 1000
    for index, item in enumerate(config.items):
        yield from call(p, "disk", ("intent", index, f"sync-{index}"), corr)
        corr += 1
        yield from call(p, "disk", ("write", index), corr)   # wait for stability
        corr += 1
        yield p.send("receiver", ("item", index, item))
        yield p.compute(config.send_spacing)
    yield p.send("receiver", ("end", len(config.items)))
    while True:
        yield p.recv()                    # absorb stray replay requests


def _run_sync(config: RecoveryConfig) -> float:
    system = HopeSystem(latency=ConstantLatency(config.latency))
    system.spawn("disk", disk, config.log_write_latency)
    system.spawn("sender", sync_sender, config)
    system.spawn("receiver", receiver, config)
    makespan = system.run(max_events=5_000_000)
    assert system.committed_outputs("disk") == reference_ledger(config)
    return makespan


def run_write_latency(write_latency: float) -> dict:
    config = RecoveryConfig(
        items=tuple(range(10)), log_write_latency=write_latency
    )
    optimistic = run_recovery(config)
    assert optimistic.ledger == reference_ledger(config)
    sync_makespan = _run_sync(config)
    return {
        "optimistic": optimistic.makespan,
        "synchronous": sync_makespan,
        "gain_pct": 100 * (sync_makespan - optimistic.makespan) / sync_makespan,
    }


def run_flush_size(flush_every: int) -> dict:
    config = RecoveryConfig(
        items=tuple(range(12)), log_write_latency=6.0, flush_every=flush_every
    )
    clean = run_recovery(config)
    crashed = run_recovery(config, crash_sender_at=[11.0], restart_after=2.0)
    assert clean.ledger == reference_ledger(config)
    assert crashed.ledger == reference_ledger(config)
    return {
        "clean_makespan": clean.makespan,
        "crash_makespan": crashed.makespan,
        "crash_penalty": crashed.makespan - clean.makespan,
        "rollbacks": crashed.rollbacks,
    }


def test_recovery_logging_overhead():
    result = sweep("write latency", WRITE_LATENCIES, run_write_latency)
    metrics = ["optimistic", "synchronous", "gain_pct"]
    check_table(
        "recovery_overhead",
        format_table(
            "RECOVERY — optimistic vs synchronous logging (10 items, no crash)",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    opt = result.column("optimistic")
    sync = result.column("synchronous")
    # synchronous degrades with disk latency; optimism hides it
    assert sync[-1] > sync[0] * 1.5
    assert opt[-1] < sync[-1]
    assert max(opt) - min(opt) < max(sync) - min(sync)


def test_recovery_flush_window():
    result = sweep("flush_every", FLUSH_SIZES, run_flush_size)
    metrics = ["clean_makespan", "crash_makespan", "crash_penalty", "rollbacks"]
    check_table(
        "recovery_flush_window",
        format_table(
            "RECOVERY — volatile buffer size vs crash penalty "
            "(12 items, crash at t=11)",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    # exactly-once held everywhere (asserted inside run_flush_size)
    assert all(r >= 0 for r in result.column("rollbacks"))
