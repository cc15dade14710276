"""Cross-feature integration: applications × failures."""

from repro.apps.recovery import (
    RecoveryConfig,
    disk,
    receiver,
    reference_ledger,
    sender,
)
from repro.apps.replication import (
    ReplicationWorkload,
    optimistic_client,
    primary,
)
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency

from ..examples import load_example

tms = load_example("truth_maintenance")
SearchProblem = tms.SearchProblem
reference_solution = tms.reference_solution
run_search = tms.run_search


def _recovery_system(config, seed=0):
    system = HopeSystem(seed=seed, latency=ConstantLatency(config.latency))
    system.spawn("disk", disk, config.log_write_latency)
    system.spawn("sender", sender, config)
    system.spawn("receiver", receiver, config)
    return system


def test_recovery_with_sender_crash():
    config = RecoveryConfig(items=tuple(range(10)), log_write_latency=9.0)
    system = _recovery_system(config)
    system.sim.schedule_at(7.0, system.crash_process, "sender")
    system.sim.schedule_at(10.0, system.restart_process, "sender")
    system.run(max_events=5_000_000)
    assert system.committed_outputs("disk") == reference_ledger(config)


def test_replication_contention():
    workload = ReplicationWorkload(n_clients=3, ops_per_client=3, keys=("hot",))
    system = HopeSystem(latency=ConstantLatency(5.0))
    system.spawn("primary", primary)
    for c in range(workload.n_clients):
        system.spawn(f"client-{c}", optimistic_client, workload, c)
    system.run(max_events=5_000_000)
    applied = [
        entry
        for entry in system.committed_outputs("primary")
        if entry[0] == "applied"
    ]
    assert len(applied) == workload.total_ops
    # final value equals total ops: each increment applied exactly once
    assert applied[-1][3] == workload.total_ops


def test_search_with_rollback_overhead_still_matches_reference():
    problem = SearchProblem(
        variables=("a", "b", "c"),
        clauses=(
            (("a", False), ("b", False)),
            (("b", True), ("c", True)),
            (("a", False), ("c", False)),
        ),
    )
    result = run_search(problem, seed=3)
    assert result.model == reference_solution(problem)


def test_recovery_determinism_across_seeds_with_crashes():
    """Crash schedules are virtual-time events, so different seeds with a
    constant-latency network produce the same committed ledger."""
    config = RecoveryConfig(items=tuple(range(8)), log_write_latency=7.0)
    ledgers = []
    for seed in (0, 1, 2):
        system = _recovery_system(config, seed)
        system.sim.schedule_at(6.0, system.crash_process, "sender")
        system.sim.schedule_at(9.0, system.restart_process, "sender")
        system.run(max_events=5_000_000)
        ledgers.append(system.committed_outputs("disk"))
    assert ledgers[0] == ledgers[1] == ledgers[2] == reference_ledger(config)


def test_machine_invariants_hold_after_every_app():
    """Belt and braces: the machine algebra must be intact at quiescence
    of each application run."""
    config = RecoveryConfig(items=tuple(range(6)))
    system = _recovery_system(config)
    system.run(max_events=5_000_000)
    system.machine.check_invariants()

    workload = ReplicationWorkload(n_clients=2, ops_per_client=3, keys=("k",))
    system2 = HopeSystem(latency=ConstantLatency(4.0))
    system2.spawn("primary", primary)
    for c in range(workload.n_clients):
        system2.spawn(f"client-{c}", optimistic_client, workload, c)
    system2.run(max_events=5_000_000)
    system2.machine.check_invariants()
