"""Optimistic two-phase commit tests."""

import pytest

from repro.sim import ConstantLatency

from ..examples import load_example

commit = load_example("two_phase_commit")
CommitWorkload = commit.CommitWorkload
reference_balances = commit.reference_balances
run_optimistic_commit = commit.run_optimistic_commit


def workload(*vote_plans, **kwargs):
    return CommitWorkload(transactions=tuple(vote_plans), **kwargs)


def test_unanimous_yes_commits():
    result = run_optimistic_commit(workload({0: True, 1: True, 2: True}))
    assert result.decisions == [True]
    assert result.balance == 100
    assert result.ledger == [("balance-after", 0, 100)]
    assert result.rollbacks == 0


def test_single_no_aborts_and_unwinds_client():
    result = run_optimistic_commit(workload({0: True, 1: False, 2: True}))
    assert result.decisions == [False]
    assert result.balance == 0
    assert result.ledger == [("balance-after", 0, 0)]
    assert result.rollbacks >= 1


def test_transaction_sequence_mixed_outcomes():
    plans = (
        {0: True, 1: True, 2: True},
        {0: False},
        {0: True, 1: True, 2: True},
        {2: False},
        {0: True, 1: True, 2: True},
    )
    result = run_optimistic_commit(workload(*plans))
    assert result.decisions == [True, False, True, False, True]
    assert result.balance == 300
    assert result.ledger == reference_balances(workload(*plans))


def test_speculative_composition_across_transactions():
    """Txn 1 is built on txn 0's speculative result; aborting txn 0 must
    transparently rewind txn 1's world too, then both redo correctly."""
    plans = ({0: False}, {0: True, 1: True, 2: True})
    result = run_optimistic_commit(workload(*plans))
    assert result.decisions == [False, True]
    assert result.balance == 100
    assert result.ledger == reference_balances(workload(*plans))


def test_client_never_blocks_on_commit_latency():
    """The optimistic client's makespan is bounded by its own work plus
    the *last* transaction's confirmation, not two round trips per txn."""
    plans = tuple({0: True, 1: True, 2: True} for _ in range(6))
    w = workload(*plans, vote_delay=4.0, client_compute=1.0)
    result = run_optimistic_commit(w, latency=ConstantLatency(10.0))
    assert result.decisions == [True] * 6
    # Pessimistic 2PC: the client alone waits begin+decision (>= 34/txn,
    # >= 204 total) before building anything.  Optimistically the client's
    # six work units all overlap the vote pipeline; the makespan is the
    # coordinator's serial vote-collection (~24/txn), not the client.
    assert result.makespan < 170.0
    assert result.stats["wasted_time"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_vote_plans_match_reference(seed):
    import random

    rng = random.Random(seed)
    plans = tuple(
        {i: rng.random() < 0.7 for i in range(3)} for _ in range(5)
    )
    w = workload(*plans)
    result = run_optimistic_commit(w, seed=seed)
    assert result.decisions == w.expected_outcomes()
    assert result.ledger == reference_balances(w)
