"""Optimistic atomic commitment: two-phase commit without the wait.

A canonical distributed-systems pattern the paper's model captures
directly.  Classic 2PC serializes: prepare → collect votes → commit →
apply.  The client blocks for two round trips before it can build on the
transaction's result.

The optimistic coordinator assumes unanimity: it answers the client
immediately (AID ``txn-commits``), lets the client build on the result
speculatively, and collects votes in the background.  A NO vote denies
the AID — the client and everything built on the transaction roll back,
and the coordinator aborts; unanimous YES affirms it.

This composes transactions too: a client may start transaction B using
values from still-speculative transaction A; B's messages carry A's AID
in their tags, so an abort of A transparently unwinds B — the cross-
transaction cascade that makes hand-rolled optimistic 2PC notoriously
hard is exactly what HOPE automates.

Run:  python examples/two_phase_commit.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, LatencyModel, Tracer


@dataclass(frozen=True)
class CommitWorkload:
    """A sequence of transactions; each lists per-participant vote plans.

    ``transactions[i]`` maps participant index -> will-vote-yes.  A
    transaction commits iff every participant votes yes.
    """

    transactions: tuple
    n_participants: int = 3
    vote_delay: float = 4.0          # participant think time before voting
    client_compute: float = 2.0      # work the client builds on each txn

    def expected_outcomes(self) -> list:
        return [all(votes.values()) for votes in self.transactions]


def coordinator(p, n_participants: int, n_transactions: int):
    """Answer optimistically; gather votes in the background."""
    outcomes = []
    for txn in range(n_transactions):
        msg = yield p.recv(predicate=lambda m: m.payload[0] == "begin")
        _tag, txn_id, aid = msg.payload
        for index in range(n_participants):
            yield p.send(f"participant-{index}", ("prepare", txn_id, txn))
        committed = None
        for _ in range(n_participants):   # consume exactly every vote
            vote = yield p.recv(
                predicate=lambda m, t=txn_id: (
                    m.payload[0] == "vote" and m.payload[1] == t
                )
            )
            _vtag, _v_txn, voted_yes = vote.payload
            if not voted_yes and committed is None:
                committed = False
                yield p.deny(aid)         # one NO aborts: unwind everything
                yield p.emit(("abort", txn_id))
        if committed is None:
            committed = True
            yield p.affirm(aid)
            yield p.emit(("commit", txn_id))
        outcomes.append(committed)
    return outcomes


def participant(p, index: int, workload: CommitWorkload):
    """Vote according to the plan, after deliberating."""
    for _ in range(len(workload.transactions)):
        msg = yield p.recv()
        _tag, txn_id, txn_index = msg.payload
        yield p.compute(workload.vote_delay)
        vote = workload.transactions[txn_index].get(index, True)
        yield p.send("coordinator", ("vote", txn_id, vote))


def client(p, workload: CommitWorkload):
    """Submit transactions back-to-back, building on speculative results."""
    balance = 0
    for txn_index in range(len(workload.transactions)):
        txn_id = f"txn-{txn_index}"
        commits = yield p.aid_init(f"{txn_id}-commits")
        yield p.send("coordinator", ("begin", txn_id, commits))
        if (yield p.guess(commits)):
            balance += 100                    # the transaction's effect
        # build on the (possibly speculative) balance immediately
        yield p.compute(workload.client_compute)
        yield p.emit(("balance-after", txn_index, balance))
    return balance


@dataclass
class CommitResult:
    makespan: float
    balance: int = 0
    ledger: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    rollbacks: int = 0
    stats: dict = field(default_factory=dict)


def run_optimistic_commit(
    workload: CommitWorkload,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    trace: Optional[Tracer] = None,
) -> CommitResult:
    system = HopeSystem(
        seed=seed,
        latency=latency if latency is not None else ConstantLatency(5.0),
        trace=trace,
    )
    system.spawn(
        "coordinator", coordinator, workload.n_participants, len(workload.transactions)
    )
    for index in range(workload.n_participants):
        system.spawn(f"participant-{index}", participant, index, workload)
    system.spawn("client", client, workload)
    makespan = system.run(max_events=5_000_000)
    stats = system.stats()
    decisions = [
        entry[0] == "commit" for entry in system.committed_outputs("coordinator")
    ]
    return CommitResult(
        makespan=makespan,
        balance=system.result_of("client"),
        ledger=system.committed_outputs("client"),
        decisions=decisions,
        rollbacks=stats["rollbacks"],
        stats=stats,
    )


def reference_balances(workload: CommitWorkload) -> list:
    """The client's committed balance trajectory, computed serially."""
    balance = 0
    out = []
    for index, committed in enumerate(workload.expected_outcomes()):
        if committed:
            balance += 100
        out.append(("balance-after", index, balance))
    return out


def show(title, plans):
    workload = CommitWorkload(transactions=tuple(plans))
    result = run_optimistic_commit(workload, latency=ConstantLatency(8.0))
    print(f"\n=== {title} ===")
    print(f"  decisions : {['commit' if d else 'ABORT' for d in result.decisions]}")
    print(f"  final balance (100 per commit): {result.balance}")
    print(f"  rollbacks : {result.rollbacks}")
    for entry in result.ledger:
        print(f"  committed : {entry}")


def main() -> None:
    yes = {0: True, 1: True, 2: True}
    show("all transactions commit", [yes, yes, yes])
    show(
        "participant 1 vetoes the middle transaction",
        [yes, {1: False}, yes],
    )
    show(
        "cascading speculation: an early abort rewinds everything built on it",
        [{0: False}, yes, yes],
    )


if __name__ == "__main__":
    main()
