"""Property-based tests: machine invariants under random primitive sequences.

A hypothesis-driven interpreter issues random but *well-formed* HOPE
primitive sequences (each AID resolved at most once by a live path) and
checks after every step that the machine's invariants — Lemma 5.1
symmetry, the Theorem 5.1 subset chain, IS/I consistency — hold, and that
the headline theorems are respected at quiescence.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import (
    AidStatus,
    IntervalState,
    Machine,
    MachineInvariantError,
    ProcessRecord,
    ResolutionConflictError,
)

PROCS = ["p0", "p1", "p2"]


def _machine():
    machine = Machine(strict=False)
    for name in PROCS:
        machine.create_process(name)
    return machine


# Each action is (opcode, process index, aid index) over a fixed pool.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["guess", "affirm", "deny", "free_of", "recv", "step"]),
        st.integers(min_value=0, max_value=len(PROCS) - 1),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=40,
)


def _apply(machine, aids, op, pid, aid):
    """Apply one random action; resolution conflicts are legal outcomes."""
    try:
        if op == "guess":
            machine.guess(pid, aid)
        elif op == "affirm":
            machine.affirm(pid, aid)
        elif op == "deny":
            machine.deny(pid, aid)
        elif op == "free_of":
            machine.free_of(pid, aid)
        elif op == "recv":
            live, deps = machine.resolve_tags([aid])
            if live:
                machine.guess_many(pid, deps)
        elif op == "step":
            machine.step(pid, "work")
    except ResolutionConflictError:
        pass


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_invariants_hold_under_random_schedules(actions):
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        machine.check_invariants()


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_definite_intervals_stay_definite(actions):
    """Theorem 5.2: once finalized, an interval is never rolled back."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    finalized = set()
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            for interval in record.intervals:
                if interval.state is IntervalState.DEFINITE:
                    finalized.add(interval)
    for interval in finalized:
        assert interval.state is IntervalState.DEFINITE


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_resolved_aids_have_empty_dom_and_stable_status(actions):
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    resolved: dict = {}
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        for aid in aids:
            if aid.status is not AidStatus.PENDING:
                assert not aid.dom
                if aid in resolved:
                    assert resolved[aid] == aid.status
                else:
                    resolved[aid] = aid.status


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_history_indices_monotone_per_process(actions):
    """Rollback truncation must keep histories strictly ordered."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            indices = [e.index for e in record.history]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)


@settings(max_examples=150, deadline=None)
@given(ACTIONS, st.integers(min_value=0, max_value=4))
def test_theorem_6_2_finalize_iff_all_affirmed(actions, target_idx):
    """Theorem 6.2 (forward direction, observable form): an interval that
    is definite at quiescence had every AID it ever depended on either
    affirmed or replaced by affirmed ones — no definite interval may
    coexist with a *denied* AID it transitively depended on at the end."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
    for record in machine.processes.values():
        for interval in record.intervals:
            if interval.state is IntervalState.DEFINITE:
                assert not interval.ido


# ----------------------------------------------------------------------
# truncate_from cuts the tail: same answer as the whole-history partition
# ----------------------------------------------------------------------
def _partition_truncate(record, start_index):
    """The pre-suffix-cut ``truncate_from``: validate strict order over
    the whole history, then partition it.  Returns ``(keep, drop)``."""
    indices = [entry.index for entry in record.history]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise MachineInvariantError("not strictly index-ordered")
    keep = [e for e in record.history if e.index < start_index]
    drop = [e for e in record.history if e.index >= start_index]
    return keep, drop


HISTORY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 6)),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
        st.tuples(st.just("fossilize"), st.floats(0, 1)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(HISTORY_OPS)
def test_truncate_from_matches_the_partition_reference(ops):
    record = ProcessRecord("p")
    for op, arg in ops:
        if op == "append":
            for _ in range(arg):
                record.append("event")
        elif op == "fossilize":
            record.fossilize_before(int(arg * record._next_index))
        else:
            start = int(arg * record._next_index)
            keep, drop = _partition_truncate(record, start)
            assert record.truncate_from(start) == drop
            assert record.history == keep
            assert record._next_index == start
    indices = [e.index for e in record.history]
    assert indices == list(range(record._next_index - len(indices), record._next_index))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.data())
def test_truncate_from_rejects_a_stranded_entry(n, data):
    """An entry at or after the cut sitting *before* an older one means the
    deletion is not a contiguous suffix — the tail cut must still see it."""
    record = ProcessRecord("p")
    for _ in range(n):
        record.append("event")
    high = data.draw(st.integers(1, n - 1))
    low = data.draw(st.integers(0, high - 1))
    history = record.history
    history.insert(low, history.pop(high))      # strand `high` before `low`
    start = data.draw(st.integers(low + 1, high))
    with pytest.raises(MachineInvariantError):
        _partition_truncate(record, start)
    with pytest.raises(MachineInvariantError):
        record.truncate_from(start)


def test_append_refuses_to_create_disorder():
    record = ProcessRecord("p")
    record.append("event")
    record.append("event")
    record._next_index = 1                      # a rewound clock, entries kept
    with pytest.raises(MachineInvariantError):
        record.append("event")
