"""IDO sets (Eq 3, 8 and 12): every ``Interval.ido`` is an immutable
``frozenset`` that the machine rebinds, never mutates.

A tagged receive folds its fresh AIDs into one interval; the Lemma 5.1 /
Theorem 5.2 properties under randomized guess/affirm/deny/receive
schedules; and a guess chain whose machine work grows linearly in its
depth.
"""

from hypothesis import given, settings, strategies as st

from repro.core import IntervalState, Machine, ResolutionConflictError

from ..costs import layer_calls


def _machine(procs=("p0", "p1", "p2")):
    machine = Machine()
    for name in procs:
        machine.create_process(name)
    return machine


def test_one_tagged_receive_folds_its_fresh_aids_into_one_interval():
    """Eq 3 on a receive tagged {x, y, z} by a process already holding x;
    then Eq 8 (a definite affirm) and Eq 12 (a speculative affirm) rewrite
    that interval's IDO, and Eq 9 / 13 finalize it once it empties."""
    machine = _machine()
    x, y, z, w = (machine.aid_init(name) for name in "xyzw")
    machine.guess("p0", x)
    outer = machine.process("p0").current
    received = machine.guess_many("p0", [z, x, y])
    assert machine.process("p0").intervals == [outer, received]
    assert received.ido == {x, y, z}                     # Eq 3: inherited ∪ fresh
    assert machine.stats["implicit_guesses"] == 2
    assert machine.guess_many("p0", [y, x]) is None      # nothing fresh: no interval

    before = received.ido
    machine.affirm("p1", y)                              # Eq 8: definite
    assert received.ido == {x, z} and outer.ido == {x}
    assert before == {x, y, z}                           # rebound, not mutated

    machine.guess("p2", w)
    machine.affirm("p2", z)                              # Eq 12: speculative
    assert received.ido == {x, w}
    assert received in w.dom and received not in z.dom   # Lemma 5.1 kept

    machine.affirm("p1", x)                              # Eq 9: outer finalizes
    assert outer.definite and received.ido == {w}
    machine.affirm("p1", w)                              # Eq 8 empties it: Eq 9
    assert received.definite and not received.ido
    machine.check_invariants()


def _chain(depth: int) -> None:
    """One process guesses ``depth`` AIDs, nesting an interval per guess;
    a definite deny of the first rolls the whole chain back."""
    machine = _machine()
    aids = [machine.aid_init(f"c{i}") for i in range(depth)]
    for aid in aids:
        machine.guess("p0", aid)
    assert len(machine.process("p0").current.ido) == depth
    machine.deny("p1", aids[0])
    assert machine.process("p0").current is None


def test_guess_chain_machine_calls_grow_linearly_in_depth():
    """Inheriting a parent's IDO (Eq 3) and dropping it at rollback are
    set operations in C: the machine makes no Python call per member, so
    a chain four times deeper costs at most 4.1 times the calls."""
    n = 50
    short, _ = layer_calls(lambda: _chain(n))
    deep, _ = layer_calls(lambda: _chain(4 * n))
    assert deep["core.machine"] <= 4.1 * short["core.machine"]


# ----------------------------------------------------------------------
# property tests under random schedules (Lemma 5.1 / Theorem 5.2)
# ----------------------------------------------------------------------
PROCS = ["p0", "p1", "p2"]

ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["guess", "affirm", "deny", "recv", "rollback_via_deny"]),
        st.integers(min_value=0, max_value=len(PROCS) - 1),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=50,
)


def _apply(machine, op, pid, aid):
    try:
        if op == "guess":
            machine.guess(pid, aid)
        elif op == "affirm":
            machine.affirm(pid, aid)
        elif op in ("deny", "rollback_via_deny"):
            # deny IS the rollback trigger: every process whose current
            # speculation depends on the aid rolls back (Eq 13).
            machine.deny(pid, aid)
        elif op == "recv":
            live, deps = machine.resolve_tags([aid])
            if live:
                machine.guess_many(pid, deps)
    except ResolutionConflictError:
        pass


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_lemma_5_1_symmetry_of_ido_and_dom(actions):
    """X in A.IDO  <=>  A in X.DOM, for every live interval, at every step."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            for interval in record.intervals:
                if interval.state is not IntervalState.SPECULATIVE:
                    continue
                for aid in interval.ido:
                    assert interval in aid.dom, (
                        f"{interval} depends on {aid} but is not in its DOM"
                    )
        for aid in aids:
            for interval in aid.dom:
                assert aid in interval.ido, (
                    f"{interval} is in DOM({aid}) without depending on it"
                )


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_theorem_5_2_empty_ido_never_rolls_back(actions):
    """An interval observed with empty IDO can never roll back later."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    immune = set()
    for op, pidx, aidx in actions:
        _apply(machine, op, PROCS[pidx], aids[aidx])
        machine.check_invariants()
        for record in machine.processes.values():
            for interval in record.intervals:
                if not interval.rolled_back and not interval.ido:
                    immune.add(interval)
    for interval in immune:
        assert interval.state is not IntervalState.ROLLED_BACK


@settings(max_examples=150, deadline=None)
@given(ACTIONS)
def test_every_ido_is_a_snapshot_no_rewrite_mutates(actions):
    """Every IDO is a frozenset, and every one observed keeps the members
    it had: Eq 8 and 12 rebind an interval's IDO, so a held one (the
    speculative affirm's loop snapshot, a send's tag set) never changes."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    seen = []
    for op, pidx, aidx in actions:
        _apply(machine, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            for interval in record.intervals:
                assert type(interval.ido) is frozenset
                seen.append((interval.ido, set(interval.ido)))
        for ido, members in seen:
            assert ido == members
