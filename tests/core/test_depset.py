"""Interned dependency sets (:mod:`repro.core.depset`).

Unit tests for the hash-consing layer plus the machine-level properties
the interning must preserve: Lemma 5.1 symmetry and Theorem 5.2 under
randomized guess/affirm/deny/rollback schedules, with every IDO now an
interned immutable :class:`DepSet`.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    AidStatus,
    DepSet,
    DepSetInterner,
    IntervalState,
    Machine,
    ResolutionConflictError,
)
from repro.core.aid import AssumptionId


def _aids(n):
    return [AssumptionId(f"a{i}") for i in range(n)]


def _machine(procs=("p0", "p1", "p2")):
    machine = Machine()
    for name in procs:
        machine.create_process(name)
    return machine


# ----------------------------------------------------------------------
# interner unit tests
# ----------------------------------------------------------------------
class TestInterning:
    def test_same_members_same_object(self):
        interner = DepSetInterner()
        a, b, c = _aids(3)
        s1 = interner.intern({a, b, c})
        s2 = interner.intern([c, b, a])
        assert s1 is s2

    def test_empty_is_singleton(self):
        interner = DepSetInterner()
        assert interner.intern(()) is interner.empty
        assert not interner.empty
        assert len(interner.empty) == 0

    def test_add_and_discard_round_trip(self):
        interner = DepSetInterner()
        a, b = _aids(2)
        s = interner.add(interner.empty, a)
        s = interner.add(s, b)
        assert set(s) == {a, b}
        back = interner.discard(interner.discard(s, b), a)
        assert back is interner.empty

    def test_add_existing_member_returns_same_set(self):
        interner = DepSetInterner()
        a, b = _aids(2)
        s = interner.intern({a, b})
        assert interner.add(s, a) is s

    def test_discard_absent_member_returns_same_set(self):
        interner = DepSetInterner()
        a, b = _aids(2)
        s = interner.intern({a})
        assert interner.discard(s, b) is s

    def test_union_interned(self):
        interner = DepSetInterner()
        a, b, c = _aids(3)
        left = interner.intern({a, b})
        right = interner.intern({b, c})
        u = interner.union(left, right)
        assert u is interner.intern({a, b, c})
        # memoized: same inputs give the same object without a rebuild
        assert interner.union(left, right) is u

    def test_extend_folds_adds(self):
        interner = DepSetInterner()
        a, b, c = _aids(3)
        s = interner.extend(interner.empty, [a, b, c])
        assert s is interner.intern({a, b, c})
        assert interner.extend(s, []) is s

    def test_operation_memo_hits_counted(self):
        stats = {"depset_hits": 0, "depset_misses": 0}
        interner = DepSetInterner(stats=stats)
        a, b = _aids(2)
        s = interner.intern({a})
        interner.add(s, b)
        before = stats["depset_hits"]
        interner.add(s, b)  # memoized op: no second construction
        assert stats["depset_hits"] > before


class TestDepSetSemantics:
    def test_set_protocol(self):
        interner = DepSetInterner()
        a, b = _aids(2)
        s = interner.intern({a, b})
        assert a in s and b in s
        assert len(s) == 2
        assert bool(s)
        assert set(iter(s)) == {a, b}

    def test_equality_with_plain_sets(self):
        interner = DepSetInterner()
        a, b = _aids(2)
        s = interner.intern({a, b})
        assert s == {a, b}
        assert s == frozenset({a, b})
        assert s != {a}

    def test_subset_operators(self):
        interner = DepSetInterner()
        a, b, c = _aids(3)
        small = interner.intern({a})
        big = interner.intern({a, b, c})
        assert small <= big and not big <= small

    def test_tag_keys_cached(self):
        interner = DepSetInterner()
        a, b = _aids(2)
        s = interner.intern({a, b})
        keys = s.tag_keys
        assert keys == frozenset({a.key, b.key})
        assert s.tag_keys is keys  # same frozenset object: computed once


# ----------------------------------------------------------------------
# machine integration
# ----------------------------------------------------------------------
class TestMachineUsesInternedSets:
    def test_interval_ido_is_interned(self):
        machine = _machine()
        x = machine.aid_init("x")
        machine.guess("p0", x)
        interval = machine.process("p0").current
        assert isinstance(interval.ido, DepSet)
        assert interval.ido is machine.depsets.intern({x})

    def test_nested_guesses_share_suffix_structure(self):
        machine = _machine()
        x, y = machine.aid_init("x"), machine.aid_init("y")
        machine.guess("p0", x)
        outer_ido = machine.process("p0").current.ido
        machine.guess("p0", y)
        inner_ido = machine.process("p0").current.ido
        # Theorem 5.1 chain, now at interned-object level:
        assert outer_ido <= inner_ido and outer_ido is not inner_ido
        assert machine.depsets.add(outer_ido, y) is inner_ido

    def test_implicit_guesses_fold_a_tag_set_in_serial_order(self):
        """A tag set iterates in address order; the fold does not, so the
        intermediate sets interned (what a fossil pass later counts as
        dropped) are the same for every order the tags arrive in."""
        for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            machine = _machine()
            aids = [machine.aid_init(f"t{i}") for i in range(3)]
            machine.guess_many("p0", [aids[i] for i in order])
            table = {frozenset(a.key for a in members) for members in machine.depsets._table}
            assert table == {frozenset(), frozenset({"t0#1"}),
                             frozenset({"t0#1", "t1#2"}), frozenset({"t0#1", "t1#2", "t2#3"})}

    def test_stats_expose_interner_counters(self):
        machine = _machine()
        x = machine.aid_init("x")
        machine.guess("p0", x)
        machine.guess("p1", x)   # same {x} IDO: an interner hit
        assert machine.stats["depset_hits"] >= 1
        assert machine.stats["depset_misses"] >= 1


# ----------------------------------------------------------------------
# property tests under random schedules (ISSUE: Lemma 5.1 / Theorem 5.2)
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
def test_lemma_5_1_symmetry_with_interned_sets(actions):
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
def test_interning_matches_plain_set_model(actions):
    """The interned IDO always equals the set a naive model would hold."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            for interval in record.intervals:
                if interval.state is IntervalState.SPECULATIVE:
                    # identity-level: re-interning the members is a no-op
                    assert machine.depsets.intern(set(interval.ido)) is interval.ido
