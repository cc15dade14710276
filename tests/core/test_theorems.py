"""The paper's §5–6 lemmas and theorems, one named test each.

These are the executable counterparts of the proofs: each test builds
the smallest machine state the statement quantifies over and checks the
claimed behaviour.  Broader random coverage lives in test_properties.py
and repro.verify.
"""

import pytest

from repro.core import (
    AidStatus,
    IntervalState,
    Machine,
)


@pytest.fixture
def machine():
    m = Machine()
    for name in ("p", "q", "r", "judge"):
        m.create_process(name)
    return m


# ---------------------------------------------------------------------------
# Lemma 5.1: X ∈ A.IDO  ⟺  A ∈ X.DOM
# ---------------------------------------------------------------------------
def test_lemma_5_1_symmetry_through_all_operations(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("p", y)
    machine.guess_many("q", [x])
    machine.guess("r", y)

    def assert_symmetric():
        for aid in (x, y):
            for record in machine.processes.values():
                for interval in record.speculative:
                    assert (aid in interval.ido) == (interval in aid.dom)

    assert_symmetric()
    machine.affirm("r", x)           # speculative affirm re-points DOM/IDO
    assert_symmetric()
    machine.deny("judge", y)         # definite deny clears both sides
    assert_symmetric()
    machine.check_invariants()


# ---------------------------------------------------------------------------
# Theorem 5.1: rollback of A rolls back every interval after A
# ---------------------------------------------------------------------------
def test_theorem_5_1_rollback_truncates_everything_after(machine):
    x = machine.aid_init("x")
    aids = [machine.aid_init(f"a{i}") for i in range(4)]
    machine.guess("p", x)
    target = machine.process("p").current
    later = []
    for aid in aids:
        machine.guess("p", aid)
        later.append(machine.process("p").current)
    # the IDO-subset chain the proof is built on
    chain = [target] + later
    for earlier, after in zip(chain, chain[1:]):
        assert earlier.ido <= after.ido
    machine.deny("judge", x)
    assert target.state is IntervalState.ROLLED_BACK
    for interval in later:
        assert interval.state is IntervalState.ROLLED_BACK
    # Del(H, A): the surviving history predates A's guess point
    for entry in machine.process("p").history:
        assert entry.index <= target.start_index


def test_theorem_5_1_earlier_intervals_survive(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    outer = machine.process("p").current
    machine.guess("p", y)
    machine.deny("judge", y)
    assert outer.state is IntervalState.SPECULATIVE


# ---------------------------------------------------------------------------
# Theorem 5.2: once A.IDO = ∅ (definite), A is never rolled back
# ---------------------------------------------------------------------------
def test_theorem_5_2_definite_interval_immune_to_all_later_denies(machine):
    x = machine.aid_init("x")
    machine.guess("p", x)
    survivor = machine.process("p").current
    machine.affirm("judge", x)
    assert survivor.state is IntervalState.DEFINITE
    # pile on more speculation and kill all of it
    for i in range(3):
        z = machine.aid_init(f"z{i}")
        machine.guess("p", z)
        machine.deny("judge", z)
    assert survivor.state is IntervalState.DEFINITE
    assert machine.process("p").rollback_count == 3


# ---------------------------------------------------------------------------
# Lemma 6.1: speculative affirm + affirmer made definite ≡ definite affirm
# ---------------------------------------------------------------------------
def test_lemma_6_1_affirm_transitivity(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)            # B: depends on x
    dependent = machine.process("p").current
    machine.guess("q", y)            # A: depends on y
    machine.affirm("q", x)           # speculative affirm of x by A
    assert x.status is AidStatus.PENDING
    assert dependent.ido == {y}      # x replaced by A's dependencies
    machine.affirm("judge", y)       # A becomes definite
    # same end state as a definite affirm(x): B definite, x affirmed
    assert dependent.state is IntervalState.DEFINITE
    assert x.status is AidStatus.AFFIRMED


# ---------------------------------------------------------------------------
# Lemma 6.2 / Theorem 6.1: definite affirms on all of B.IDO finalize B
# ---------------------------------------------------------------------------
def test_lemma_6_2_all_definite_affirms_finalize(machine):
    aids = [machine.aid_init(f"a{i}") for i in range(3)]
    for aid in aids:
        machine.guess("p", aid)
    newest = machine.process("p").current
    assert newest.ido == set(aids)
    for aid in aids:
        machine.affirm("judge", aid)
    assert newest.state is IntervalState.DEFINITE
    assert machine.process("p").is_definite


def test_theorem_6_1_mixed_definite_and_speculative_affirms(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("p", y)
    victim = machine.process("p").current
    z = machine.aid_init("z")
    machine.guess("q", z)
    machine.affirm("q", x)           # speculative (q depends on z)
    machine.affirm("judge", y)       # definite
    assert victim.state is IntervalState.SPECULATIVE   # still rides on z
    machine.affirm("judge", z)       # q definite ⇒ its affirm(x) definite
    assert victim.state is IntervalState.DEFINITE


# ---------------------------------------------------------------------------
# Theorem 6.2: finalize(B) occurs IFF affirm applied to all of B.IDO
# ---------------------------------------------------------------------------
def test_theorem_6_2_no_finalize_while_any_dependency_unresolved(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("p", y)
    interval = machine.process("p").current
    machine.affirm("judge", x)
    assert interval.state is IntervalState.SPECULATIVE  # y still pending
    assert interval.ido == {y}
    machine.affirm("judge", y)
    assert interval.state is IntervalState.DEFINITE


# ---------------------------------------------------------------------------
# Lemma 6.3: a speculative affirm's AID is definite only if the affirmer's
# dependencies are
# ---------------------------------------------------------------------------
def test_lemma_6_3_affirmed_only_with_upstream(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("q", y)
    machine.affirm("q", x)           # x now "depends on" y
    assert x.status is AidStatus.PENDING
    machine.deny("judge", y)         # upstream fails
    assert x.status is AidStatus.PENDING      # x never became affirmed
    assert x.speculative_affirmer is None     # released for re-resolution
    assert machine.process("p").rollback_count == 1


# ---------------------------------------------------------------------------
# Corollary 6.1: AID depends-on is transitive
# ---------------------------------------------------------------------------
def test_corollary_6_1_dependence_chain(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    z = machine.aid_init("z")
    machine.guess("p", x)            # someone depends on x
    machine.guess("q", y)
    machine.affirm("q", x)           # x depends on y
    machine.guess("r", z)
    machine.affirm("r", y)           # y depends on z
    assert x.status is AidStatus.PENDING
    assert y.status is AidStatus.PENDING
    machine.affirm("judge", z)       # resolving z resolves the whole chain
    assert y.status is AidStatus.AFFIRMED
    assert x.status is AidStatus.AFFIRMED
    assert machine.process("p").is_definite


def test_corollary_6_1_denial_propagates_down_the_chain(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    z = machine.aid_init("z")
    machine.guess("p", x)
    machine.guess("q", y)
    machine.affirm("q", x)
    machine.guess("r", z)
    machine.affirm("r", y)
    machine.deny("judge", z)
    # every interval in the chain rolled back; nothing got affirmed
    for name in ("p", "q", "r"):
        assert machine.process(name).rollback_count == 1
    assert x.status is AidStatus.PENDING
    assert y.status is AidStatus.PENDING


# ---------------------------------------------------------------------------
# Theorem 6.3: free_of(X) ⇒ never dependent on X, or rolled back
# ---------------------------------------------------------------------------
def test_theorem_6_3_violation_rolls_back(machine):
    x = machine.aid_init("x")
    machine.guess_many("p", [x])     # p received a tagged message
    machine.free_of("p", x)
    assert x.status is AidStatus.DENIED
    assert machine.process("p").rollback_count == 1


def test_theorem_6_3_stale_tags_cannot_reintroduce_dependence(machine):
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("q", x)            # someone else depends on x
    machine.guess("p", y)
    machine.free_of("p", x)          # speculative affirm path
    # a stale message tagged {x} arrives at p afterwards
    live, deps = machine.resolve_tags([x])
    assert live and x not in deps    # x resolves through p's own deps
    machine.guess_many("p", deps)
    assert x not in machine.process("p").current.ido
    machine.check_invariants()
