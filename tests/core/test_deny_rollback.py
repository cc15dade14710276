"""Tests for deny (Eq 15-16) and rollback (Eq 24)."""

import pytest

from repro.core import (
    AidStatus,
    IntervalState,
    Machine,
    RollbackEvent,
)
from repro.core.interval import NO_DENIES


@pytest.fixture
def machine():
    return Machine()


def test_definite_deny_rolls_back_sole_dependent(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.guess("p", x)
    interval = machine.process("p").current
    machine.deny("q", x)
    assert x.status is AidStatus.DENIED
    assert interval.state is IntervalState.ROLLED_BACK
    record = machine.process("p")
    assert record.current is None
    assert record.g is False                    # Eq 24: resumes with False
    assert record.rollback_count == 1
    machine.check_invariants()


def test_rollback_truncates_history_to_guess_point(machine):
    """Theorem 5.1: deletion is a suffix starting at the interval head."""
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.step("p", "before")
    machine.guess("p", x)
    machine.step("p", "spec-work-1")
    machine.step("p", "spec-work-2")
    machine.deny("q", x)
    kinds = [e.kind for e in machine.process("p").history]
    assert kinds == ["init", "event", "resume"]
    labels = [e.detail.get("label") for e in machine.process("p").history]
    assert "spec-work-1" not in labels


def test_rollback_discards_all_later_intervals(machine):
    """Theorem 5.1: every interval after A rolls back with A."""
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    z = machine.aid_init("z")
    machine.guess("p", x)
    first = machine.process("p").current
    machine.guess("p", y)
    second = machine.process("p").current
    machine.guess("p", z)
    third = machine.process("p").current
    machine.deny("q", x)
    assert first.state is IntervalState.ROLLED_BACK
    assert second.state is IntervalState.ROLLED_BACK
    assert third.state is IntervalState.ROLLED_BACK
    assert machine.process("p").current is None
    # y and z must not retain dead intervals in their DOM
    assert y.dom == set() and z.dom == set()
    machine.check_invariants()


def test_rollback_of_inner_interval_keeps_outer(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    outer = machine.process("p").current
    machine.guess("p", y)
    machine.deny("q", y)
    record = machine.process("p")
    assert record.current is outer
    assert outer.state is IntervalState.SPECULATIVE
    assert record.g is False
    machine.check_invariants()


def test_deny_cascades_across_processes(machine):
    """§1: if pi rolls back, its message receivers pj roll back too."""
    machine.create_process("sender")
    machine.create_process("receiver")
    machine.create_process("judge")
    x = machine.aid_init("x")
    machine.guess("sender", x)
    # receiver got a message tagged {x}: implicit guess
    machine.guess_many("receiver", [x])
    machine.deny("judge", x)
    assert machine.process("sender").rollback_count == 1
    assert machine.process("receiver").rollback_count == 1
    machine.check_invariants()


def test_deny_of_own_dependency_is_definite_and_self_rolls_back(machine):
    """Eq 15 guard: X ∈ A.IDO makes the deny definite."""
    machine.create_process("p")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", y)
    machine.guess("p", x)
    machine.deny("p", x)                        # p depends on x ⇒ definite
    assert x.status is AidStatus.DENIED
    record = machine.process("p")
    assert record.rollback_count == 1
    assert record.current is not None           # back to the y interval
    assert record.current.ido == {y}
    machine.check_invariants()


def test_speculative_deny_parks_in_ihd(machine):
    machine.create_process("p")
    machine.create_process("victim")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("victim", x)
    machine.guess("p", y)                       # p speculative on y only
    machine.deny("p", x)                        # speculative deny (Eq 16)
    assert x.status is AidStatus.PENDING
    assert x in machine.process("p").current.ihd
    assert machine.process("victim").rollback_count == 0
    machine.check_invariants()


def test_an_interval_owns_its_containers_only_while_it_uses_them(machine):
    """IHD is the shared empty frozenset until a deny parks, and
    ``spec_affirms`` the shared ``()`` until a speculative affirm and again
    once a rollback has released what it affirmed."""
    for name in ("p", "q", "victim"):
        machine.create_process(name)
    x, y, z, w = (machine.aid_init(key) for key in "xyzw")
    machine.guess("victim", x)
    machine.guess("p", y)
    interval = machine.process("p").current
    assert interval.ihd is NO_DENIES and interval.spec_affirms == ()
    machine.deny("p", x)                        # parks (Eq 16)
    machine.deny("p", w)
    assert interval.ihd == {x, w} and NO_DENIES == frozenset()
    machine.affirm("p", z)                      # speculative (Eq 10-14)
    assert interval.spec_affirms == [z]
    machine.deny("q", y)                        # rolls p's interval back
    assert interval.rolled_back and interval.spec_affirms == ()
    assert z.status is AidStatus.PENDING and x.parked_denies == 0
    machine.check_invariants()


def test_speculative_deny_applies_at_finalize(machine):
    """Eq 22: finalize turns parked denies into definite denies."""
    machine.create_process("p")
    machine.create_process("victim")
    machine.create_process("judge")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("victim", x)
    machine.guess("p", y)
    machine.deny("p", x)                        # parked
    machine.affirm("judge", y)                  # p finalizes ⇒ deny(x) fires
    assert x.status is AidStatus.DENIED
    assert machine.process("victim").rollback_count == 1
    machine.check_invariants()


def test_parked_deny_dies_when_the_aid_was_affirmed_meanwhile(machine):
    """Eq 22 meets a definite affirm that landed while the deny was parked:
    the earlier affirm wins and the parked deny dies (SEMANTICS.md §2)."""
    for pid in ("p", "q", "judge"):
        machine.create_process(pid)
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", y)
    interval = machine.process("p").current
    machine.deny("p", x)                        # parked in p's interval
    machine.affirm("q", x)                      # definite, x still PENDING
    machine.affirm("judge", y)                  # p finalizes: the deny dies
    assert interval.definite and x.parked_denies == 0
    assert x.status is AidStatus.AFFIRMED and x.resolved_by == "q"
    machine.check_invariants()


def test_speculative_deny_dies_with_rolled_back_interval(machine):
    """§5.6: speculative denies 'die with the interval inside the IHD set'."""
    machine.create_process("p")
    machine.create_process("victim")
    machine.create_process("judge")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("victim", x)
    machine.guess("p", y)
    machine.deny("p", x)                        # parked in p's interval
    machine.deny("judge", y)                    # p rolls back
    assert x.status is AidStatus.PENDING        # the deny never fired
    assert machine.process("victim").rollback_count == 0
    machine.check_invariants()


def test_rollback_of_speculative_affirm_releases_aid(machine):
    """Footnote 2: rollback of a speculative affirm ≡ deny for dependents,
    and the AID returns to PENDING for the re-execution to resolve."""
    machine.create_process("worker")
    machine.create_process("wart")
    machine.create_process("judge")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("worker", x)
    machine.guess("wart", y)
    machine.affirm("wart", x)                   # speculative affirm
    machine.deny("judge", y)                    # wart rolls back
    # worker inherited dependence on y (Eq 12) so it rolls back too
    assert machine.process("worker").rollback_count == 1
    assert machine.process("wart").rollback_count == 1
    assert x.status is AidStatus.PENDING
    assert x.speculative_affirmer is None
    machine.check_invariants()


def test_released_aid_can_be_resolved_again(machine):
    machine.create_process("worker")
    machine.create_process("wart")
    machine.create_process("judge")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("worker", x)
    machine.guess("wart", y)
    machine.affirm("wart", x)
    machine.deny("judge", y)
    # Re-execution: wart (now definite) re-affirms x.
    machine.affirm("wart", x)
    assert x.status is AidStatus.AFFIRMED
    machine.check_invariants()


def test_second_deny_lenient_noop():
    machine = Machine()
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.deny("q", x)
    machine.deny("p", x)
    assert x.resolved_by == "q"


def test_rollback_event_reports_discarded_intervals(machine):
    seen = []
    machine.subscribe(lambda e: seen.append(e) if isinstance(e, RollbackEvent) else None)
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("p", y)
    machine.deny("q", x)
    assert len(seen) == 1
    event = seen[0]
    assert event.pid == "p"
    assert len(event.discarded) == 2
    assert event.cause is x


def test_theorem_5_2_definite_interval_never_rolls_back(machine):
    """Theorem 5.2: once IDO is empty the interval is safe forever."""
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    z = machine.aid_init("z")
    machine.guess("p", x)
    survivor = machine.process("p").current
    machine.affirm("q", x)                      # survivor finalized
    machine.guess("p", z)
    machine.deny("q", z)                        # rolls back only the z interval
    assert survivor.state is IntervalState.DEFINITE
    machine.check_invariants()
