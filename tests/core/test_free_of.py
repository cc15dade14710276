"""Tests for free_of (Eq 17-19) and Theorem 6.3."""

import pytest

from repro.core import AidStatus, Machine


@pytest.fixture
def machine():
    return Machine()


def test_free_of_in_definite_state_is_definite_affirm(machine):
    """Eq 17."""
    machine.create_process("p")
    machine.create_process("dependent")
    x = machine.aid_init("x")
    machine.guess("dependent", x)
    machine.free_of("p", x)
    assert x.status is AidStatus.AFFIRMED
    assert machine.process("dependent").current is None


def test_free_of_not_dependent_is_speculative_affirm(machine):
    """Eq 18."""
    machine.create_process("p")
    machine.create_process("dependent")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("dependent", x)
    dep_iv = machine.process("dependent").current
    machine.guess("p", y)                       # p speculative, not on x
    machine.free_of("p", x)
    assert x.status is AidStatus.PENDING        # speculative affirm
    assert dep_iv.ido == {y}                    # re-pointed at p's deps
    machine.check_invariants()


def test_free_of_when_dependent_denies_and_rolls_back(machine):
    """Eq 19 + Theorem 6.3: violation ⇒ deny(X) ⇒ self-rollback."""
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess_many("p", [x])                # p got a tagged message
    machine.free_of("p", x)                     # ordering constraint violated
    assert x.status is AidStatus.DENIED
    record = machine.process("p")
    assert record.rollback_count == 1
    assert record.current is None
    machine.check_invariants()


def test_free_of_violation_rolls_back_all_dependents(machine):
    machine.create_process("p")
    machine.create_process("other")
    x = machine.aid_init("x")
    machine.guess("other", x)
    machine.guess_many("p", [x])
    machine.free_of("p", x)
    assert machine.process("other").rollback_count == 1
    machine.check_invariants()


def test_theorem_6_3_never_becomes_dependent_after_free_of(machine):
    """Theorem 6.3: after a successful free_of(X), the asserting interval
    never becomes dependent on X — even via a stale in-flight message tag.

    A message tagged {x} delivered after p's free_of(x) (a speculative
    affirm) resolves through ``resolve_tags`` to the affirmer's own
    dependencies, so x itself never re-enters p's IDO.
    """
    machine.create_process("p")
    machine.create_process("dependent")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("dependent", x)
    machine.guess("p", y)
    machine.free_of("p", x)                     # speculative affirm path
    # a stale tagged message arrives carrying x
    live, deps = machine.resolve_tags([x])
    assert live
    assert deps == {y}                          # x replaced by p's deps
    machine.guess_many("p", deps)
    assert x not in machine.process("p").current.ido
    machine.check_invariants()


def test_resolve_tags_affirmed_and_denied(machine):
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.affirm("q", x)
    live, deps = machine.resolve_tags([x, y])
    assert live and deps == {y}
    machine.deny("q", y)
    live, deps = machine.resolve_tags([x, y])
    assert not live


def test_free_of_on_denied_aid_lenient_noop():
    machine = Machine()
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.deny("q", x)
    machine.free_of("p", x)                     # re-execution path: no-op
    assert x.status is AidStatus.DENIED


def test_free_of_on_affirmed_aid_lenient_noop():
    machine = Machine()
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.affirm("q", x)
    machine.free_of("p", x)
    assert x.status is AidStatus.AFFIRMED
