"""Tests for affirm (Eq 7-14) and finalize (Eq 20-23)."""

import pytest

from repro.core import (
    AidStatus,
    FinalizeEvent,
    FinalizePreconditionError,
    IntervalState,
    Machine,
    ResolutionConflictError,
)


@pytest.fixture
def machine():
    return Machine()


def test_definite_affirm_finalizes_sole_dependent(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.guess("p", x)
    interval = machine.process("p").current
    machine.affirm("q", x)                      # q is definite ⇒ Eq 7-9
    assert x.status is AidStatus.AFFIRMED
    assert x.resolved_by == "q"
    assert interval.state is IntervalState.DEFINITE
    assert machine.process("p").current is None  # Eq 23
    assert machine.process("p").speculative == set()
    assert x.dom == set()
    machine.check_invariants()


def test_definite_affirm_finalizes_all_dependents_across_processes(machine):
    machine.create_process("a")
    machine.create_process("b")
    machine.create_process("judge")
    x = machine.aid_init("x")
    machine.guess("a", x)
    machine.guess("b", x)
    machine.affirm("judge", x)
    assert machine.process("a").current is None
    assert machine.process("b").current is None
    machine.check_invariants()


def test_definite_affirm_leaves_other_dependencies_pending(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("p", y)
    machine.affirm("q", x)
    record = machine.process("p")
    # The first interval (only x) finalizes; the second still needs y.
    assert len(record.speculative) == 1
    assert record.current is not None
    assert record.current.ido == {y}
    machine.check_invariants()


def test_affirm_chain_finalizes_nested_intervals_in_order(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("p", y)
    machine.affirm("q", y)
    # outer interval still depends on x; inner now only on x too
    record = machine.process("p")
    assert len(record.speculative) == 2
    machine.affirm("q", x)
    assert record.current is None
    assert record.speculative == set()
    machine.check_invariants()


def test_speculative_affirm_merges_ido_into_dependents(machine):
    """Eq 10-14: dependents of X inherit the affirmer's dependencies."""
    machine.create_process("worker")
    machine.create_process("wart")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("worker", x)                  # worker depends on x
    worker_iv = machine.process("worker").current
    machine.guess("wart", y)                    # wart depends on y
    machine.affirm("wart", x)                   # speculative affirm
    assert x.status is AidStatus.PENDING        # not definite yet
    assert worker_iv.ido == {y}                 # x replaced by wart's deps
    assert worker_iv in y.dom                   # Eq 10 symmetry
    assert x.dom == set()                       # Eq 14
    machine.check_invariants()


def test_speculative_affirm_made_definite_finalizes_dependents(machine):
    """Lemma 6.1: spec affirm + affirmer finalize ≡ definite affirm."""
    machine.create_process("worker")
    machine.create_process("wart")
    machine.create_process("judge")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("worker", x)
    machine.guess("wart", y)
    machine.affirm("wart", x)                   # speculative
    machine.affirm("judge", y)                  # definite ⇒ wart definite ⇒ x's old dependents free
    assert machine.process("worker").current is None
    assert machine.process("wart").current is None
    machine.check_invariants()


def test_nested_sweep_rewrites_each_dependent_at_its_turn():
    """Finalizing p1 in X's Eq 7-9 sweep makes p1's speculative affirm of
    Y definite (Lemma 6.1), and Y's nested sweep sheds Y from p2's second
    interval before the outer sweep reaches it: the outer sweep must
    rewrite that interval from {X}, not from the {X, Y} it held when the
    sweep began, or {Y} is left in a definite interval."""
    machine = Machine()
    for pid in ("p1", "p2", "p3"):
        machine.create_process(pid)
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p1", x)
    machine.affirm("p1", y)                     # speculative: p1 depends on x
    machine.guess("p2", x)
    machine.guess("p2", y)
    intervals = machine.process("p1").intervals + machine.process("p2").intervals
    machine.affirm("p3", x)                     # definite: Eq 7-9 over x.DOM
    assert y.status is AidStatus.AFFIRMED
    for interval in intervals:
        assert interval.state is IntervalState.DEFINITE
        assert not interval.ido
    machine.check_invariants()


def test_sweep_visits_dom_in_pid_start_index_serial_order():
    """Eq 7's ∀B ∈ X.DOM visits in (pid, start_index, serial) order, not in
    creation or set order; the order of the finalizes is in every trace."""
    machine = Machine()
    events = []
    machine.subscribe(events.append)
    for pid in ("c", "b", "a", "judge"):
        machine.create_process(pid)
    x = machine.aid_init("x")
    for pid in ("c", "b", "a", "a"):            # serials 1..4, out of pid order
        machine.guess(pid, x)
    machine.affirm("judge", x)
    finalized = [e.interval for e in events if isinstance(e, FinalizeEvent)]
    assert [(iv.pid, iv.serial) for iv in finalized] == [
        ("a", 3), ("a", 4), ("b", 2), ("c", 1)]
    assert finalized[0].start_index < finalized[1].start_index
    machine.check_invariants()


def test_self_affirm_finalizes_self(machine):
    """§5.2 self-affirm: X.DOM = {A} and A affirms X."""
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.affirm("p", x)
    record = machine.process("p")
    assert record.current is None
    assert record.speculative == set()
    machine.check_invariants()


def test_self_affirm_with_other_dependencies_sheds_only_x(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", y)
    machine.guess("p", x)
    machine.affirm("p", x)
    record = machine.process("p")
    assert record.current is not None
    assert record.current.ido == {y}
    machine.check_invariants()


def test_second_affirm_lenient_is_noop():
    machine = Machine()
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.affirm("q", x)
    machine.affirm("p", x)                      # redundant ⇒ no-op
    assert x.status is AidStatus.AFFIRMED
    assert x.resolved_by == "q"


def test_affirm_conflicting_with_deny_raises_even_lenient():
    machine = Machine()
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.deny("q", x)
    with pytest.raises(ResolutionConflictError):
        machine.affirm("p", x)


def test_affirm_while_speculative_affirm_live_raises(machine):
    machine.create_process("a")
    machine.create_process("b")
    machine.create_process("c")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("a", x)
    machine.guess("b", y)
    machine.affirm("b", x)                      # speculative, still live
    with pytest.raises(ResolutionConflictError):
        machine.affirm("c", x)


def test_finalize_precondition_guard(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    interval = machine.process("p").current
    with pytest.raises(FinalizePreconditionError):
        machine._finalize(interval)
