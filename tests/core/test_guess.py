"""Tests for guess (Eq 1-6) and interval creation."""

import pytest

from repro.core import AidStatus, Machine, ResolutionConflictError


@pytest.fixture
def machine():
    return Machine()


def test_guess_returns_true_and_creates_interval(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    assert machine.guess("p", x) is True
    record = machine.process("p")
    assert record.g is True
    assert record.current is not None
    assert record.current.ido == {x}
    assert record.current in x.dom


def test_guess_checkpoint_records_pid_and_ps(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x, ps="checkpoint-7")
    interval = machine.process("p").current
    assert interval.pid == "p"
    assert interval.ps == "checkpoint-7"


def test_nested_guess_inherits_dependencies(machine):
    """Eq 3: A.IDO = (Si.I).IDO ∪ {X}."""
    machine.create_process("p")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    first = machine.process("p").current
    machine.guess("p", y)
    second = machine.process("p").current
    assert second is not first
    assert second.ido == {x, y}
    assert first.ido == {x}
    assert second.parent is first
    assert machine.process("p").speculative == {first, second}


def test_guess_adds_interval_to_dom(machine):
    """Eq 4 plus Lemma 5.1 symmetry."""
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.guess("q", x)
    assert {iv.pid for iv in x.dom} == {"p", "q"}
    machine.check_invariants()


def test_guess_on_affirmed_aid_returns_true_without_interval(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.affirm("q", x)
    assert x.status is AidStatus.AFFIRMED
    assert machine.guess("p", x) is True
    assert machine.process("p").current is None


def test_guess_on_denied_aid_returns_false_without_interval(machine):
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.deny("q", x)
    assert machine.guess("p", x) is False
    assert machine.process("p").g is False
    assert machine.process("p").current is None


def test_guess_same_aid_twice_creates_two_intervals(machine):
    """An explicit guess always creates a checkpoint, even if already dependent."""
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.guess("p", x)
    record = machine.process("p")
    assert len(record.speculative) == 2
    assert record.current.ido == {x}
    assert len(x.dom) == 2
    machine.check_invariants()


def test_guess_many_merges_tags_into_one_interval(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    interval = machine.guess_many("p", [x, y])
    assert interval is not None
    assert interval.ido == {x, y}
    assert interval in x.dom and interval in y.dom
    assert interval.aid is None


def test_guess_many_skips_existing_dependencies(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    interval = machine.guess_many("p", [x, y])
    assert interval.ido == {x, y}
    # full Lemma 5.1 symmetry: the inherited dependency registers too
    assert interval in x.dom
    assert interval in y.dom


def test_guess_many_with_no_new_tags_returns_none(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    before = machine.process("p").current
    assert machine.guess_many("p", [x]) is None
    assert machine.process("p").current is before


def test_history_records_guess(machine):
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    kinds = [e.kind for e in machine.process("p").history]
    assert kinds == ["init", "guess"]
