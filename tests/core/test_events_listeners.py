"""Machine event emission: every primitive notifies subscribers correctly."""

import pytest

from repro.core import (
    AffirmEvent,
    DenyEvent,
    FinalizeEvent,
    GuessEvent,
    GuessSkippedEvent,
    Machine,
    RollbackEvent,
)


def machine_with(events):
    machine = Machine()
    for name in ("p", "q"):
        machine.create_process(name)
    machine.subscribe(events.append)
    return machine


def test_guess_emits_guess_event():
    events = []
    machine = machine_with(events)
    x = machine.aid_init("x")
    machine.guess("p", x)
    [event] = [e for e in events if isinstance(e, GuessEvent)]
    assert event.pid == "p"
    assert event.interval.aid is x


def test_guess_on_resolved_emits_skip_event():
    events = []
    machine = machine_with(events)
    x = machine.aid_init("x")
    machine.affirm("q", x)
    machine.guess("p", x)
    [skip] = [e for e in events if isinstance(e, GuessSkippedEvent)]
    assert skip.value is True and skip.aid is x
    y = machine.aid_init("y")
    machine.deny("q", y)
    machine.guess("p", y)
    skips = [e for e in events if isinstance(e, GuessSkippedEvent)]
    assert skips[-1].value is False


def test_affirm_definite_flag_distinguishes_cases():
    events = []
    machine = machine_with(events)
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    machine.guess("p", x)
    machine.guess("q", y)
    machine.affirm("q", x)                    # q speculative ⇒ speculative
    spec = [e for e in events if isinstance(e, AffirmEvent)][-1]
    assert spec.definite is False
    machine.affirm("p", y)                    # hmm: p depends on x-replaced deps
    events.clear()
    z = machine.aid_init("z")
    machine.guess("p", z)
    machine.affirm("q", z)                    # q definite now ⇒ definite affirm
    last = [e for e in events if isinstance(e, AffirmEvent)][-1]
    assert last.definite is True


def test_deny_and_rollback_event_payloads():
    events = []
    machine = machine_with(events)
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.step("p", "work")
    machine.deny("q", x)
    [deny] = [e for e in events if isinstance(e, DenyEvent)]
    assert deny.definite is True
    [rollback] = [e for e in events if isinstance(e, RollbackEvent)]
    assert rollback.cause is x
    assert rollback.pid == "p"
    assert len(rollback.discarded) == 1


def test_finalize_event_fires_per_interval():
    events = []
    machine = machine_with(events)
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.guess("q", x)
    machine.affirm("q", x)                    # self-affirm resolves both
    finals = [e for e in events if isinstance(e, FinalizeEvent)]
    assert {e.pid for e in finals} == {"p", "q"}


def test_multiple_listeners_all_notified_in_order():
    first, second = [], []
    machine = Machine()
    machine.create_process("p")
    order = []
    machine.subscribe(lambda e: (first.append(e), order.append("first")))
    machine.subscribe(lambda e: (second.append(e), order.append("second")))
    x = machine.aid_init("x")
    machine.guess("p", x)
    assert len(first) == len(second) == 1
    assert order == ["first", "second"]
