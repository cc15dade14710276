"""Unit tests for histories, records, and entity plumbing."""

import pytest

from repro.core import (
    AidStatus,
    HistoryEntry,
    Interval,
    Machine,
    MachineInvariantError,
    ProcessRecord,
    UnknownAidError,
    UnknownProcessError,
)
from repro.core.history import ProcessRecord as _PR


def test_history_indices_never_reused_after_truncation():
    record = ProcessRecord("p")
    for label in ("a", "b", "c"):
        record.append("event", label=label)
    dropped = record.truncate_from(1)
    assert [e.detail["label"] for e in dropped] == ["b", "c"]
    record.append("event", label="d")
    indices = [e.index for e in record.history]
    assert indices == [0, 1]
    assert record.history[-1].detail["label"] == "d"


def test_truncate_from_zero_clears_everything():
    record = ProcessRecord("p")
    record.append("event", label="x")
    dropped = record.truncate_from(0)
    assert len(dropped) == 1
    assert record.history == []


def test_truncate_future_index_is_noop():
    record = ProcessRecord("p")
    record.append("event")
    assert record.truncate_from(10) == []
    assert len(record.history) == 1


def test_history_entry_repr():
    entry = HistoryEntry(3, "guess", None, True, {"aid": "x#1"})
    text = repr(entry)
    assert "H[3]" in text and "guess" in text and "x#1" in text


def test_unknown_process_and_aid_errors():
    machine = Machine()
    with pytest.raises(UnknownProcessError):
        machine.process("ghost")
    with pytest.raises(UnknownAidError):
        machine.aid("ghost#1")


def test_create_process_idempotent():
    machine = Machine()
    first = machine.create_process("p")
    second = machine.create_process("p")
    assert first is second
    assert len(first.history) == 1          # only one init entry


def test_machine_step_records_events():
    machine = Machine()
    machine.create_process("p")
    machine.step("p", "compute", cost=4)
    entry = machine.process("p").history[-1]
    assert entry.kind == "event"
    assert entry.detail == {"label": "compute", "cost": 4}


def test_interval_labels_and_depends_on():
    machine = Machine(strict=False)
    machine.create_process("p")
    x = machine.aid_init("lock")
    machine.guess("p", x)
    interval = machine.process("p").current
    assert "lock" in interval.label
    assert x in interval.ido
    assert "p/I" in interval.label


def test_aid_key_and_repr():
    machine = Machine()
    aid = machine.aid_init("my-assumption")
    assert aid.key == f"my-assumption#{aid.serial}"
    assert "pending" in repr(aid)
    assert aid.pending and not aid.affirmed and not aid.denied


def test_guess_many_empty_iterable_is_none():
    machine = Machine()
    machine.create_process("p")
    assert machine.guess_many("p", []) is None


def test_nonsuffix_truncation_rejected():
    record = ProcessRecord("p")
    record.append("event")
    record.append("event")
    # simulate corruption: a stale high-index entry before a low one
    record.history.sort(key=lambda e: -e.index)
    with pytest.raises(MachineInvariantError):
        record.truncate_from(1)
