"""Monitor overhead and correctness: the LedgerMonitor delta rechecks.

The monitor used to rebuild every process's full committed ledger on
*every* machine event — O(processes x history) per event, quadratic over
a run.  It now rechecks only the ledger a FinalizeEvent/RollbackEvent
names, from its previously verified committed prefix.  ``scans`` counts
output records examined; doubling the workload must roughly double it,
not quadruple it.
"""

import pytest

from repro.core.aid import SETTLED_DOM
from repro.runtime import HopeSystem
from repro.runtime.replay import KIND_CODE
from repro.sim import ConstantLatency
from repro.verify import (
    InvariantViolation,
    LedgerMonitor,
    attach_monitors,
    check_quiescent,
)


def guess_pipeline(system: HopeSystem, cycles: int, stay: bool = False) -> None:
    """A worker emitting one speculative output per affirm cycle (then,
    with ``stay``, blocked in ``recv``: live, its log kept)."""

    def worker(p):
        for i in range(cycles):
            x = yield p.aid_init(f"x{i}")
            yield p.send("judge", x)
            yield p.guess(x)
            yield p.emit(i)
            yield p.compute(1.0)
        if stay:
            yield p.recv()

    def judge(p):
        for _ in range(cycles):
            msg = yield p.recv()
            yield p.compute(0.1)
            yield p.affirm(msg.payload)

    system.spawn("worker", worker)
    system.spawn("judge", judge)


def run_monitored(cycles: int) -> LedgerMonitor:
    system = HopeSystem(seed=7, latency=ConstantLatency(0.5))
    ledger, _safety = attach_monitors(system)
    guess_pipeline(system, cycles)
    system.run(max_events=500_000)
    check_quiescent(system)
    ledger.assert_monotone()
    assert system.committed_outputs("worker") == list(range(cycles))
    return ledger


def test_monitor_scans_scale_linearly_not_quadratically():
    small = run_monitored(40)
    large = run_monitored(80)
    assert small.scans > 0
    # Linear scaling doubles; the old full-sweep monitor quadrupled
    # (80 cycles: ~4x the events each rescanning ~2x the history).
    assert large.scans < 3 * small.scans, (small.scans, large.scans)


def test_monitor_work_bounded_by_history():
    cycles = 60
    ledger = run_monitored(cycles)
    # Generous absolute bound: a handful of record-examinations per
    # output, independent of (events x history).
    assert ledger.scans < 40 * cycles, ledger.scans


def test_monitor_tracks_rollback_withdrawals():
    system = HopeSystem(seed=3, latency=ConstantLatency(0.5))
    ledger, _safety = attach_monitors(system)

    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            yield p.emit("speculative")
        else:
            yield p.emit("pessimistic")
        yield p.compute(1.0)

    def judge(p):
        msg = yield p.recv()
        yield p.compute(0.25)
        yield p.deny(msg.payload)

    system.spawn("worker", worker)
    system.spawn("judge", judge)
    system.run(max_events=100_000)
    check_quiescent(system)
    ledger.assert_monotone()
    assert system.stats()["rollbacks"] >= 1
    assert system.committed_outputs("worker") == ["pessimistic"]


def test_check_quiescent_sees_a_sheared_log_and_an_unsettled_shared_dom():
    """The log's lists are appended inline in two engine sites, and
    settled AIDs share one DOM object: the post-run check notices a list
    that fell behind, a cursor that lost count, a receive without its
    envelope row, a replay reading the wrong row, and an AID that shares
    the settled DOM without being settled."""
    system = HopeSystem(seed=7, latency=ConstantLatency(0.5), fossil_interval=2)
    guess_pipeline(system, 6, stay=True)
    # A settled AID retires under live handles; a tag pin (what a message
    # not yet consumed holds) keeps this one in the table.
    system.machine.pin(["x0#1"])
    system.run(max_events=100_000)
    check_quiescent(system)
    log = system.procs["worker"].log
    settled = [aid for aid in system.machine.aids.values() if aid.dom is SETTLED_DOM]
    assert [aid.key for aid in settled] == ["x0#1"] and log.retained == len(log) > 0

    log.kinds.append(KIND_CODE["send"])             # one column only
    with pytest.raises(InvariantViolation, match="effect log of 'worker' sheared"):
        check_quiescent(system)
    log.kinds.pop()
    log.pending += 1                                # a miscounted replay
    with pytest.raises(InvariantViolation, match="sheared.*pending 1"):
        check_quiescent(system)
    log.pending -= 1
    log.kinds.append(KIND_CODE["recv"])             # a receive without its envelope row
    log.results.append("late")
    log.cursor += 1
    with pytest.raises(InvariantViolation, match="sheared.*0 envelope slots for 1 receives"):
        check_quiescent(system)
    log.envelopes = ["judge", 99]
    check_quiescent(system)
    log.begin_replay()                              # a replay that lost its row
    check_quiescent(system)
    log.envelope_at += 2
    with pytest.raises(InvariantViolation, match="sheared.*at envelope slot 2"):
        check_quiescent(system)
    log.truncate(len(log) - 1)                      # back to the run's log, live
    log.cursor, log.pending = len(log), 0
    assert log.envelopes == []
    check_quiescent(system)
    settled[0].parked_denies = 1                    # about to change status
    with pytest.raises(InvariantViolation, match="shares SETTLED_DOM but is not settled"):
        check_quiescent(system)
    settled[0].parked_denies = 0
    settled[0].handles = []                         # a hold that outlived settling
    with pytest.raises(InvariantViolation, match="settled AID x0#1 is still held"):
        check_quiescent(system)
    settled[0].handles = None
    check_quiescent(system)
    with pytest.raises(AttributeError):             # Lemma 5.1: nothing joins it
        settled[0].dom.add(object())
