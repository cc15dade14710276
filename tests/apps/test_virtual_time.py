"""Tests for the HOPE-expressed timestamp-order workload (§2 subsumption)."""

import pytest

from repro.apps.virtual_time import (
    DONE_TAG,
    Job,
    VtWorkload,
    fold,
    run_hope_order,
)
from repro.sim import ConstantLatency, SequenceLatency, UniformLatency, RandomStreams


def make_workload(streams):
    return VtWorkload(streams=tuple(tuple(s) for s in streams))


def test_reference_state_is_order_sensitive():
    a = make_workload([[Job(1.0, 5), Job(2.0, 7)]])
    b = make_workload([[Job(1.0, 7), Job(2.0, 5)]])
    assert a.reference_state() != b.reference_state()


def test_single_sender_in_order_no_rollbacks():
    workload = make_workload([[Job(float(i), i * 3) for i in range(1, 8)]])
    result = run_hope_order(workload, latency=ConstantLatency(2.0))
    assert result.final_state == workload.reference_state()
    assert result.ledger == workload.reference_ledger()
    assert result.rollbacks == 0


def test_two_senders_interleaved_in_arrival_order():
    """Constant latency: arrival order equals vt order across senders here."""
    workload = VtWorkload(
        streams=(
            tuple(Job(1.0 + 2 * i, i) for i in range(5)),
            tuple(Job(2.0 + 2 * i, 100 + i) for i in range(5)),
        ),
        send_spacing=2.0,
    )
    result = run_hope_order(workload, latency=ConstantLatency(1.0))
    assert result.final_state == workload.reference_state()
    assert result.rollbacks == 0


def test_straggler_triggers_rollback_and_correct_state():
    """A slow first packet arrives after later-vt packets: HOPE must deny
    the violated guard, roll back, and converge to the oracle fold."""
    workload = VtWorkload(
        streams=(
            (Job(1.0, 11),),                 # physically slow (latency 50)
            (Job(2.0, 22), Job(3.0, 33)),    # physically fast (latency 1)
        ),
        send_spacing=0.5,
    )
    latency = SequenceLatency([50.0, 1.0, 1.0, 1.0, 50.0, 1.0])
    result = run_hope_order(workload, latency=latency)
    assert result.final_state == workload.reference_state()
    assert result.ledger == workload.reference_ledger()
    assert result.rollbacks >= 1


def test_random_jitter_many_senders_converges():
    streams = []
    for s in range(4):
        jobs = [Job(0.7 + s * 0.1 + 3.0 * i, s * 1000 + i) for i in range(10)]
        streams.append(tuple(jobs))
    workload = VtWorkload(streams=tuple(streams), send_spacing=1.5)
    latency = UniformLatency(0.5, 12.0, RandomStreams(9)["net"])
    result = run_hope_order(workload, latency=latency, seed=9)
    assert result.final_state == workload.reference_state()
    assert result.ledger == workload.reference_ledger()


def test_all_guard_aids_resolved_at_quiescence():
    workload = make_workload([[Job(float(i), i) for i in range(1, 6)]])
    from repro.runtime import HopeSystem
    from repro.apps.virtual_time import vt_receiver, vt_sender

    system = HopeSystem(latency=ConstantLatency(1.0))
    system.spawn("receiver", vt_receiver, 1)
    system.spawn("sender-0", vt_sender, "receiver", workload.streams[0], 1.0)
    system.run()
    # Every guard must end AFFIRMED: the receiver's self-affirms become
    # definite when its intervals finalize (Lemma 6.1).  (Counted live and
    # retired: the pass that settles them retires them at quiescence.)
    stats = system.stats()
    assert (stats["aids_affirmed"], stats["aids_denied"]) == (5, 0)
    assert system.pending_aids() == []


def test_deny_of_violated_guard_is_definite():
    """The receiver denies a guard it depends on — Eq 15's X ∈ A.IDO case."""
    workload = VtWorkload(
        streams=((Job(1.0, 1),), (Job(2.0, 2),)),
        send_spacing=0.5,
    )
    latency = SequenceLatency([50.0, 1.0, 50.0, 1.0])
    result = run_hope_order(workload, latency=latency)
    assert result.final_state == workload.reference_state()
    assert result.rollbacks >= 1
