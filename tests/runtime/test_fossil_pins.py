"""Pin accounting ≡ the scan it replaced.

A fossil pass used to *compute* which AID keys must stay resolvable:
copy the handle table, walk every mailbox and the in-flight index, walk
the unacked reliable sends, walk the messages kept by live speculative
intervals.  Pins are now counted where they change (``Machine.pin`` /
``unpin``, ``Network.hold`` / ``release``).  The scan survives here as
the reference: at every pass — and these tests force one at every
effect-dispatch and delivery boundary — the counted set must equal what
the scan finds, and the AID table the pass leaves must be the one a full
sweep (every AID examined, by reachability) would leave.

Handles no longer pin keys: a live handle holds its AID only while the
AID is pending (``Machine.hold``, one weak reference per handle object,
dropped when a pass finds the AID settled).  The reference for that is
the audit's own weak reference to every handle the machine was asked to
hold.

One deliberate difference, written into the reference: the scan could
not see a message in the instant it is handed from the mailbox to
``HopeSystem._deliver`` — neither queued nor yet kept by an interval —
and a pass that ran right there could retire a tag the delivery was
about to resolve.  The counted hold lasts until the delivery has decided
the message's fate, so the reference adds that one message's tags.
"""

import weakref

import pytest

from repro.core.aid import SETTLED_DOM

import repro.apps.call_streaming as cs
from repro.bench.workloads import (
    build_chaos_mesh,
    build_chaos_ring,
    build_durable_counter,
)
from repro.chaos import standard_plans
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, FaultPlan, LinkFaults
from repro.sim.channel import Message
from repro.sim.process import _start_batch

from .test_resilience import crash_at


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------
def _in_flight(system):
    """Messages a pending simulator event will still deliver, plus the
    rest of a coalesced sweep that is being delivered right now."""
    for _time, _seq, event in system.sim._heap:
        if event.cancelled or event.fn is _start_batch:     # tasks, no message
            continue
        for arg in event.args:
            if isinstance(arg, Message):
                yield arg
            elif isinstance(arg, list):                  # a sweep's (box, message) entries
                yield from (message for _box, message in arg)
    for _box, message in system.network._sweep_live or ():
        if message.deliver_time is None:                 # not reached yet
            yield message


def scanned_pins(system, in_hand=None) -> set:
    """The pre-incremental ``_pinned_aid_keys``, less the handles (they
    hold a pending AID on the AID itself, see :class:`PinAudit`): the tags
    of every live message in flight, queued, or kept by a live
    speculative interval, and the tags of every unacked reliable send."""
    pinned = set()
    messages = list(_in_flight(system))
    for box in system.network._mailboxes.values():
        messages.extend(box._queue)
    for record in system.machine.processes.values():
        for interval in record.speculative:
            messages.extend(interval.received)
    if in_hand is not None:
        messages.append(in_hand)
    for message in messages:
        if not message.dead:
            pinned.update(message.tags)
    if system.reliable is not None:
        for record in system.reliable._pending.values():
            pinned.update(record.tags)
    return pinned


def full_sweep_keeps(machine, pinned, held) -> set:
    """The keys a full sweep leaves: an AID stays while a live interval
    depends on it, has speculatively affirmed it or has parked a deny of
    it, while its key is pinned, or — pending only — while a handle to it
    lives (``held``)."""
    referenced = set()
    for record in machine.processes.values():
        for interval in record.speculative:
            referenced.update(interval.ihd)
            referenced.update(interval.spec_affirms)
    return {
        key for key, aid in machine.aids.items()
        if aid.dom or aid in referenced or key in pinned
        or (aid.pending and key in held)
    }


class PinAudit:
    """Checks every pass of ``system`` against the reference; with
    ``force`` a pass runs at every effect-dispatch and delivery boundary
    (a pass is semantics-neutral, so any quiescent point will do)."""

    def __init__(self, system: HopeSystem, force: bool = True) -> None:
        self.system = system
        self.passes = 0
        self.retired = 0
        #: The most AIDs any pass left waiting on a pin.
        self.backlog = 0
        self.in_hand_passes = 0
        self._in_hand = None
        #: The reference for holds: a weak reference of the audit's own to
        #: every handle object the machine was asked to hold, by AID.
        self.holds: dict = {}
        collect = system.machine.fossil_collect
        deliver, handle = system._deliver, system._handle_effect
        hold = system.machine.hold

        def audited_hold(aid, obj):
            self.holds.setdefault(aid, []).append(weakref.ref(obj))
            hold(aid, obj)

        def held() -> set:
            return {aid.key for aid, refs in self.holds.items()
                    if any(ref() is not None for ref in refs)}

        def audited_collect(records=None):
            in_hand, self._in_hand = self._in_hand, None
            machine = system.machine
            assert set(machine.pins) == scanned_pins(system, in_hand)
            before = set(machine.aids)
            stats = collect(records)
            # The engine has dropped log prefixes and the pass intervals:
            # judge what is left by what can name an AID *now*.
            keeps = full_sweep_keeps(machine, scanned_pins(system, in_hand), held())
            assert set(machine.aids) == keeps, (before - keeps, keeps - set(machine.aids))
            for aid in [aid for aid in self.holds if not aid.pending]:
                del self.holds[aid]             # resolved: never pending again
                assert aid.dom is not SETTLED_DOM or aid.handles is None
            assert all(count > 0 for count in machine.pins.values())
            self.passes += 1
            self.retired += stats.aids_retired
            self.backlog = max(self.backlog, len(machine._retire_deferred))
            self.in_hand_passes += in_hand is not None and bool(in_hand.tags)
            return stats

        def audited_deliver(proc, value, task):
            if force:
                system._fossil_pending = True
            # A pass at the top of _deliver runs with this message in hand.
            self._in_hand = (
                value if system._fossil_pending and isinstance(value, Message) else None
            )
            try:
                deliver(proc, value, task)
            finally:
                self._in_hand = None

        def audited_handle(task, effect):
            if force:
                system._fossil_pending = True
            handle(task, effect)

        system.machine.fossil_collect = audited_collect
        system.machine.hold = audited_hold
        system._deliver = audited_deliver
        # Tasks were given the bound method at spawn: attach before spawning.
        assert not system.procs, "attach the audit before the first spawn"
        system._handle_effect = audited_handle

    def finish(self) -> None:
        """The end state, once the pass a run owes at quiescence has run:
        every count positive, every hold accounted for."""
        self.system.machine.check_invariants()


def _system(seed=0, **options) -> HopeSystem:
    options.setdefault("latency", ConstantLatency(1.0))
    return HopeSystem(seed=seed, fossil_interval=1, **options)


# ----------------------------------------------------------------------
# the chaos workloads, fault-free and under the storm plan + reliable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "storm+reliable"])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("build", [build_chaos_mesh, build_chaos_ring])
def test_chaos_workloads(build, seed, faulty):
    name = "mesh" if build is build_chaos_mesh else "ring"
    options = {"faults": standard_plans(name)["storm"], "reliable": True} if faulty else {}
    system = _system(seed, **options)
    audit = PinAudit(system)
    build(system)
    system.run(max_events=400_000)
    audit.finish()
    stats = system.stats()
    # (no commit points in these bodies: while one runs, its log holds every
    # handle it minted — but a handle holds only a pending AID, so what
    # waits is the pending ones and the tag-pinned ones, not every AID the
    # running logs name.)
    assert audit.passes >= 50 and audit.backlog >= 1
    assert stats["rollbacks"] > 0 and stats["tags_attached"] > 0
    if faulty:
        assert stats["reliable"]["acked"] > 0


@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "storm+reliable"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_commit_point_counters(seed, faulty):
    """Bodies with commit points: logs are rebased, handles die, and the
    passes retire AIDs all along the run."""
    options = {"faults": standard_plans("mesh")["storm"], "reliable": True} if faulty else {}
    system = _system(seed, **options)
    audit = PinAudit(system)
    build_durable_counter(system, workers=3, rounds=12)
    system.run(max_events=400_000)
    audit.finish()
    stats = system.stats()
    assert audit.passes >= 100 and audit.retired >= 30
    assert stats["rollbacks"] > 0 and stats["fossil_log_dropped"] > 0


@pytest.mark.parametrize("build", [build_chaos_mesh, build_chaos_ring])
def test_chaos_workloads_at_their_own_cadence(build):
    """No forced passes: the ones the cadence rule schedules."""
    system = HopeSystem(seed=3, latency=ConstantLatency(1.0), fossil_interval=2)
    audit = PinAudit(system, force=False)
    build(system)
    system.run(max_events=400_000)
    assert audit.passes == system.stats()["fossil_collections"] >= 3
    audit.finish()


# ----------------------------------------------------------------------
# Call Streaming with page breaks: denied PartPage assumptions, restarts
# from rebase points, tagged messages from the Worker to everyone
# ----------------------------------------------------------------------
def test_call_streaming_page_breaks():
    n = 24
    config = cs.CallStreamConfig(
        page_size=1000, latency=10.0, n_warts=3,
        report_lines=tuple(1001 if i % 6 == 5 else 3 for i in range(n)),
    )
    system = cs._build_system(config, 3, None)
    system.fossil_interval = 1
    audit = PinAudit(system)
    cs._spawn_optimistic(system, config)
    result = cs._collect(system, system.run())
    audit.finish()
    assert result.server_output == cs.expected_output(config)
    assert result.rollbacks > 0 and result.stats["fossil_log_dropped"] > 0
    assert audit.passes >= 50 and audit.retired > 0


# ----------------------------------------------------------------------
# hand-built corners
# ----------------------------------------------------------------------
def _chain_root(p, judge, first):
    x = yield p.aid_init("tree")
    yield p.send(judge, x)
    ok = yield p.guess(x)
    yield p.send(first, 7)                   # tagged {x} on the speculative branch
    yield p.emit(("root", ok))


def _chain_relay(p, nxt):
    value = (yield p.recv()).payload
    yield p.compute(3.0)
    if nxt is not None:
        yield p.send(nxt, value + 1)
    yield p.emit((p.name, value))


def _chain_judge(p, wait, ok):
    x = (yield p.recv()).payload
    yield p.compute(wait)
    yield (p.affirm(x) if ok else p.deny(x))


def test_deny_cascade_retracts_an_in_flight_delivery():
    """The verdict lands while the third hop is on the wire: two relays
    roll back, the in-flight message is retracted before arrival, and the
    re-sent (definite) work runs through the same chain."""
    system = _system()
    audit = PinAudit(system)
    sent = []
    send = system.network.send
    system.network.send = lambda *a, **kw: sent.append(send(*a, **kw)) or sent[-1]
    system.spawn("root", _chain_root, "judge", "n0")
    system.spawn("judge", _chain_judge, 7.5, False)     # denies at t = 8.5
    for i in range(4):
        system.spawn(f"n{i}", _chain_relay, f"n{i + 1}" if i < 3 else None)
    system.run()
    audit.finish()
    stats = system.stats()
    assert stats["rollbacks"] >= 3 and stats["denies"] == 1
    never_arrived = [d.message for d in sent if d.message.dead and d.message.deliver_time is None]
    assert [(m.src, m.dst, m.send_time) for m in never_arrived] == [("n1", "n2", 8.0)]
    assert [system.committed_outputs(f"n{i}") for i in range(4)] == [
        [(f"n{i}", 7 + i)] for i in range(4)
    ]
    assert not system.machine.pins                                # nothing outstanding


def _requeue_sender(p, peer, n):
    x = yield p.aid_init("x")
    yield p.guess(x)
    for i in range(n):
        yield p.send(peer, i)                # all tagged {x}
    yield p.affirm(x)


def _requeue_receiver(p, judge, n):
    got = []
    for _ in range(2):
        got.append((yield p.recv()).payload)     # speculative on x from here
    y = yield p.aid_init("y")
    yield p.send(judge, y)
    yield p.guess(y)                              # a second, younger interval
    for _ in range(n - 2):
        got.append((yield p.recv()).payload)
    yield p.emit(tuple(got))


def test_requeue_front_after_rollback():
    """The receiver's younger interval is denied after it consumed tagged
    messages whose sender survives: they go back to the head of the
    mailbox (still held), and are received again."""
    system = _system()
    audit = PinAudit(system)
    system.spawn("judge", _chain_judge, 6.0, False)
    system.spawn("rx", _requeue_receiver, "judge", 5)
    system.spawn("tx", _requeue_sender, "rx", 5)
    system.run()
    audit.finish()
    assert system.stats()["rollbacks"] >= 1
    assert system.committed_outputs("rx") == [(0, 1, 2, 3, 4)]
    assert audit.in_hand_passes > 0


def _dup_sender(p, peer, n, resume=None):
    i = resume or 0
    while i < n:
        x = yield p.aid_init("r")
        yield p.guess(x)
        yield p.send(peer, (x, i))           # tagged {x}, handle in the payload
        yield p.compute(1.0)
        i += 1
        yield p.commit_point(i)
    yield p.emit("sent")


def _dup_receiver(p, n, resume=None):
    seen = set(resume or ())
    while len(seen) < n:
        x, i = (yield p.recv()).payload
        if i not in seen:                    # a duplicate re-delivers the round
            seen.add(i)
            yield p.affirm(x)
        yield p.commit_point(sorted(seen))
    yield p.emit(len(seen))


@pytest.mark.parametrize("reliable", [False, True], ids=["duplicates", "retransmissions"])
def test_copies_sharing_one_msg_id(reliable):
    """Fault-duplicated copies are one ``Message`` scheduled twice;
    retransmissions are new envelopes with the old id.  The tags stay
    pinned until the last copy of either kind is consumed — delivered,
    suppressed by the receiver's dedup, or dropped on the wire."""
    faults = FaultPlan(default=LinkFaults(
        drop=0.3 if reliable else 0.0, duplicate=0.5, jitter=3.0,
    ))
    system = _system(seed=5, faults=faults, reliable=reliable)
    audit = PinAudit(system)
    system.spawn("rx", _dup_receiver, 12)
    system.spawn("tx", _dup_sender, "rx", 12)
    system.run()
    audit.finish()
    stats = system.stats()
    assert system.committed_outputs("rx") == [12]
    assert stats["faults"]["duplicated"] > 0
    if reliable:
        assert stats["reliable"]["retries"] > 0 and stats["reliable"]["dup_suppressed"] > 0
    assert audit.retired > 0


def _crash_worker(p, peer, n):
    for i in range(n):
        x = yield p.aid_init("w")
        yield p.guess(x)
        yield p.send(peer, (x, i))
        yield p.compute(2.0)
    yield p.emit("done")


def _crash_sink(p):
    while True:
        x, _i = (yield p.recv()).payload
        yield p.compute(5.0)                 # slow: its mailbox backs up
        yield p.affirm(x)


@pytest.mark.parametrize("reliable", [False, True], ids=["plain", "reliable"])
def test_crash_and_restart_purge_the_mailbox(reliable):
    """A crash forgets the sink's speculative intervals (the messages
    they kept are not requeued) and purges its mailbox, twice — at the
    crash and at the restart; the copies that go with it are released."""
    system = _system(reliable=reliable)
    audit = PinAudit(system)
    system.spawn("sink", _crash_sink)
    system.spawn("worker", _crash_worker, "sink", 8)
    crash_at(system, "sink", 9.0, restart_after=5.0)
    system.run(until=200.0)
    audit.finish()
    assert audit.passes > 20
    # whatever the sink never affirmed stays pinned only by live handles
    assert set(system.machine.pins) == scanned_pins(system)
