"""Tests for reliable delivery, and for what a crash does to speculation."""

import importlib.util
from pathlib import Path

import pytest

from repro.runtime import HopeSystem, ReliableConfig, ReliableTransport, TIMED_OUT
from repro.sim import ConstantLatency, FaultPlan, LinkFaults, Tracer
from repro.verify.invariants import InvariantViolation, check_quiescent

from ..footprint import acked_send, budget


def crash_at(system, name, time, restart_after=None):
    """Crash ``name`` at ``time``; a restart is scheduled by the crash."""
    def crash():
        system.crash_process(name)
        if restart_after is not None:
            system.sim.schedule(restart_after, system.restart_process, name)
    system.sim.schedule_at(time, crash)


def ping_system(n=5, drop=0.0, seed=1, **kwargs):
    if drop > 0:
        kwargs["faults"] = FaultPlan(default=LinkFaults(drop=drop))
    system = HopeSystem(seed=seed, latency=ConstantLatency(1.0), **kwargs)

    def sender(p):
        for i in range(n):
            yield p.send("rx", i)
            yield p.compute(1.0)
        return n

    def receiver(p):
        got = []
        for _ in range(n):
            msg = yield p.recv()
            got.append(msg.payload)
            yield p.emit(msg.payload)
        return got

    system.spawn("tx", sender)
    system.spawn("rx", receiver)
    return system


# ---------------------------------------------------------------- config
def test_reliable_config_validation():
    with pytest.raises(ValueError):
        ReliableConfig(ack_timeout=0)
    with pytest.raises(ValueError):
        ReliableConfig(backoff=0.5)
    with pytest.raises(ValueError):
        ReliableConfig(ack_timeout=10.0, max_backoff=5.0)
    with pytest.raises(ValueError):
        ReliableConfig(max_attempts=0)


# ---------------------------------------------------------------- delivery
def test_retries_bridge_a_lossy_link():
    system = ping_system(n=8, drop=0.4, seed=3, reliable=True)
    system.run(max_events=100_000)
    # at-least-once, not ordered: a dropped message's retry can land
    # after later sends
    assert sorted(system.result_of("rx")) == list(range(8))
    stats = system.stats()["reliable"]
    assert stats["retries"] > 0
    assert system.stats()["faults"]["dropped"] > 0


def test_duplicates_are_suppressed():
    plan = FaultPlan(default=LinkFaults(duplicate=1.0))
    system = HopeSystem(
        seed=1, latency=ConstantLatency(1.0), faults=plan, reliable=True
    )

    def sender(p):
        for i in range(4):
            yield p.send("rx", i)

    def receiver(p):
        got = []
        for _ in range(4):
            msg = yield p.recv()
            got.append(msg.payload)
        extra = yield p.recv(timeout=30.0)
        assert extra is TIMED_OUT, "a duplicate leaked through dedup"
        return got

    system.spawn("tx", sender)
    system.spawn("rx", receiver)
    system.run(max_events=100_000)
    assert system.result_of("rx") == [0, 1, 2, 3]
    assert system.stats()["reliable"]["dup_suppressed"] >= 4


def test_exhaustion_abandons_unreachable_peer():
    plan = FaultPlan(default=LinkFaults(drop=1.0))
    system = HopeSystem(
        seed=1,
        latency=ConstantLatency(1.0),
        faults=plan,
        reliable=ReliableConfig(ack_timeout=1.0, max_backoff=1.0, max_attempts=3),
    )

    def sender(p):
        yield p.send("rx", "never-arrives")

    def receiver(p):
        msg = yield p.recv(timeout=100.0)
        return msg is TIMED_OUT

    system.spawn("tx", sender)
    system.spawn("rx", receiver)
    system.run(max_events=100_000)
    assert system.result_of("rx") is True
    stats = system.stats()["reliable"]
    assert stats["exhausted"] == 1
    assert stats["retries"] == 2  # attempts 2 and 3


def test_rollback_retracts_acked_reliable_send():
    """The chaos-harness regression: an ack must not immunize a send
    against its sender's later rollback — the consumed message has to go
    dead or the receiver double-counts the re-executed send."""
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), reliable=True)

    def guesser(p):
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            yield p.send("rx", "speculative")   # acked, then retracted
        else:
            yield p.send("rx", "pessimistic")
        return "done"

    def judge(p):
        msg = yield p.recv()
        yield p.compute(20.0)                   # let the ack land first
        yield p.deny(msg.payload)

    def receiver(p):
        got = []
        while True:
            msg = yield p.recv(timeout=100.0)
            if msg is TIMED_OUT:
                return got
            got.append(msg.payload)

    system.spawn("g", guesser)
    system.spawn("judge", judge)
    system.spawn("rx", receiver)
    system.run(max_events=100_000)
    assert system.result_of("rx") == ["pessimistic"]


def test_sender_crash_stops_retries_without_retracting():
    plan = FaultPlan(default=LinkFaults(drop=1.0))
    system = HopeSystem(
        seed=1,
        latency=ConstantLatency(1.0),
        faults=plan,
        reliable=ReliableConfig(ack_timeout=5.0, max_attempts=10),
    )

    def sender(p):
        yield p.send("rx", "black-holed")
        yield p.compute(100.0)

    def receiver(p):
        msg = yield p.recv(timeout=200.0)
        return msg is TIMED_OUT

    system.spawn("tx", sender)
    system.spawn("rx", receiver)
    crash_at(system, "tx", 12.0)
    system.run(max_events=100_000)
    assert system.result_of("rx") is True
    stats = system.stats()["reliable"]
    # the crash closed the pending record: retries stop at the crash time
    assert stats["retries"] <= 2
    assert stats["exhausted"] == 0


# ---------------------------------------------------------------- crash
def crashed_creator(restart: bool, judge: bool):
    """The creator of AID x sends its handle to a dependent (and to a
    judge), the dependent guesses x, and the creator crashes at t = 3,
    long before its own affirm.  Nothing resolves x on the crashed
    process's behalf: only another holder of the handle can."""
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0))

    def creator(p):
        x = yield p.aid_init("x")
        yield p.send("dep", x)
        if judge:
            yield p.send("judge", x)
        yield p.compute(100.0)
        yield p.affirm(x)

    def dep(p):
        msg = yield p.recv()
        yield p.guess(msg.payload)
        yield p.emit("optimistic")

    def judge_body(p):
        msg = yield p.recv()
        yield p.compute(10.0)
        yield p.affirm(msg.payload)

    system.spawn("creator", creator)
    dependent = system.spawn("dep", dep)
    if judge:
        system.spawn("judge", judge_body)
    crash_at(system, "creator", 3.0, restart_after=2.0 if restart else None)
    system.run(max_events=10_000)
    return system, dependent


@pytest.mark.parametrize("restart", [False, True], ids=["crashed", "restarted"])
def test_a_crashed_creators_aid_waits_for_another_holder(restart):
    """A crash resolves nothing: the dependent stays speculative on x#1
    whether or not the creator restarts (the restarted body mints a fresh
    AID), and the quiescence check names the AID it waits on."""
    system, dependent = crashed_creator(restart, judge=False)
    assert dependent.mproc.current.speculative
    assert system.outputs("dep") == ["optimistic"] and not system.committed_outputs("dep")
    with pytest.raises(InvariantViolation, match=r"pending AID x#1 that still has 1 dependent"):
        check_quiescent(system)


@pytest.mark.parametrize("restart", [False, True], ids=["crashed", "restarted"])
def test_a_third_holder_affirms_a_crashed_creators_aid(restart):
    system, _ = crashed_creator(restart, judge=True)
    assert system.committed_outputs("dep") == ["optimistic"]
    assert not system.pending_aids()
    check_quiescent(system)


# ---------------------------------------------------------------- purity
def test_disabled_layers_leave_traces_byte_identical():
    """faults=None + reliable=False must be
    byte-identical to a build that predates the whole resilience layer —
    checked against a plain run's fingerprint."""
    def run(**kwargs):
        tracer = Tracer()
        system = ping_system(n=6, trace=tracer, **kwargs)
        system.run(max_events=100_000)
        return tracer.fingerprint()

    assert run() == run(faults=None, reliable=False)


def test_faulty_run_replays_byte_identically():
    def run():
        tracer = Tracer()
        system = ping_system(n=6, drop=0.3, seed=5, reliable=True, trace=tracer)
        system.run(max_events=100_000)
        return tracer.fingerprint()

    assert run() == run()


# ---------------------------------------------------------------- dedup memory
def _spy_arrivals(system):
    """Record, per arrival the reliable layer judges, whether the send's
    record was already closed and whether the copy got through."""
    seen = []
    judge = system.network.deliver_hook
    pending = system.reliable._pending

    def spy(message):
        closed = message.msg_id not in pending
        fresh = judge(message)
        seen.append((closed, fresh))
        return fresh

    system.network.deliver_hook = spy
    return seen


def test_a_duplicate_landing_after_the_ack_is_still_suppressed():
    # Every copy is doubled and delayed by up to 20: some second copy lands
    # long after the first one's ack closed the send.  Acks go unharmed,
    # and the retry timer outlasts every delay: no retransmission.
    plan = FaultPlan(links={("tx", "rx"): LinkFaults(
        duplicate=1.0, reorder=1.0, reorder_window=20.0)})
    system = HopeSystem(
        seed=2, latency=ConstantLatency(1.0), faults=plan,
        reliable=ReliableConfig(ack_timeout=50.0, max_backoff=50.0),
    )

    def sender(p):
        for i in range(6):
            yield p.send("rx", i)

    def receiver(p):
        got = []
        for _ in range(6):
            got.append((yield p.recv()).payload)
        extra = yield p.recv(timeout=100.0)
        assert extra is TIMED_OUT, "a duplicate leaked through dedup"
        return got

    system.spawn("tx", sender)
    system.spawn("rx", receiver)
    arrivals = _spy_arrivals(system)
    system.run(max_events=100_000)
    assert sorted(system.result_of("rx")) == list(range(6))
    late = [fresh for closed, fresh in arrivals if closed]
    assert late and not any(late)       # late copies came, and none got through
    assert system.stats()["reliable"]["dup_suppressed"] == 6
    assert not system.reliable._seen and not system.reliable._draining


def test_a_copy_landing_at_a_crashed_receiver_settles_its_send():
    """A crash clears the receiver's dedup memory; a late copy that lands
    while it is down is dropped — and must still let its closed send go."""
    plan = FaultPlan(links={("tx", "rx"): LinkFaults(
        duplicate=1.0, reorder=1.0, reorder_window=20.0)})
    system = HopeSystem(
        seed=2, latency=ConstantLatency(1.0), faults=plan,
        reliable=ReliableConfig(ack_timeout=50.0, max_backoff=50.0),
    )

    def sender(p):
        for i in range(6):
            yield p.send("rx", i)

    def receiver(p):
        while True:
            yield p.recv()

    system.spawn("tx", sender)
    system.spawn("rx", receiver)
    crash_at(system, "rx", 6.0)
    arrivals = []
    judge = system.network.deliver_hook
    transport = system.reliable

    def spy(message):
        arrivals.append((message.msg_id in transport._draining, system.procs["rx"].crashed))
        return judge(message)

    system.network.deliver_hook = spy
    system.run(max_events=100_000)
    assert (True, True) in arrivals     # a closed send's copy hit the downed node
    assert transport.stats.dropped_at_crashed
    assert not transport._seen and not transport._draining and not transport._pending


def _lossy_pairs(seed, pairs=4, rounds=12, crash=False, **options):
    """The e2e ``lossy`` shape, small: each worker guesses, sends its round
    to a validator over a dropping, duplicating, reordering network; the
    validator affirms or (every fourth round) denies."""
    plan = FaultPlan(default=LinkFaults(
        drop=0.1, duplicate=0.2, reorder=0.2, reorder_window=4.0, jitter=1.0))
    system = HopeSystem(
        seed=seed, latency=ConstantLatency(1.0), faults=plan, reliable=True, **options
    )

    def worker(p, validator):
        for i in range(rounds):
            x = yield p.aid_init("round")
            yield p.guess(x)
            yield p.send(validator, (x, i))
            yield p.compute(1.0)
            yield p.emit(i)

    def validator(p):
        for _ in range(rounds):
            x, i = (yield p.recv()).payload
            if i % 4 == 3:
                yield p.deny(x)
            else:
                yield p.affirm(x)

    for k in range(pairs):
        system.spawn(f"v{k}", validator)
        system.spawn(f"w{k}", worker, f"v{k}")
    if crash:
        crash_at(system, "v0", 6.0, restart_after=5.0)
        crash_at(system, "w1", 9.0, restart_after=5.0)
    return system


@pytest.mark.parametrize("crash", [False, True], ids=["steady", "crashes"])
@pytest.mark.parametrize("seed", [1, 4, 9])
def test_dedup_memory_is_empty_at_quiescence(seed, crash):
    """A receiver forgets an id once its send is closed and no live copy is
    in flight — so a run that drains holds none, whether its copies landed
    at a live receiver, a crashed one, or as dead retractions."""
    system = _lossy_pairs(seed, crash=crash)
    system.run(max_events=500_000)
    assert system.sim.pending_events == 0
    stats = system.stats()
    assert stats["reliable"]["acked"] and stats["rollbacks"]
    if crash:
        assert stats["reliable"]["dropped_at_crashed"]
    assert system.reliable._seen == {}
    assert system.reliable._pending == {} and system.reliable._draining == {}


class _RememberingTransport(ReliableTransport):
    """The reference: dedup memory that never forgets an id."""

    def _settle(self, record):
        pass


@pytest.mark.parametrize("crash", [False, True], ids=["steady", "crashes"])
@pytest.mark.parametrize("seed", [2, 5])
def test_forgetting_changes_no_dedup_decision(seed, crash):
    """Against a receiver that remembers every id, forgetting the ones no
    copy can reach any more leaves the trace, the counters and every
    committed output as they were."""
    def run(reference):
        tracer = Tracer()
        system = _lossy_pairs(seed, crash=crash, trace=tracer)
        if reference:
            system.reliable.__class__ = _RememberingTransport
        system.run(max_events=500_000)
        outputs = {name: system.committed_outputs(name) for name in system.process_names()}
        return tracer.fingerprint(), system.stats()["reliable"], outputs, system.reliable._seen

    forgetting, reference = run(False), run(True)
    assert forgetting[:3] == reference[:3]
    assert forgetting[3] == {} and reference[3]


# ---------------------------------------------------------------- acked send
def test_an_acked_send_keeps_nothing_but_its_dead_timer_key():
    system, traced, blocks = acked_send()
    timers = [entry[2] for entry in system.sim._heap if entry[2].cancelled]
    assert len(timers) == 4 * 500 and system.sim.heap_compactions == 0
    assert all(event.fn is None and event.args is None for event in timers)
    assert not system.reliable._seen and not system.reliable._pending
    max_bytes, max_blocks = budget("acked send")
    assert traced <= max_bytes
    assert blocks <= max_blocks


# ------------------------------------------------------- retired endpoints
def _arrivals_at_retired(system):
    """Count the copies that land at a name after a pass retired it."""
    retired, landed = set(), []
    retire, put = system._retire, system.network._put

    def recording_retire(proc):
        retired.add(proc.name)
        retire(proc)

    def recording_put(box, message):
        landed.append(message.dst in retired)
        put(box, message)

    system._retire, system.network._put = recording_retire, recording_put
    return landed


def _lossy_quick():
    """The benchmark's ``lossy --quick`` workload, through its public
    surface (``WORKLOADS``); ``benchmarks/e2e`` is a directory of scripts,
    so its module is loaded from its file."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS["lossy"](7, quick=True)


def test_a_retired_endpoint_under_reliable_delivery():
    """The ``lossy --quick`` body: retries, duplicates and acks keep
    arriving for validators and workers a pass has retired.  Each copy is
    accepted, acked or suppressed as before, and consumed; the ledger is
    the oracle's, and the trace, the transport counters and the event
    count are those recorded before retirement dropped the runtime."""
    workload = _lossy_quick()
    tracer = Tracer()
    system = HopeSystem(**workload.options(), trace=tracer)
    landed = _arrivals_at_retired(system)
    workload.build(system)
    system.run()
    assert sum(landed) > 0
    stats = system.stats()
    ledger = {}
    for name in workload.emitters():
        for record in system.committed_outputs(name):
            ledger.setdefault(record[0], []).append(record)
    assert workload.failed_ops(ledger) == 0
    assert stats["processes_retired"] == 50 and not system.machine.pins  # all of them
    assert stats["sim_events"] == 2528
    assert stats["reliable"] == {
        "sent": 837, "retries": 72, "acked": 667, "acks_sent": 790,
        "dup_suppressed": 65, "dropped_at_crashed": 0, "exhausted": 0,
    }
    assert tracer.fingerprint() == (
        "fa7aa4d154a6b3d3fa7a628c1413383923df56d68d708b0b37038a862e84302f"
    )
