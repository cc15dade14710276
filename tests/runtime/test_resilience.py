"""Tests for reliable delivery and the heartbeat failure detector."""

import importlib.util
from pathlib import Path

import pytest

from repro.runtime import (
    DetectorConfig,
    HopeSystem,
    ReliableConfig,
    ReliableTransport,
    TIMED_OUT,
)
from repro.sim import ConstantLatency, FaultPlan, LinkFaults, Partition, Tracer

from ..footprint import acked_send, budget


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


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(interval=0)
    with pytest.raises(ValueError):
        DetectorConfig(interval=5.0, timeout=5.5, latency=1.0)


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
    system.failures.crash_at("tx", 12.0)
    system.run(max_events=100_000)
    assert system.result_of("rx") is True
    stats = system.stats()["reliable"]
    # the crash closed the pending record: retries stop at the crash time
    assert stats["retries"] <= 2
    assert stats["exhausted"] == 0


# ---------------------------------------------------------------- detector
def detector_scenario(crash_time=None, **kwargs):
    """An owner guesses and goes silent; a dependent consumes the tagged
    message and waits on a second message that never comes unless the
    detector denies the owner's AID."""
    system = HopeSystem(
        seed=1,
        latency=ConstantLatency(1.0),
        failure_detector=DetectorConfig(interval=4.0, timeout=10.0, latency=1.0),
        **kwargs,
    )

    def owner(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.send("dep", "speculative-hint")
        yield p.compute(200.0)                  # never resolves in time
        yield p.affirm(x)
        return "owner-done"

    def dep(p):
        msg = yield p.recv(timeout=50.0)
        if msg is TIMED_OUT:
            # post-deny re-execution: the hint died with the speculation
            yield p.emit("no-hint")
            return "dep-done"
        # consumed the speculative hint; the follow-up never arrives
        yield p.recv(timeout=100.0)
        yield p.emit(("fallback", msg.payload))
        return "dep-done"

    system.spawn("owner", owner)
    system.spawn("dep", dep)
    if crash_time is not None:
        system.failures.crash_at("owner", crash_time)
    return system


def test_detector_denies_crashed_owners_aids():
    system = detector_scenario(crash_time=3.0)
    system.run(max_events=100_000)
    # the dependent rolled back (its consumed message died) and finished
    assert system.result_of("dep") == "dep-done"
    stats = system.stats()["detector"]
    assert stats["suspects"] >= 1
    assert stats["detector_denies"] >= 1
    assert stats["false_suspicions"] == 0
    assert system.stats()["rollbacks"] >= 1
    assert not system.pending_aids()


def test_detector_run_terminates_after_suspicion():
    system = detector_scenario(crash_time=3.0)
    final = system.run(max_events=100_000)
    # the detector's own heartbeat loop must not keep the run alive
    assert final < 500.0


def test_false_suspicion_reconciles_late_affirm():
    """A partitioned (not crashed) owner is suspected and its AID denied;
    when it heals, its affirm of the detector-denied AID must reconcile
    to a no-op instead of raising a resolution conflict."""
    # owner alone vs two peers: owner is the minority, so its heartbeats
    # are the ones the cut swallows
    plan = FaultPlan(
        partitions=(
            Partition(("owner",), ("dep", "bystander"), start=1.0, heal_at=60.0),
        )
    )
    system = HopeSystem(
        seed=1,
        latency=ConstantLatency(1.0),
        faults=plan,
        reliable=True,
        failure_detector=DetectorConfig(interval=4.0, timeout=10.0, latency=1.0),
    )

    def owner(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.compute(80.0)                    # silent past the timeout
        yield p.affirm(x)                        # reconciled: already denied
        return "owner-done"

    def dep(p):
        return "dep-done"
        yield  # pragma: no cover

    def bystander(p):
        yield p.compute(1.0)
        return "bystander-done"

    system.spawn("owner", owner)
    system.spawn("dep", dep)
    system.spawn("bystander", bystander)
    system.run(max_events=100_000)
    assert system.result_of("owner") == "owner-done"
    stats = system.stats()["detector"]
    assert stats["suspects"] >= 1
    assert stats["detector_denies"] >= 1
    assert stats["false_suspicions"] >= 1
    assert stats["reconciled_affirms"] >= 1


# ---------------------------------------------------------------- purity
def test_disabled_layers_leave_traces_byte_identical():
    """faults=None + reliable=False + failure_detector=False must be
    byte-identical to a build that predates the whole resilience layer —
    checked against a plain run's fingerprint."""
    def run(**kwargs):
        tracer = Tracer()
        system = ping_system(n=6, trace=tracer, **kwargs)
        system.run(max_events=100_000)
        return tracer.fingerprint()

    assert run() == run(faults=None, reliable=False, failure_detector=False)


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
    system.failures.crash_at("rx", 6.0)
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
        system.failures.crash_at("v0", 6.0, restart_after=5.0)
        system.failures.crash_at("w1", 9.0, restart_after=5.0)
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
    timers = [event for event in system.sim._heap if event.cancelled]
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


def test_the_detector_heartbeats_a_retired_process():
    """A retired process is a live node to the failure detector: it
    heartbeats as it did while its runtime existed, so the chaos ``ring``
    under heavy drop suspects what it suspected, and the trace and
    ``DetectorStats`` are those recorded before retirement dropped the
    runtime."""
    from repro.chaos import WORKLOADS, standard_plans

    tracer = Tracer()
    system = HopeSystem(
        seed=3, latency=ConstantLatency(1.0), trace=tracer,
        faults=standard_plans("ring")["drop-heavy"], reliable=ReliableConfig(),
        failure_detector=DetectorConfig(), fossil_interval=4,
    )
    retired_at = {}
    retire = system._retire

    def recording_retire(proc):
        retired_at[proc.name] = system.sim.now
        retire(proc)

    system._retire = recording_retire
    beats, on_heartbeat = [], system.detector._on_heartbeat

    def recording_heartbeat(name):
        beats.append(name in retired_at and system.sim.now > retired_at[name])
        on_heartbeat(name)

    system.detector._on_heartbeat = recording_heartbeat
    WORKLOADS["ring"].build(system)
    system.run(max_events=200_000)
    assert retired_at and sum(beats) > 0       # heartbeats of retired names
    assert system.stats()["detector"] == {
        "heartbeats_sent": 22, "heartbeats_lost": 8, "suspects": 1, "unsuspects": 0,
        "false_suspicions": 0, "detector_denies": 0, "reconciled_affirms": 0,
    }
    assert tracer.fingerprint() == (
        "95946c72cf5aed771e2232bbea579a62093ff584eaf1a203c91e6e45174d4d13"
    )
