"""Basic HOPE runtime behaviour: spawn, compute, messaging, effects."""

import pytest

from repro.core import AidStatus, HopeError
from repro.runtime import (
    AidHandle,
    HopeSystem,
    ReceivedMessage,
)
from repro.sim import ConstantLatency, TIMED_OUT, Tracer


def test_compute_advances_time_and_returns_result():
    system = HopeSystem()

    def body(p):
        yield p.compute(3.0)
        now = yield p.now()
        return now

    system.spawn("p", body)
    system.run()
    assert system.result_of("p") == 3.0


def test_spawn_duplicate_name_rejected():
    system = HopeSystem()

    def body(p):
        yield p.compute(1.0)

    system.spawn("p", body)
    with pytest.raises(HopeError):
        system.spawn("p", body)


def test_send_recv_roundtrip_with_latency():
    system = HopeSystem(latency=ConstantLatency(2.0))
    got = []

    def sender(p):
        yield p.compute(1.0)
        yield p.send("receiver", "ping")

    def receiver(p):
        msg = yield p.recv()
        got.append((msg.payload, msg.src))
        now = yield p.now()
        got.append(now)

    system.spawn("sender", sender)
    system.spawn("receiver", receiver)
    system.run()
    assert got == [("ping", "sender"), 3.0]


def test_recv_timeout():
    system = HopeSystem()
    got = []

    def lonely(p):
        msg = yield p.recv(timeout=4.0)
        got.append(msg)

    system.spawn("lonely", lonely)
    system.run()
    assert got == [TIMED_OUT]


def test_definite_send_carries_no_tags():
    system = HopeSystem()

    def sender(p):
        yield p.send("rx", "plain")

    def rx(p):
        yield p.recv()

    system.spawn("sender", sender)
    system.spawn("rx", rx)
    system.run()
    assert system.network.tag_count_total == 0


def test_speculative_send_is_tagged_with_its_ido_keys():
    """A send's tag set is the keys of the sender's IDO: the receiver
    takes on exactly the sender's dependencies (§3)."""
    system = HopeSystem()
    taken = []

    def sender(p):
        for name in ("x", "y"):
            yield p.guess((yield p.aid_init(name)))
        yield p.send("rx", "spec")

    def rx(p):
        yield p.recv()
        taken.append(sorted(a.key for a in system.machine.process("rx").current.ido))

    system.spawn("sender", sender)
    system.spawn("rx", rx)
    system.run()
    assert taken == [["x#1", "y#2"]]
    assert system.network.tag_count_total == 2


def test_aid_init_returns_handle():
    system = HopeSystem()
    handles = []

    def body(p):
        x = yield p.aid_init("my-assumption")
        handles.append(x)

    system.spawn("p", body)
    system.run()
    [x] = handles
    assert isinstance(x, AidHandle)
    assert x.name == "my-assumption"
    assert system.aid_status(x) is AidStatus.PENDING


def test_random_effect_draws_from_process_stream():
    values = {}

    def body(p):
        draws = []
        for _ in range(3):
            draws.append((yield p.random()))
        values[p.name] = draws

    s1 = HopeSystem(seed=5)
    s1.spawn("a", body)
    s1.spawn("b", body)
    s1.run()
    run1 = dict(values)
    values.clear()
    s2 = HopeSystem(seed=5)
    s2.spawn("a", body)
    s2.spawn("b", body)
    s2.run()
    assert values == run1                     # deterministic per seed
    assert run1["a"] != run1["b"]             # independent per process


def test_non_hope_effect_rejected():
    from repro.sim import Timeout

    system = HopeSystem()

    def body(p):
        yield Timeout(1.0)

    system.spawn("p", body)
    with pytest.raises(HopeError):
        system.run()


def test_result_of_unfinished_process_raises():
    system = HopeSystem()

    def body(p):
        yield p.recv()  # waits forever

    system.spawn("p", body)
    system.run()
    with pytest.raises(HopeError):
        system.result_of("p")


def test_tracer_integration():
    tracer = Tracer()
    system = HopeSystem(trace=tracer)

    def body(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.affirm(x)

    system.spawn("p", body)
    system.run()
    categories = {r.category for r in tracer.records}
    assert {"spawn", "aid_init", "guess", "affirm", "exit"} <= categories


def test_same_tick_sends_share_one_delivery_event():
    """Same-tick coalescing: a hub's broadcast to 16 peers, all sent in
    one tick, rides one delivery event, so the whole 20-round exchange
    schedules at most half an event per message (one each without it)."""
    system = HopeSystem(latency=ConstantLatency(1.0))
    peers = [f"w{i}" for i in range(16)]

    def hub(p):
        for r in range(20):
            for peer in peers:
                yield p.send(peer, r)
            for _ in peers:
                yield p.recv()

    def leaf(p):
        for _ in range(20):
            msg = yield p.recv()
            yield p.send("hub", msg.payload)

    system.spawn("hub", hub)
    for name in peers:
        system.spawn(name, leaf)
    system.run()
    stats = system.stats()
    assert stats["messages_sent"] == 2 * 16 * 20
    assert stats["sim_events"] <= 0.5 * stats["messages_sent"]
