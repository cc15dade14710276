"""Tests for mailboxes, message retraction, and the network."""

import pytest

from repro.sim import (
    ConstantLatency,
    Network,
    Recv,
    TIMED_OUT,
    SequenceLatency,
    Simulator,
    Task,
    Timeout,
    UnknownEndpointError,
)
from repro.sim.channel import _UNUSED


def make_net(latency=None):
    sim = Simulator()
    net = Network(sim, latency)
    return sim, net


def test_constant_latency_delays_delivery():
    sim, net = make_net(ConstantLatency(4.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box)
        got.append((env.now, msg.payload))

    Task(sim, "rx", receiver).start()
    net.send("tx", "rx", "pkt")
    sim.run()
    assert got == [(4.0, "pkt")]


def test_fifo_order_for_equal_latency():
    sim, net = make_net(ConstantLatency(1.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        for _ in range(3):
            msg = yield Recv(box)
            got.append(msg.payload)

    Task(sim, "rx", receiver).start()
    for i in range(3):
        net.send("tx", "rx", i)
    sim.run()
    assert got == [0, 1, 2]


def test_sequence_latency_can_reorder_messages():
    """The Figure 2 race: a later send overtakes an earlier one."""
    sim, net = make_net(SequenceLatency([10.0, 1.0]))
    box = net.register("rx")
    got = []

    def receiver(env):
        for _ in range(2):
            msg = yield Recv(box)
            got.append(msg.payload)

    Task(sim, "rx", receiver).start()
    net.send("tx", "rx", "slow")
    net.send("tx", "rx", "fast")
    sim.run()
    assert got == ["fast", "slow"]


def test_retract_before_delivery_drops_message():
    sim, net = make_net(ConstantLatency(5.0))
    box = net.register("rx")
    delivery = net.send("tx", "rx", "doomed")
    delivery.retract()
    sim.run()
    assert len(box) == 0
    assert delivery.message.deliver_time is None


def test_retract_after_delivery_marks_dead_and_queue_drops_it():
    sim, net = make_net(ConstantLatency(1.0))
    box = net.register("rx")
    delivery = net.send("tx", "rx", "doomed")
    sim.run()
    assert len(box) == 1
    delivery.retract()
    assert len(box) == 0


def test_copies_count_what_is_in_flight():
    """``Message.copies``: scheduled and not yet fired or cancelled —
    a sweep rider counts, a retraction after delivery takes nothing."""
    sim, net = make_net(ConstantLatency(1.0))
    net.register("rx")
    first = net.send("tx", "rx", "a")
    rider = net.send("tx", "rx", "b")               # joins first's event
    doomed = net.send("tx", "rx", "c", latency_override=3.0)
    late = net.send("tx", "rx", "d", latency_override=2.0)
    sent = (first, rider, doomed, late)
    assert [d.message.copies for d in sent] == [1, 1, 1, 1]
    doomed.retract()
    assert doomed.message.copies == 0
    sim.run()
    for delivery in sent:
        delivery.retract()
    assert [d.message.copies for d in sent] == [0, 0, 0, 0]


def test_dead_message_not_handed_to_waiter():
    sim, net = make_net(ConstantLatency(2.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box, timeout=10.0)
        got.append(msg)

    Task(sim, "rx", receiver).start()
    delivery = net.send("tx", "rx", "doomed")
    sim.schedule(1.0, delivery.retract)
    sim.run()
    from repro.sim import TIMED_OUT

    assert got == [TIMED_OUT]


def test_predicate_receive_skips_non_matching():
    sim, net = make_net(ConstantLatency(1.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box, predicate=lambda m: m.payload == "reply")
        got.append(msg.payload)

    Task(sim, "rx", receiver).start()
    net.send("tx", "rx", "noise")
    net.send("tx", "rx", "reply")
    sim.run()
    assert got == ["reply"]
    assert [m.payload for m in box.peek_all()] == ["noise"]


def test_requeue_front_preserves_order():
    sim, net = make_net(ConstantLatency(0.0))
    box = net.register("rx")
    net.send("tx", "rx", "c")
    sim.run()
    first = net.send("tx", "rx", "a").message
    second = net.send("tx", "rx", "b").message
    sim.run()
    drained = box.peek_all()
    assert [m.payload for m in drained] == ["c", "a", "b"]
    # simulate un-receiving a and b
    box._queue.clear()
    box.requeue_front([first, second])
    assert [m.payload for m in box.peek_all()] == ["a", "b"]


def test_requeue_front_wakes_waiting_receiver():
    sim, net = make_net(ConstantLatency(0.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box)
        got.append(msg.payload)

    delivery = net.send("tx", "rx", "redelivered")
    sim.run()
    message = box.peek_all()[0]
    box._queue.clear()
    Task(sim, "rx", receiver).start()
    sim.run()
    assert got == []
    box.requeue_front([message])
    sim.run()
    assert got == ["redelivered"]


def test_waiter_slot_holds_a_lone_waiter_and_a_list_only_for_two():
    """The wait slot goes lone -> list -> lone: a second blocked receiver
    makes a list, and serving, removing (a kill) or timing out one of two
    leaves the other waiter itself, in arrival order."""
    sim, net = make_net()
    box = net.register("rx")
    got = []

    def receiver(env, timeout):
        msg = yield Recv(box, timeout=timeout)
        got.append((env.name, env.now, msg if msg is TIMED_OUT else msg.payload))

    def tasks():
        waiters = box._waiters
        return [w.task for w in waiters] if type(waiters) is list else waiters.task

    a = Task(sim, "a", receiver, None).start()
    sim.run()
    assert type(box._waiters) is not list and tasks() is a
    assert "waiters=1" in repr(box)

    b = Task(sim, "b", receiver, 5.0).start()
    sim.run(until=1.0)
    assert tasks() == [a, b] and "waiters=2" in repr(box)
    timer = b._pending                      # a timed recv's timer is its task's
    sim.run(until=6.0)                      # timeout of one of two
    assert got == [("b", 5.0, TIMED_OUT)] and tasks() is a and timer.sim is None

    c = Task(sim, "c", receiver, 9.0).start()
    sim.run(until=7.0)
    assert tasks() == [a, c]
    a.kill()                                # remove one of two
    assert tasks() is c and "waiters=1" in repr(box)

    d = Task(sim, "d", receiver, None).start()
    sim.run(until=8.0)
    assert tasks() == [c, d]
    timer = c._pending
    net.send("tx", "rx", "first")           # serve one of two: the first
    sim.run(until=9.0)
    assert got[-1] == ("c", 8.0, "first") and tasks() is d and timer.cancelled
    net.send("tx", "rx", "second")
    sim.run()
    assert got[-1] == ("d", 9.0, "second")
    assert box._waiters is _UNUSED and "waiters=0" in repr(box)
    assert [name for name, _, _ in got] == ["b", "c", "d"]


def test_unknown_endpoint_raises():
    sim, net = make_net()
    with pytest.raises(UnknownEndpointError):
        net.send("tx", "nowhere", "lost")


def test_tags_travel_with_message():
    sim, net = make_net(ConstantLatency(1.0))
    box = net.register("rx")
    net.send("tx", "rx", "pkt", tags=frozenset({"a#1", "b#2"}))
    sim.run()
    [msg] = box.peek_all()
    assert msg.tags == frozenset({"a#1", "b#2"})
    assert net.tag_count_total == 2


def test_network_statistics():
    sim, net = make_net()
    net.register("rx")
    net.send("tx", "rx", 1)
    net.send("tx", "rx", 2)
    assert net.messages_sent == 2


def test_retract_after_receipt_keeps_message_dead_for_redelivery_checks():
    """The rollback path: a consumed message retracted later must read as
    dead, so a rolled-back receiver refuses to redeliver it."""
    sim, net = make_net(ConstantLatency(1.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box)
        got.append(msg)

    Task(sim, "rx", receiver).start()
    delivery = net.send("tx", "rx", "consumed")
    sim.run()
    assert [m.payload for m in got] == ["consumed"]
    assert not got[0].dead
    delivery.retract()                 # sender rolled back after receipt
    assert got[0].dead
    delivery.retract()                 # idempotent: double retraction is safe
    assert got[0].dead


def test_requeue_front_skips_dead_messages_and_keeps_order():
    """Un-receiving after a rollback: dead messages vanish from the
    requeued batch while live ones land ahead of the queued tail, in
    their original order."""
    sim, net = make_net(ConstantLatency(0.0))
    box = net.register("rx")
    first = net.send("tx", "rx", "a")
    second = net.send("tx", "rx", "b")
    third = net.send("tx", "rx", "c")
    sim.run()
    net.send("tx", "rx", "tail")
    sim.run()
    # un-receive a, b, c; b's sender rolled back in the meantime
    consumed = [first.message, second.message, third.message]
    for message in consumed:
        box._queue.remove(message)
    second.retract()
    box.requeue_front(consumed)
    assert [m.payload for m in box.peek_all()] == ["a", "c", "tail"]


def test_purge_then_requeue_front_of_dead_batch_leaves_box_empty():
    sim, net = make_net(ConstantLatency(0.0))
    box = net.register("rx")
    deliveries = [net.send("tx", "rx", i) for i in range(3)]
    sim.run()
    messages = box.peek_all()
    assert box.purge() == 3
    for delivery in deliveries:
        delivery.retract()
    box.requeue_front(messages)
    assert len(box) == 0
