"""Tests for task coroutines and the effect trampoline."""

import pytest

from repro.sim import (
    TIMED_OUT,
    Fork,
    GetTime,
    Halt,
    Network,
    Recv,
    Simulator,
    Task,
    TaskKilled,
    Timeout,
    UnknownEffectError,
)


def test_timeout_advances_virtual_time():
    sim = Simulator()
    times = []

    def body(env):
        times.append(env.now)
        yield Timeout(2.5)
        times.append(env.now)

    Task(sim, "t", body).start()
    sim.run()
    assert times == [0.0, 2.5]


def test_task_return_value_recorded():
    sim = Simulator()

    def body(env):
        yield Timeout(1.0)
        return 42

    task = Task(sim, "t", body).start()
    sim.run()
    assert task.done
    assert task.result == 42


def test_get_time_effect():
    sim = Simulator()
    seen = []

    def body(env):
        yield Timeout(3.0)
        now = yield GetTime()
        seen.append(now)

    Task(sim, "t", body).start()
    sim.run()
    assert seen == [3.0]


def test_recv_blocks_until_message():
    sim = Simulator()
    net = Network(sim)
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box)
        got.append((env.now, msg.payload))

    def sender(env):
        yield Timeout(5.0)
        net.send("tx", "rx", "hello")

    Task(sim, "rx", receiver).start()
    Task(sim, "tx", sender).start()
    sim.run()
    assert got == [(5.0, "hello")]


def test_recv_timeout_returns_sentinel():
    sim = Simulator()
    net = Network(sim)
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box, timeout=2.0)
        got.append(msg)

    Task(sim, "rx", receiver).start()
    sim.run()
    assert got == [TIMED_OUT]
    assert not got[0]


def test_recv_timeout_cancelled_when_message_wins():
    sim = Simulator()
    net = Network(sim)
    box = net.register("rx")
    got = []

    def receiver(env):
        msg = yield Recv(box, timeout=10.0)
        got.append(msg.payload)

    def sender(env):
        yield Timeout(1.0)
        net.send("tx", "rx", "fast")

    Task(sim, "rx", receiver).start()
    Task(sim, "tx", sender).start()
    sim.run()
    assert got == ["fast"]
    assert sim.now == 1.0  # the 10s timer did not hold the clock


def test_fork_spawns_child():
    sim = Simulator()
    log = []

    def child(env):
        yield Timeout(1.0)
        log.append("child")

    def parent(env):
        yield Fork("kid", child)
        log.append("parent")
        yield Timeout(5.0)

    Task(sim, "parent", parent).start()
    sim.run()
    assert log == ["parent", "child"]


def test_halt_terminates_immediately():
    sim = Simulator()
    log = []

    def body(env):
        log.append("before")
        yield Halt()
        log.append("after")  # pragma: no cover - must not run

    task = Task(sim, "t", body).start()
    sim.run()
    assert log == ["before"]
    assert task.done


def test_kill_while_waiting_runs_taskkilled_handler():
    sim = Simulator()
    witnessed = []

    def body(env):
        try:
            yield Timeout(100.0)
        except TaskKilled:
            witnessed.append("killed")
            raise

    task = Task(sim, "t", body).start()
    sim.schedule(1.0, task.kill)
    sim.run()
    assert witnessed == ["killed"]
    assert task.state == "killed"
    assert sim.now == 1.0


def test_kill_removes_mailbox_waiter():
    sim = Simulator()
    net = Network(sim)
    box = net.register("rx")

    def receiver(env):
        yield Recv(box)

    task = Task(sim, "rx", receiver).start()
    sim.schedule(1.0, task.kill)
    sim.run()
    # a later message must queue, not be handed to the dead task
    net.send("tx", "rx", "late")
    sim.run()
    assert len(box) == 1


def test_unknown_effect_raises():
    sim = Simulator()

    def body(env):
        yield object()

    Task(sim, "t", body).start()
    with pytest.raises(UnknownEffectError):
        sim.run()


def test_task_exception_propagates_and_marks_failed():
    sim = Simulator()

    def body(env):
        yield Timeout(1.0)
        raise ValueError("boom")

    task = Task(sim, "t", body).start()
    with pytest.raises(ValueError):
        sim.run()
    assert task.failed
    assert isinstance(task.error, ValueError)


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "tie-breaker"])
def test_same_instant_starts_share_one_event_in_start_order(batching):
    """Starts due at one instant with nothing scheduled in between ride one
    start batch, which steps them in start order — the order their own
    events would have fired in; a task killed before the batch fires is
    taken out of it, and a batch left empty is cancelled.  Under a
    tie-breaker every start keeps its own event."""
    sim = Simulator() if batching else Simulator(tie_breaker=lambda: 0)
    ran = []

    def body(env):
        ran.append(env.name)
        yield Timeout(1.0)

    tasks = [Task(sim, f"t{i}", body).start() for i in range(4)]
    late = Task(sim, "late", body).start(delay=1.0)  # another instant: own batch
    assert sim.pending_events == (2 if batching else 5)
    tasks[1].kill()
    assert sim.pending_events == (2 if batching else 4)
    sim.run(until=0.0)
    assert ran == ["t0", "t2", "t3"] and sim.events_processed == (1 if batching else 3)
    late.kill()                     # the last task of its batch
    assert sim.pending_events == 3  # the three timeouts
    sim.run()
    assert ran == ["t0", "t2", "t3"] and late.state == "killed"
