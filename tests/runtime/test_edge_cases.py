"""Runtime edge cases: double rollbacks, timeouts under speculation,
denial racing delivery, crashes of speculative processes."""

import pytest

from repro.runtime import HopeSystem
from repro.sim import TIMED_OUT, ConstantLatency


def test_two_rollbacks_of_same_process_in_one_cascade():
    """An outer deny arriving after an inner deny must truncate deeper."""
    system = HopeSystem()
    trail = []

    def worker(p):
        x = yield p.aid_init("x")
        y = yield p.aid_init("y")
        yield p.send("judge", (x, y))
        gx = yield p.guess(x)
        gy = yield p.guess(y)
        yield p.emit((gx, gy))
        yield p.compute(1.0)

    def judge(p):
        msg = yield p.recv()
        x, y = msg.payload
        yield p.compute(2.0)
        yield p.deny(y)                  # inner rollback
        yield p.compute(2.0)
        yield p.deny(x)                  # deeper rollback of the same worker
        yield p.compute(1.0)

    proc = system.spawn("worker", worker)  # (kept: it retires at quiescence)
    system.spawn("judge", judge)
    system.run()
    assert system.committed_outputs("worker") == [(False, False)]
    assert proc.restarts == 2


class _Boom(Exception):
    pass


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
def test_a_body_that_raises_leaves_the_rest_of_its_batch_queued(batching):
    """Starts due at one instant share one event, and so do deliveries at
    one latency.  A body that raises inside either batch makes ``run()``
    raise and leaves the work after it queued at the batch's key, so the
    next ``run()`` goes on where separate events would have: ``b`` still
    starts, and still receives the message sent after the one that
    killed ``a``.  (A raising delivery used to lose the rest of its
    sweep: ``b`` never received and nothing was pending.)"""
    system = HopeSystem(latency=ConstantLatency(1.0))
    if not batching:
        system.sim._batching = False
        system.network._can_batch = False

    def early(p):                   # raises at its first step
        raise _Boom("start")
        yield

    def sender(p):
        yield p.send("a", 1)
        yield p.send("b", 2)

    def a(p):
        yield p.recv()
        raise _Boom("delivery")

    def b(p):
        yield p.emit((yield p.recv()).payload)

    for name, body in (("early", early), ("sender", sender), ("a", a), ("b", b)):
        system.spawn(name, body)
    with pytest.raises(_Boom, match="start"):
        system.run()
    assert system.sim.pending_events == (1 if batching else 3)
    with pytest.raises(_Boom, match="delivery"):
        system.run()
    assert system.sim.pending_events == 1
    system.run()
    assert system.committed_outputs("b") == [2]
    assert system.sim.pending_events == 0
    assert system.stats()["sim_events"] == (4 if batching else 6)


def test_deny_while_victim_mid_compute():
    """The pending compute timer of the old incarnation must be cancelled."""
    system = HopeSystem()

    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            yield p.compute(100.0)       # still computing when denied
            yield p.emit("never")
        yield p.emit("done")

    def judge(p):
        msg = yield p.recv()
        yield p.compute(1.0)
        yield p.deny(msg.payload)

    system.spawn("worker", worker)
    system.spawn("judge", judge)
    final = system.run()
    assert system.committed_outputs("worker") == ["done"]
    # the 100-unit speculative compute must not stretch the makespan
    assert final < 50.0


def test_recv_timeout_inside_speculation_is_replayable():
    system = HopeSystem()
    seen = []

    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            msg = yield p.recv(timeout=2.0)     # nobody writes: times out
            seen.append(("spec", msg))
            yield p.compute(10.0)
        else:
            msg = yield p.recv(timeout=2.0)
            seen.append(("def", msg))

    def judge(p):
        msg = yield p.recv()
        yield p.compute(5.0)
        yield p.deny(msg.payload)

    system.spawn("worker", worker)
    system.spawn("judge", judge)
    system.run()
    assert seen == [("spec", TIMED_OUT), ("def", TIMED_OUT)]


def test_crash_of_speculative_process_releases_machine_state():
    system = HopeSystem()

    def worker(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.emit("speculative")
        yield p.compute(100.0)

    system.spawn("worker", worker)
    system.run(until=5.0)
    assert system.outputs("worker") == ["speculative"]
    system.crash_process("worker")
    system.run()
    # the forgotten interval can never commit its output
    assert system.outputs("worker") == []
    record = system.machine.process("worker")
    assert record.current is None
    assert record.speculative == set()
    system.machine.check_invariants()


def test_restart_after_crash_reruns_from_scratch():
    system = HopeSystem()
    runs = []

    def worker(p):
        runs.append("incarnation")
        yield p.compute(3.0)
        yield p.emit("finished")

    system.spawn("worker", worker)
    system.run(until=1.0)
    system.crash_process("worker")
    system.restart_process("worker")
    system.run()
    assert runs == ["incarnation", "incarnation"]
    assert system.committed_outputs("worker") == ["finished"]


def test_restart_without_crash_rejected():
    from repro.core import HopeError

    system = HopeSystem()
    system.spawn("worker", lambda p: iter(()))
    with pytest.raises(HopeError):
        system.restart_process("worker")


def test_denial_races_inflight_delivery():
    """A message delivered in the same instant its tag is denied must be
    dropped, not processed."""
    system = HopeSystem(latency=ConstantLatency(3.0))
    got = []

    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("judge", x)        # arrives t=3
        if (yield p.guess(x)):
            yield p.send("sink", "spec")  # in flight t=0..3
        yield p.compute(1.0)

    def judge(p):
        msg = yield p.recv()
        yield p.deny(msg.payload)       # t=3: retraction races delivery

    def sink(p):
        msg = yield p.recv(timeout=30.0)
        got.append(msg)

    system.spawn("worker", worker)
    system.spawn("judge", judge)
    system.spawn("sink", sink)
    system.run()
    assert got == [TIMED_OUT]


def test_guess_by_key_string():
    """AIDs travel as plain keys through messages and still resolve."""
    system = HopeSystem()

    def a(p):
        x = yield p.aid_init("x")
        yield p.send("b", x.key)         # raw string key
        yield p.guess(x)
        yield p.compute(1.0)

    def b(p):
        msg = yield p.recv()
        yield p.affirm(msg.payload)      # affirm by key

    system.spawn("a", a)
    system.spawn("b", b)
    system.run()
    # the one AID, affirmed (and retired by the pass the run owes)
    stats = system.stats()
    assert (stats["aids_affirmed"], stats["aids_denied"], stats["aids_pending"]) == (1, 0, 0)


def test_emit_depth_under_nested_speculation_commits_progressively():
    system = HopeSystem()

    def worker(p):
        x = yield p.aid_init("x")
        y = yield p.aid_init("y")
        yield p.send("judge", (x, y))
        yield p.guess(x)
        yield p.emit("after-x")
        yield p.guess(y)
        yield p.emit("after-y")
        yield p.compute(1.0)

    def judge(p):
        msg = yield p.recv()
        x, y = msg.payload
        yield p.compute(1.0)
        yield p.affirm(x)
        snapshots.append(list(outputs()))
        yield p.compute(1.0)
        yield p.affirm(y)

    snapshots = []
    system.spawn("worker", worker)

    def outputs():
        return system.committed_outputs("worker")

    system.spawn("judge", judge)
    system.run()
    # after affirm(x) only the x-level emit was committed
    assert snapshots == [["after-x"]]
    assert outputs() == ["after-x", "after-y"]
