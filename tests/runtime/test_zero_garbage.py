"""Zero-garbage oracle: a run leaves nothing for the cycle collector.

A rolled-back or crashed incarnation used to die as a ring
(``Task ↔ TaskEnv ↔ generator``, a recv bridge and its waiter pointing
back at it), reclaimable only by a full collection.  The runtime now
unlinks an incarnation where it kills it — a task blocked in ``recv`` is
its own mailbox waiter and kill cleanup, and the kill takes it off the
mailbox and cancels its timer — so everything it drops is freed by
reference counting, which is what lets ``Simulator.run`` hold full
collections off without growing the heap.

A process that returns is let go the same way: its finished task and its
log when a pass retires it.

Each case runs with the collector disabled and the system kept alive,
then collects once: whatever the collector finds unreachable was cyclic
garbage the run made.
"""

import gc
from collections import Counter

import pytest

import repro.apps.call_streaming as cs
from repro.bench.workloads import build_chaos_mesh, build_chaos_ring
from repro.chaos import standard_plans
from repro.runtime import HopeSystem
from repro.sim import TIMED_OUT, ConstantLatency
from repro.sim.channel import _UNUSED


def _cyclic_garbage(run) -> Counter:
    """Type names of the objects only the cycle collector could free
    after ``run()`` (whose return value — the system — stays referenced)."""
    gc.collect()                    # earlier tests' debris is not ours
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # unreachable objects land in gc.garbage
    try:
        keep = run()                # noqa: F841 - the system must outlive the collect
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _run(build, seed=0, **options):
    def run():
        system = HopeSystem(seed=seed, latency=ConstantLatency(1.0), **options)
        build(system)
        system.run(max_events=200_000)
        assert system.stats()["rollbacks"] > 0      # there was debris to free
        return system

    return run


#: ``plain`` is a default system (a pass every 64 finalizes), ``fossil``
#: one that collects after every 4: every system collects.
@pytest.mark.parametrize(
    "options",
    [{}, {"fossil_interval": 4}],
    ids=["plain", "fossil"],
)
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("build", [build_chaos_mesh, build_chaos_ring])
def test_chaos_workloads_leave_no_cycles(build, seed, options):
    assert not _cyclic_garbage(_run(build, seed, **options))


def test_faulty_reliable_run_leaves_no_cycles():
    """Drop + duplicate + reorder + jitter under acks and retries: timed
    recvs, retransmission timers and retracted duplicates all die clean."""
    plan = standard_plans("mesh")["storm"]
    assert not _cyclic_garbage(_run(build_chaos_mesh, 2, faults=plan, reliable=True))


@pytest.mark.parametrize("pattern", ["page-breaks", "order-races"])
def test_call_streaming_with_failures_leaves_no_cycles(pattern):
    n = 48
    breaks = range(5, n, 6) if pattern == "page-breaks" else range(7, n, 8)
    overrides = dict(
        report_lines=tuple(1001 if i in breaks else 1 + i % 4 for i in range(n))
    )
    if pattern == "order-races":
        overrides.update(
            summary_prep_per_report=tuple(0.0 if i % 3 == 0 else 2.0 for i in range(n)),
            wart_latency=3.0,
        )
    config = cs.CallStreamConfig(page_size=1000, latency=10.0, n_warts=3, **overrides)

    def run():
        system = cs._build_system(config, 1, None)
        cs._spawn_optimistic(system, config)
        system.run()
        assert system.stats()["rollbacks"] > 0
        return system

    assert not _cyclic_garbage(run)


def test_deny_cascade_tree_leaves_no_cycles():
    """A denied root takes a relay chain down with it — including relays
    that had already *finished* speculatively, whose done tasks are
    replaced without ever being killed."""
    depth = 6

    def root(p, judge, first):
        x = yield p.aid_init("tree")
        yield p.send(judge, x)
        ok = yield p.guess(x)
        yield p.send(first, ("work", ok))
        yield p.emit(("root", ok))

    def relay(p, nxt):
        msg = yield p.recv()
        yield p.compute(1.0)
        if nxt is not None:
            yield p.send(nxt, msg.payload)
        yield p.emit((p.name, msg.payload))

    def judge(p):
        x = (yield p.recv()).payload
        yield p.compute(depth * 3.0)        # the whole chain finishes first
        yield p.deny(x)

    def build(system):
        system.spawn("judge", judge)
        for i in range(depth):
            system.spawn(f"r{i}", relay, f"r{i + 1}" if i + 1 < depth else None)
        system.spawn("root", root, "judge", "r0")

    def run():
        system = _run(build)()
        assert system.stats()["rollbacks"] == depth + 1
        assert system.committed_outputs(f"r{depth - 1}") == [
            (f"r{depth - 1}", ("work", False))
        ]
        return system

    assert not _cyclic_garbage(run)


def test_retired_processes_leave_no_cycles():
    """Short-lived children spawned in waves, each judged once (every
    third denied) and gone: a pass promotes each exit to the process's
    last commit point, and what that lets go of — the log, the finished
    task, the handles — is freed by reference counting alone."""
    waves, width = 6, 6

    def child(p, judge, index):
        x = yield p.aid_init("child")
        yield p.send(judge, (x, index))
        ok = yield p.guess(x)
        yield p.compute(1.0 if ok else 2.0)
        yield p.emit((p.name, ok))
        return ok

    def judge(p):
        for _ in range(width):
            x, index = (yield p.recv()).payload
            yield p.compute(0.5)
            if index % 3:
                yield p.affirm(x)
            else:
                yield p.deny(x)

    def driver(p):
        for wave in range(waves):
            yield p.spawn(f"j{wave}", judge)
            for i in range(width):
                yield p.spawn(f"c{wave}.{i}", child, f"j{wave}", i)
            yield p.compute(10.0)

    def run():
        system = HopeSystem(latency=ConstantLatency(1.0), fossil_interval=2)
        system.spawn("driver", driver)
        system.run()
        stats = system.stats()
        assert stats["rollbacks"] == 2 * waves
        assert stats["processes_retired"] >= (waves - 1) * (width + 1)
        return system

    assert not _cyclic_garbage(run)


def test_crash_and_restart_leave_no_cycles():
    def worker(p, verifier):
        for i in range(3):
            x = yield p.aid_init(f"x{i}")
            yield p.send(verifier, x)
            ok = yield p.guess(x)
            yield p.emit((ok, i))
        yield p.recv()                      # blocks: crashed while waiting

    def verifier(p):
        for _ in range(6):
            yield p.affirm((yield p.recv()).payload)

    def run():
        system = HopeSystem(latency=ConstantLatency(1.0))
        system.spawn("worker", worker, "verifier")
        system.spawn("verifier", verifier)
        system.run(until=20.0)
        system.crash_process("worker")
        system.restart_process("worker")
        system.run(until=40.0)
        assert system.committed_outputs("worker") == [(True, i) for i in range(3)] * 2
        return system

    assert not _cyclic_garbage(run)


def _blocked_guesser(p, judge, timeout):
    x = yield p.aid_init("x")
    yield p.send(judge, x)
    yield p.guess(x)
    while True:
        msg = yield p.recv(timeout=timeout)
        if msg is not TIMED_OUT:
            yield p.emit(msg.payload)


def _denier(p):
    while True:
        x = (yield p.recv()).payload
        yield p.compute(5.0)
        yield p.deny(x)


def _late_sender(p):
    yield p.compute(20.0)
    yield p.send("rx", "next")


@pytest.mark.parametrize("ending", ["deny", "crash"])
@pytest.mark.parametrize("timeout", [None, 50.0], ids=["untimed", "timed"])
def test_an_incarnation_killed_in_recv_leaves_no_waiter(timeout, ending):
    """A process blocked in ``recv`` (its task is the mailbox's lone
    waiter, and a timed recv's timer its pending event) is rolled back by
    a deny or crashed: the dead task leaves the mailbox, its timer is
    cancelled, nothing of it waits for the collector, and the next
    incarnation receives the next message exactly once."""

    def run():
        system = HopeSystem(latency=ConstantLatency(1.0))
        rx = system.spawn("rx", _blocked_guesser, "judge", timeout)
        system.spawn("judge", _denier)
        system.spawn("tx", _late_sender)
        system.run(until=4.0)               # rx blocked, the deny not yet made
        old, box = rx.task, rx.mailbox
        timer = old._pending
        assert box._waiters is old and (timer is None) == (timeout is None)
        if ending == "deny":
            system.run(until=8.0)
            assert system.stats()["rollbacks"] == 1
            assert rx.task is not old and box._waiters is rx.task
        else:
            system.crash_process("rx")
            assert box._waiters is _UNUSED
            system.restart_process("rx")
        assert old.state == "killed" and old._pending is None and old._cleanup is None
        assert timer is None or timer.cancelled
        del old, timer
        system.run(until=40.0)
        assert system.committed_outputs("rx") == ["next"]
        assert system.stats()["rollbacks"] >= 1
        # Blocked again, alone; the served recv's timer went with it.
        timers = [event for event in system.sim._heap
                  if not event.cancelled and event.label.startswith("recv-timeout")]
        assert box._waiters is rx.task and timers == ([rx.task._pending] if timeout else [])
        return system

    assert not _cyclic_garbage(run)
