"""Experiment TRACK: the cost of automatic dependency tracking.

§7: "the implementation never forces a user process to wait for a HOPE
dependency tracking message before proceeding."  A 2×N ping-pong's
virtual makespan is identical bare (no HOPE), definite (HOPE, no
speculation) and fully speculative (every message tagged): tracking
costs the user process zero blocking.

The mechanical half of the measurement is not in the table: the call
table (``tests/costs.py``, checked in tier-1) counts the ``repro`` calls
of these two bodies at 200 messages, and its ``TRACK: HOPE ÷ bare
calls`` row is their ratio.
"""

import time

from repro.bench import format_table, sweep
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Network, Recv, Simulator, Task

from . import check_table

N_MESSAGES = [50, 100, 200]

#: What the n=200 ping-pong scheduled before batched effect dispatch,
#: when every message resumed its receiver with an event of its own.
PRE_BATCHING_HOPE_EVENTS = 802


def bare_pingpong(n: int) -> dict:
    """The same message pattern on the raw simulator (no HOPE at all)."""
    sim = Simulator()
    net = Network(sim, ConstantLatency(1.0))
    net.register("a")
    net.register("b")

    def side(env, me, peer, starts):
        box = net.mailbox(me)
        if starts:
            net.send(me, peer, 0)
        for _ in range(n):
            msg = yield Recv(box)
            if msg.payload + 1 < 2 * n:
                net.send(me, peer, msg.payload + 1)

    Task(sim, "a", side, "a", "b", True).start()
    Task(sim, "b", side, "b", "a", False).start()
    start = time.perf_counter()
    makespan = sim.run()
    wall = time.perf_counter() - start
    return {"makespan": makespan, "wall_s": wall, "events": sim.events_processed}


def hope_pingpong(n: int, speculative: bool, metrics=None) -> dict:
    system = HopeSystem(latency=ConstantLatency(1.0), metrics=metrics)

    def side(p, me, peer, starts):
        if starts and speculative:
            x = yield p.aid_init("x")
            yield p.guess(x)               # everything below is speculative
        if starts:
            yield p.send(peer, 0)
        for _ in range(n):
            msg = yield p.recv()
            if msg.payload + 1 < 2 * n:
                yield p.send(peer, msg.payload + 1)

    system.spawn("a", side, "a", "b", True)
    system.spawn("b", side, "b", "a", False)
    start = time.perf_counter()
    makespan = system.run(max_events=5_000_000)
    wall = time.perf_counter() - start
    stats = system.stats()
    return {
        "makespan": makespan,
        "wall_s": wall,
        "events": stats["sim_events"],
        "tags": stats["tags_attached"],
    }


def run_point(n: int) -> dict:
    spec = hope_pingpong(n, speculative=True)
    return {
        "bare_makespan": bare_pingpong(n)["makespan"],
        "hope_makespan": hope_pingpong(n, speculative=False)["makespan"],
        "spec_makespan": spec["makespan"],
        "tags_spec": spec["tags"],
    }


def test_tracking_overhead():
    result = sweep("messages", N_MESSAGES, run_point)
    metrics = ["bare_makespan", "hope_makespan", "spec_makespan", "tags_spec"]
    check_table(
        "tracking_overhead",
        format_table(
            "TRACK — dependency tracking never blocks the user process",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    # the §7 property, exactly: tracking costs zero *virtual* time
    assert result.column("bare_makespan") == result.column("hope_makespan")
    assert result.column("hope_makespan") == result.column("spec_makespan")
    # speculative runs really did tag traffic
    assert all(t > 0 for t in result.column("tags_spec"))


def test_batched_dispatch_schedules_no_more_events_than_bare():
    """The n=200 HOPE ping-pong schedules at most half the events that
    per-message resumes cost, and no more than the bare simulator."""
    hope = hope_pingpong(200, speculative=False)["events"]
    assert hope <= PRE_BATCHING_HOPE_EVENTS // 2 + 2
    assert hope <= bare_pingpong(200)["events"]
