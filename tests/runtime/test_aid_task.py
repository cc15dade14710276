"""The AIDMODE experiment's AID-task timing model (§7).

The runtime applies every primitive at once.  §7's prototype ran AIDs as
PVM tasks instead; ``benchmarks/bench_aid_modes.py`` models that by
wrapping one system's machine (:class:`AidTaskTiming`).  These tests pin
the experiment's table cell by cell and the model's behaviour on small
programs: a resolution lands one control hop after it is issued, the
caller never blocks, and a victim keeps computing until the NOTIFY.
"""

import pytest

from benchmarks.bench_aid_modes import CONTROL_LATENCIES, AidTaskTiming, run_latency
from repro.core import RollbackEvent
from repro.runtime import HopeSystem

#: benchmarks/results/aid_modes.txt:
#: (ctl latency, mode, makespan, control_msgs, wasted, rollbacks)
AIDMODE_ROWS = [
    (0.0, "registry", 174.5, 0, 207.0, 10),
    (0.5, "aid_task", 166.0, 186, 170.0, 18),
    (2.0, "aid_task", 179.5, 186, 194.0, 18),
    (5.0, "aid_task", 206.5, 206, 242.0, 18),
    (10.0, "aid_task", 251.5, 206, 322.0, 18),
]


@pytest.mark.parametrize("row", AIDMODE_ROWS, ids=lambda row: f"ctl={row[0]}")
def test_aidmode_rows(row):
    """Every cell of the table; ``run_latency`` asserts the committed
    output equals the pipeline's closed form in every row."""
    assert CONTROL_LATENCIES == [r[0] for r in AIDMODE_ROWS]
    latency, *expected = row
    got = run_latency(latency)
    assert [got["mode"], got["makespan"], got["control_msgs"],
            got["wasted"], got["rollbacks"]] == expected


def _basic_program(decision):
    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("verifier", x)
        if (yield p.guess(x)):
            yield p.emit("optimistic")
            yield p.compute(5.0)
        else:
            yield p.emit("pessimistic")
        yield p.emit("after")

    def verifier(p):
        msg = yield p.recv()
        yield p.compute(2.0)
        if decision == "affirm":
            yield p.affirm(msg.payload)
        else:
            yield p.deny(msg.payload)

    return worker, verifier


def run_mode(decision, control_latency=None):
    """One run on the registry (``None``) or the timing model."""
    system = HopeSystem()
    timing = None
    if control_latency is not None:
        timing = AidTaskTiming(system, control_latency)
    rollbacks = []

    def on_event(event):
        if isinstance(event, RollbackEvent):
            rollbacks.append(system.sim.now)

    system.machine.subscribe(on_event)
    worker, verifier = _basic_program(decision)
    system.spawn("worker", worker)
    system.spawn("verifier", verifier)
    makespan = system.run()
    return system, makespan, timing, rollbacks


@pytest.mark.parametrize("decision", ["affirm", "deny"])
def test_modes_agree_on_committed_outputs(decision):
    reg_sys, *_ = run_mode(decision)
    task_sys, *_ = run_mode(decision, 3.0)
    assert reg_sys.committed_outputs("worker") == task_sys.committed_outputs("worker")
    # x#1, the one AID, settles the same way (and retires at quiescence)
    verdicts = [tuple(system.stats()[f"aids_{status}"] for status in ("affirmed", "denied", "pending"))
                for system in (reg_sys, task_sys)]
    assert verdicts[0] == verdicts[1]


def test_task_mode_delays_resolution():
    """The deny issued at t=2 lands one hop (4) later, and the victim
    restarts one NOTIFY hop after that."""
    _, reg_time, _, reg_rollbacks = run_mode("deny")
    task_sys, task_time, _, task_rollbacks = run_mode("deny", 4.0)
    assert (reg_rollbacks, reg_time) == ([2.0], 2.0)
    assert (task_rollbacks, task_time) == ([6.0], 10.0)
    assert task_sys.committed_outputs("worker") == ["pessimistic", "after"]


def test_task_mode_counts_control_traffic():
    _, makespan, timing, _ = run_mode("affirm", 4.0)
    assert (makespan, timing.messages) == (6.0, 2)     # DEPEND + AFFIRM
    _, _, timing, _ = run_mode("deny", 4.0)
    assert timing.messages == 3                        # DEPEND + DENY + NOTIFY


def test_caller_never_blocks_on_resolution():
    """The §7 property: issuing a resolution costs the caller no time."""
    times = []

    def worker(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        t0 = yield p.now()
        yield p.affirm(x)
        t1 = yield p.now()
        times.append((t0, t1))
        yield p.compute(1.0)

    system = HopeSystem()
    timing = AidTaskTiming(system, 50.0)
    system.spawn("worker", worker)
    assert system.run() == 50.0            # the affirm lands at t=50
    assert times == [(0.0, 0.0)]           # the affirm did not wait
    assert timing.messages == 2


def test_victim_keeps_speculating_until_notified():
    """With a slow control plane the victim piles up wasted work that the
    registry would have cut short: it computes until the deny reaches the
    AID task, and restarts a NOTIFY hop later."""
    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("verifier", x)
        if (yield p.guess(x)):
            for _ in range(20):
                yield p.compute(1.0)       # keeps going while DENY travels

    def verifier(p):
        msg = yield p.recv()
        yield p.compute(2.0)
        yield p.deny(msg.payload)

    def run(latency):
        system = HopeSystem()
        if latency:
            AidTaskTiming(system, latency)
        system.spawn("worker", worker)
        system.spawn("verifier", verifier)
        makespan = system.run()
        return makespan, system.stats()["wasted_time"]

    assert run(0.0) == (2.0, 2.0)
    assert run(4.0) == (10.0, 6.0)
    assert run(10.0) == (22.0, 12.0)
