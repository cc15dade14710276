"""Output-commit discipline: p.emit under speculation, rollback, replay."""

from hypothesis import given, settings, strategies as st

from repro.runtime import HopeSystem
from repro.sim import ConstantLatency
from repro.verify.invariants import LedgerMonitor

from ..footprint import NEVER, budget, committed_output


def _verify(decision):
    def verifier(p):
        msg = yield p.recv()
        yield p.compute(2.0)
        if decision == "affirm":
            yield p.affirm(msg.payload)
        else:
            yield p.deny(msg.payload)

    return verifier


def _worker(p):
    yield p.emit("definite-before")
    x = yield p.aid_init("x")
    yield p.send("verifier", x)
    if (yield p.guess(x)):
        yield p.emit("speculative")
        yield p.compute(5.0)
    else:
        yield p.emit("pessimistic")
    yield p.emit("after")


def test_emits_withdrawn_on_rollback():
    system = HopeSystem()
    system.spawn("worker", _worker)
    system.spawn("verifier", _verify("deny"))
    system.run()
    assert system.outputs("worker") == ["definite-before", "pessimistic", "after"]
    assert system.committed_outputs("worker") == system.outputs("worker")


def test_emits_committed_on_affirm():
    system = HopeSystem()
    system.spawn("worker", _worker)
    system.spawn("verifier", _verify("affirm"))
    system.run()
    assert system.outputs("worker") == ["definite-before", "speculative", "after"]
    assert system.committed_outputs("worker") == system.outputs("worker")


def test_speculative_emit_not_committed_while_pending():
    system = HopeSystem()

    def worker(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.emit("maybe")
        yield p.compute(1.0)

    system.spawn("worker", worker)
    system.run()
    assert system.outputs("worker") == ["maybe"]
    assert system.committed_outputs("worker") == []


def test_replay_does_not_duplicate_emits():
    system = HopeSystem()

    def worker(p):
        yield p.emit("pre")                  # in the replayed prefix
        x = yield p.aid_init("x")
        y = yield p.aid_init("y")
        yield p.send("judge", (x, y))
        yield p.guess(x)
        yield p.guess(y)
        yield p.compute(1.0)
        yield p.emit("tail")

    def judge(p):
        msg = yield p.recv()
        x, y = msg.payload
        yield p.compute(2.0)
        yield p.deny(y)
        yield p.compute(2.0)
        yield p.affirm(x)

    system.spawn("worker", worker)
    system.spawn("judge", judge)
    system.run()
    assert system.outputs("worker") == ["pre", "tail"]
    assert system.committed_outputs("worker") == ["pre", "tail"]


# ----------------------------------------------------------------------
# the commit watermark: values behind it, records above it
# ----------------------------------------------------------------------
def _scripted(p, ops, resume=None):
    """Runs ``ops`` in order; deterministic, and restartable from any
    commit point (the ``resume=`` contract)."""
    state = resume if resume is not None else {"pos": 0}
    while state["pos"] < len(ops):
        pos = state["pos"]
        op = ops[pos]
        state["pos"] = pos + 1
        if op[0] == "emit":
            yield p.emit(("emit", pos))
        elif op[0] == "guess":
            x = yield p.aid_init("x")
            yield p.send("judge", (x, op[1], op[2]))
            ok = yield p.guess(x)
            yield p.emit(("guess", pos, ok))
        elif op[0] == "compute":
            yield p.compute(op[1])
        else:
            yield p.commit_point(dict(state))


def _scripted_judge(p):
    while True:
        x, ok, delay = (yield p.recv()).payload
        yield p.compute(delay)
        if ok:
            yield p.affirm(x)
        else:
            yield p.deny(x)
        yield p.emit(("judged", ok))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("emit")),
        st.tuples(st.just("guess"), st.booleans(), st.sampled_from([0.0, 0.5, 2.5, 6.0])),
        st.tuples(st.just("compute"), st.sampled_from([0.5, 1.0, 3.0])),
        st.tuples(st.just("commit")),
    ),
    min_size=1,
    max_size=30,
)


def _run_scripted(ops, fossil_interval, pass_every, crash_at):
    """Steps the pair event by event: an extra pass every ``pass_every``
    steps (0: none), and at step ``crash_at`` (0: never; else if the
    worker is still running) a crash and an immediate restart.  After
    every step, a process's ``committed`` only ever grows; after every
    pass, no record in ``outputs`` lies below the frontier (settling
    again passes none)."""
    system = HopeSystem(
        seed=7, latency=ConstantLatency(1.0), fossil_interval=fossil_interval,
    )
    system.spawn("judge", _scripted_judge)
    system.spawn("worker", _scripted, tuple(ops))
    monitor = LedgerMonitor(system)

    apply_rollback = system.machine.on_rollback

    def checked_rollback(interval, discarded, cause):
        proc = system.procs[interval.pid]
        cut = interval.ps.log_index
        want = [r for r in proc.outputs if r.log_index < cut]   # the old filter
        apply_rollback(interval, discarded, cause)
        assert list(proc.outputs) == want

    run_pass = system._run_fossil_collection

    def checked_pass():
        run_pass()
        for proc in system.procs.values():
            assert system._settle_frontier(proc)[2] == ()

    system.machine.on_rollback = checked_rollback
    system._run_fossil_collection = checked_pass
    seen = {name: [] for name in system.procs}
    steps = 0
    while system.sim.step():
        steps += 1
        if steps == crash_at and not system.is_done("worker"):
            system.crash_process("worker")
            system.restart_process("worker")
        if pass_every and steps % pass_every == 0:
            system._run_fossil_collection()     # between events: quiescent
        for name, proc in system.procs.items():
            committed = list(proc.committed)
            assert committed[:len(seen[name])] == seen[name]
            seen[name] = committed
            positions = [r.log_index for r in proc.outputs]
            assert positions == sorted(positions)
    monitor.assert_monotone()
    system.machine.check_invariants()
    return system


@settings(max_examples=150, deadline=None)
@given(_OPS, st.integers(1, 5), st.integers(0, 7), st.integers(0, 40))
def test_suffix_withdrawal_matches_the_filter_and_the_watermark_is_sound(
    ops, fossil_interval, pass_every, crash_at
):
    collected = _run_scripted(ops, fossil_interval, pass_every, crash_at)
    # Stepped, never run(): at NEVER no pass runs at all
    plain = _run_scripted(ops, NEVER, 0, crash_at)
    if not crash_at:                                    # no pass, no watermark
        assert plain.procs["worker"].committed == ()
    for name in ("worker", "judge"):
        assert collected.outputs(name) == plain.outputs(name)
        assert collected.committed_outputs(name) == plain.committed_outputs(name)


def test_crash_keeps_committed_outputs_out_of_later_rollbacks():
    """After a crash the log restarts at 0, so surviving (committed)
    outputs carry positions from the old log; a rollback in the new
    incarnation must not judge them by those (the whole-list filter did,
    and withdrew them)."""
    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("verifier", x)
        ok = yield p.guess(x)               # log position 2, both incarnations
        for i in range(3):
            yield p.emit((ok, i))
        yield p.compute(10.0)

    def verifier(p):
        yield p.affirm((yield p.recv()).payload)
        x = (yield p.recv()).payload
        yield p.compute(2.0)
        yield p.deny(x)

    system = HopeSystem()
    system.spawn("worker", worker)
    system.spawn("verifier", verifier)
    system.run(until=5.0)
    first = [(True, i) for i in range(3)]
    assert system.committed_outputs("worker") == first
    system.crash_process("worker")
    proc = system.procs["worker"]
    assert proc.committed == first and proc.outputs == ()
    system.restart_process("worker")
    system.run()
    assert system.committed_outputs("worker") == first + [(False, i) for i in range(3)]


# ----------------------------------------------------------------------
# what a committed emit costs
# ----------------------------------------------------------------------
def test_a_committed_emit_costs_a_list_slot():
    system, traced, blocks = committed_output()
    assert "emitter" not in system.procs        # retired: its log went too
    committed = system.committed_outputs("emitter")
    assert system.outputs("emitter") == committed and len(committed) == 4 * 2000
    max_bytes, max_blocks = budget("committed output")
    assert traced <= max_bytes
    assert blocks <= max_blocks
