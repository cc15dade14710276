"""Exit is the last commit point: a process costs what it is doing.

A body that has returned, with every interval it opened finalized, can
never be restored to anything but its result, so a fossil pass promotes
the terminal rebase point ``_on_task_exit`` recorded — by the same steps
a ``commit_point`` promotion takes — and the whole effect log, the
finished ``Task`` and the handles the log pinned go with it.  Pinned
here:

* memory after a run with process churn is flat in the number of
  processes ever spawned, and freed by reference counting;
* every edge keeps its semantics: an exit that is still speculative is
  undone by a deny exactly as before, ``crash_process`` clears the
  terminal point like any rebase, the inspection calls read what they
  read, a retired process is never promoted twice, and a crash or late
  mail traces as on the run that collects only at quiescence;
* a spawned process costs a slot in its start batch, not an event: a
  budget per process spawned and not yet run;
* an idle process costs a record: a budget per process blocked in
  ``recv``, and a never-messaged mailbox owns no container;
* a retired process is a ledger row: a budget per finished process of
  relay waves, no runtime, record, track or mailbox of its own, and mail
  to it — queued or still in flight — pins nothing;
* a finished run holds its results and nothing else: the residue of
  ``footprint.RESIDUE``'s bodies is flat from N to 4N.
"""

import gc
import types
from collections import Counter

import pytest

from repro.runtime import HopeSystem
from repro.runtime.engine import ProcessRuntime, _Incarnation
from repro.runtime.replay import Exited
from repro.sim import ConstantLatency, LinkLatency, Tracer
from repro.sim.channel import _UNUSED, Mailbox, Message
from repro.sim.kernel import Simulator
from repro.verify import standard_scenarios

from ..footprint import (
    DEPTH,
    NEVER,
    RESIDUE,
    RESIDUE_GROWTH,
    budget,
    idle_process,
    idle_system,
    residues,
    retired_process,
    spawned_process,
)

# ------------------------------------------------------------------- churn
_K = 6          # definite effects a child runs before it speculates
_WIDTH = 8      # children per wave (two passes' worth at fossil_interval=4)


def _child(p, judge):
    for _ in range(_K):
        yield p.now()
    x = yield p.aid_init("child")
    yield p.send(judge, x)
    if (yield p.guess(x)):
        yield p.compute(1.0)
    yield p.emit(p.name)
    return p.name


def _wave_judge(p, count):
    for _ in range(count):
        x = (yield p.recv()).payload
        yield p.compute(0.5)
        yield p.affirm(x)
    return count


def _churn(waves):
    """A judge and ``_WIDTH`` children per wave, all short-lived, spawned
    by the host one wave every 8 time units."""
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=4)
    for wave in range(waves):
        judge = f"j{wave}"
        system.sim.schedule_at(8.0 * wave, system.spawn, judge, _wave_judge, _WIDTH)
        for i in range(_WIDTH):
            system.sim.schedule_at(8.0 * wave, system.spawn, f"c{wave}.{i}", _child, judge)
    system.run()
    return system


_WATCHED = (_Incarnation, types.GeneratorType, ProcessRuntime)


def _census() -> Counter:
    return Counter(type(o) for o in gc.get_objects() if type(o) in _WATCHED)


def _left_behind(waves):
    """Instances of the watched types a churn run leaves alive, counted
    with the collector off from before the run to after the count: what
    is gone was freed by reference counting.  Log entries are no objects
    (two column slots each), so they are counted where they are kept."""
    gc.collect()                    # earlier tests' debris is not ours
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _census()
        system = _churn(waves)
        after = _census()
    finally:
        if was_enabled:
            gc.enable()
    left = {kind.__name__: after[kind] - before[kind] for kind in _WATCHED}
    left["LogEntry"] = sum(proc.log.retained for proc in system.procs.values())
    return left, system


def test_memory_is_flat_in_processes_spawned():
    small, s_small = _left_behind(6)
    large, s_large = _left_behind(24)
    spawned = len(s_large.process_names())
    assert spawned == 24 * (_WIDTH + 1) > 3.9 * len(s_small.process_names())
    # Four times the processes, the same residue: none.  A retired process
    # keeps no runtime (PERFORMANCE.md §14).
    assert large == small
    assert large == {"LogEntry": 0, "_Incarnation": 0, "generator": 0, "ProcessRuntime": 0}
    assert not s_large.procs
    stats = s_large.stats()
    assert stats["processes_retired"] == spawned
    assert stats["fossil_log_dropped"] >= 24 * _WIDTH * (_K + 5)
    # ... and the run is the run it was: the closed-form ledger, in which
    # every child commits and returns its name and every judge its count.
    expected = {}
    for wave in range(24):
        expected[f"j{wave}"] = (_WIDTH, [])
        for child in (f"c{wave}.{i}" for i in range(_WIDTH)):
            expected[child] = (child, [child])
    assert {name: (s_large.result_of(name), s_large.committed_outputs(name))
            for name in s_large.process_names()} == expected


# ------------------------------------------------------- semantics at edges
def _guesser(p, judge, tail):
    x = yield p.aid_init("x")
    yield p.send(judge, x)
    ok = yield p.guess(x)
    yield p.emit(("guessed", ok))
    for i in range(tail):
        yield p.emit(("tail", i))
    return ("done", ok)


def _late_judge(p, wait, verdict):
    x = (yield p.recv()).payload
    yield p.compute(wait)
    if verdict:
        yield p.affirm(x)
    else:
        yield p.deny(x)
    return verdict


def _pair(p, peer, rounds, lead):
    """Background speculation: something has to finalize for passes to run."""
    for _ in range(rounds):
        if lead:
            a = yield p.aid_init("bg")
            yield p.send(peer, a)
            if (yield p.guess(a)):
                yield p.compute(1.0)
        else:
            a = (yield p.recv()).payload
            yield p.compute(0.5)
            yield p.affirm(a)
    return rounds


def _edge_system(verdict, *, interval=2, trace=None, wait=20.0):
    system = HopeSystem(seed=2, latency=ConstantLatency(1.0), fossil_interval=interval,
                        trace=trace)
    system.spawn("judge", _late_judge, wait, verdict)
    system.spawn("guesser", _guesser, "judge", 3)
    system.spawn("ping", _pair, "pong", 30, True)
    system.spawn("pong", _pair, "ping", 30, False)
    return system


def _ledger(system):
    return {name: system.committed_outputs(name) for name in system.process_names()}


@pytest.mark.parametrize("verdict", [True, False])
def test_a_speculative_exit_waits_for_its_verdict(verdict):
    """The guesser returns at t≈0 with its interval open; passes run all
    the while.  Nothing retires it until the judge speaks — and a deny
    restarts it from the guess, as it always did."""
    system = _edge_system(verdict)
    system.run(until=15.0)
    guesser = system.procs["guesser"]
    assert guesser.done and guesser.mproc.speculative
    assert system.stats()["fossil_collections"] >= 4
    assert guesser.task is not None and guesser.rebase is None
    assert guesser.log.retained == len(guesser.log) == 7
    assert system.committed_outputs("guesser") == []
    system.run()
    # the closed-form ledger: only the guesser emits, once it is settled
    emitted = [("guessed", verdict), ("tail", 0), ("tail", 1), ("tail", 2)]
    assert _ledger(system) == {"judge": [], "guesser": emitted, "ping": [], "pong": []}
    assert system.result_of("guesser") == ("done", verdict)
    assert guesser.restarts == system.stats()["rollbacks"] == (0 if verdict else 1)
    # settled and committed, it went at the next pass
    assert "guesser" not in system.procs
    assert guesser.task is None and guesser.log.retained == 0
    assert type(guesser.rebase.state) is Exited


def _reads(system, name):
    return (system.result_of(name), system.is_done(name),
            system.committed_outputs(name), system.outputs(name))


def test_a_retired_process_reads_as_it_did_and_is_promoted_once():
    system = _edge_system(True, wait=2.0)
    judge, guesser, ping, pong = system.procs.values()
    system.run(until=12.0)
    assert "guesser" not in system.procs                            # retired
    assert guesser.task is None and guesser.log.retained == 0
    assert len(guesser.log) == guesser.log.base == 7
    assert guesser.rebase_candidates == ()         # the shared empty tuple
    assert system.stats()["processes_retired"] == 2                 # the judge too
    emitted = [("guessed", True), ("tail", 0), ("tail", 1), ("tail", 2)]
    assert _reads(system, "guesser") == (("done", True), True, emitted, emitted)
    # The passes still to come leave it alone: the candidate was
    # consumed, and a log at its base has no prefix.
    stats = system.stats()
    rebase, passes = guesser.rebase, stats["fossil_collections"]
    dropped = stats["fossil_log_dropped"]
    assert dropped == 7 + len(judge.log)            # the guesser's log and the judge's
    system.run()
    stats = system.stats()
    assert stats["fossil_collections"] >= passes + 8
    assert guesser.rebase is rebase
    assert stats["fossil_log_dropped"] - dropped == len(ping.log) + len(pong.log)
    assert _reads(system, "guesser") == (("done", True), True, emitted, emitted)
    # (ping and pong return after the last pass a finalize starts: the one
    # the run owes at quiescence retires them)
    assert stats["processes_retired"] == 4 and not system.procs
    assert stats["fossil_log_dropped"] == 7 + sum(len(p.log) for p in (judge, ping, pong))


def _reporter(p, count):
    for i in range(count):
        yield p.emit(("report", i, (yield p.now())))
    return count


def _crash_run(interval):
    tracer = Tracer()
    system = _edge_system(True, interval=interval, trace=tracer)
    others = list(system.procs.values())
    first = system.spawn("reporter", _reporter, 3)
    system.run(until=12.0)
    retired = "reporter" not in system.procs
    system.crash_process("reporter")
    system.run(until=14.0)
    dropped = system.stats()["fossil_log_dropped"]
    system.restart_process("reporter")
    second = system.procs["reporter"]
    system.run()
    return system, tracer, retired, (first, second, dropped, others)


def test_crash_and_restart_of_a_retired_process_start_from_entry():
    """``crash_process`` clears the terminal point as it clears any rebase:
    the restarted process runs its program again from the top — the same
    trace, event for event, as on the run that retired nothing before the
    crash (its only pass is the one it owes at quiescence)."""
    system, tracer, retired, (first, second, dropped, others) = _crash_run(2)
    twin, twin_tracer, twin_retired, _ = _crash_run(NEVER)
    assert retired and not twin_retired
    assert tracer.fingerprint() == twin_tracer.fingerprint()
    assert _ledger(system) == _ledger(twin)
    assert system.committed_outputs("reporter") == (
        [("report", i, 0.0) for i in range(3)] + [("report", i, 14.0) for i in range(3)]
    )
    assert system.result_of("reporter") == twin.result_of("reporter") == 3
    # once before the crash, and again once the second exit had committed
    # (the crash rebuilt the retired process from its ledger row)
    assert "reporter" not in system.procs and second is not first
    # each life dropped its 6 entries: the first by the crash, and the
    # second among every log, each of which went whole
    assert dropped == len(first.log) == 6
    assert system.stats()["fossil_log_dropped"] - dropped == sum(
        len(proc.log) for proc in (*others, second))
    assert second.task is None and len(second.log) == second.log.base == 6


def _listener(p):
    if (yield p.now()) < 1.0:
        return "early"
    return (yield p.recv()).payload


def _mailer(p, at):
    yield p.compute(at)
    yield p.send("listener", ("mail", at))
    return "mailed"


def _late_mail_run(interval, sent_at, reliable):
    tracer = Tracer()
    slow = LinkLatency({("mailer", "listener"): ConstantLatency(20.0)}, ConstantLatency(1.0))
    system = HopeSystem(seed=2, latency=slow, fossil_interval=interval, reliable=reliable,
                        trace=tracer)
    system.spawn("listener", _listener)
    system.spawn("mailer", _mailer, sent_at)
    system.spawn("ping", _pair, "pong", 30, True)
    system.spawn("pong", _pair, "ping", 30, False)
    system.run(until=12.0)
    retired = "listener" not in system.procs
    system.crash_process("listener")
    system.restart_process("listener")
    system.run()
    return system, tracer, retired


@pytest.mark.parametrize("reliable", [False, True], ids=["plain", "reliable"])
@pytest.mark.parametrize("sent_at", [0.0, 8.0], ids=["in-flight", "sent-while-retired"])
def test_mail_to_a_retired_process_reaches_its_restart(sent_at, reliable):
    """``listener`` exits at t=0 and retires; mail to it sent at t=0 (on
    its way as it retires) or t=8 (to the retired name) lands at t=20 or
    t=28, after a crash and restart at t=12 whose incarnation receives.
    The copy reaches the restarted process exactly as on the run that
    collects only at quiescence, whose mailbox was open all the while."""
    system, tracer, retired = _late_mail_run(2, sent_at, reliable)
    twin, twin_tracer, twin_retired = _late_mail_run(NEVER, sent_at, reliable)
    assert retired and not twin_retired
    assert system.result_of("listener") == twin.result_of("listener") == ("mail", sent_at)
    assert tracer.fingerprint() == twin_tracer.fingerprint()
    assert _ledger(system) == _ledger(twin)
    assert system.stats().get("reliable") == twin.stats().get("reliable")


def test_a_body_that_did_nothing_has_nothing_to_retire():
    def idle(p):
        return "idle"
        yield

    system = _edge_system(True, wait=2.0)
    system.spawn("idle", idle)
    system.run()
    proc = system.procs["idle"]
    assert proc.done and system.result_of("idle") == "idle"
    assert proc.rebase is None and not proc.rebase_candidates and len(proc.log) == 0


# --------------------------------------------------- spawned footprint
def test_spawned_process_footprint_budget():
    system, traced, blocks = spawned_process()
    max_bytes, max_blocks = budget("spawned process")
    assert traced <= max_bytes
    assert blocks <= max_blocks
    assert system.sim.pending_events == 1       # one start batch for all


# --------------------------------------------------------- idle footprint
def test_idle_process_footprint_budget():
    system, traced, blocks = idle_process()
    assert all(proc.task.alive for proc in system.procs.values())
    max_bytes, max_blocks = budget("idle process")
    assert traced <= max_bytes
    assert blocks <= max_blocks


def test_retired_process_footprint_budget():
    system, traced, blocks = retired_process()
    stats = system.stats()
    assert stats["rollbacks"] > 0
    names = system.process_names()
    assert stats["processes_retired"] >= 0.95 * len(names)
    max_bytes, max_blocks = budget("retired process")
    assert traced <= max_bytes
    assert blocks <= max_blocks
    # What it keeps is its ledger row: no runtime, record, track or
    # mailbox of its own (one closed endpoint stands for every name).
    retired = [name for name in names if name not in system.procs]
    assert len(retired) == stats["processes_retired"]
    closed = system.network.mailbox(retired[0])
    for name in retired:
        assert name not in system.machine.processes
        assert system.timeline.row(name) is not None
        assert system.network.mailbox(name) is closed
    assert closed._waiters is _UNUSED and closed._queue is _UNUSED
    assert len(names) == 4 * 60 * (DEPTH + 2)


def test_a_never_messaged_mailbox_owns_no_container():
    box = Mailbox(Simulator(), "idle")
    assert box._queue is _UNUSED and box._waiters is _UNUSED
    assert len(box) == 0 and box.peek_all() == [] and box.purge() == 0
    assert "queued=0 waiters=0" in repr(box)
    # dead on arrival: still nothing to hold
    dead = Message("a", "idle", None, frozenset(), 0.0, 1)
    dead.dead = True
    box.put(dead)
    assert box._queue is _UNUSED
    # the first live message allocates the queue, and it stays
    box.put(Message("a", "idle", "m", frozenset(), 0.0, 2))
    queue = box._queue
    assert [m.payload for m in queue] == ["m"] and box._waiters is _UNUSED
    assert box.purge() == 1 and box._queue is _UNUSED
    # a blocked process owns no container: its task is the lone waiter
    system = idle_system(1)
    proc = system.procs["w0"]
    assert proc.mailbox._queue is _UNUSED and proc.mailbox._waiters is proc.task


# ------------------------------------------------ mail at a retired process
def _quitter(p):
    yield p.compute(0.5)
    return "gone"


def _speaker(p):
    late = (yield p.recv()).payload
    if (yield p.guess(late)):
        yield p.send("quitter", "hello")        # tagged: late is pending
    return "spoke"


def _cycling_judge(p, passes_from):
    late = yield p.aid_init("late")
    yield p.send("speaker", late)
    yield p.compute(passes_from)
    for round_ in range(300):
        if round_ == 150:
            yield p.compute(10.0)
            yield p.affirm(late)
        x = yield p.aid_init("cycle")
        yield p.guess(x)
        yield p.affirm(x)
    return "judged"


@pytest.mark.parametrize("passes_from", [3.0, 1.5], ids=["queued", "in-flight"])
def test_mail_at_a_retired_process_pins_nothing(passes_from):
    """``speaker``'s message tagged with ``late`` lands at t=2 at
    ``quitter``, which exited at t=0.5 and never receives: queued there
    before the passes (from t=3) retire it, or still in flight when they
    do (from t=1.5).  Either way the copy is consumed — at retirement, or
    on arrival — and lets go of its pin, so ``late#1`` retires once
    affirmed.  (While a retired process kept its mailbox, the copy queued
    there kept ``late#1`` in ``machine.aids`` for good.)"""
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=4)
    system.spawn("quitter", _quitter)
    system.spawn("speaker", _speaker)
    system.spawn("judge", _cycling_judge, passes_from)
    system.run()
    assert "late#1" not in system.machine.aids and not system.machine.pins
    assert "quitter" not in system.procs and system.result_of("quitter") == "gone"
    assert system.result_of("speaker") == "spoke"
    assert system.stats()["aids_affirmed"] == 301


def test_procs_holds_live_processes_only():
    system = _edge_system(True, wait=2.0)
    system.run(until=12.0)
    names = system.process_names()
    assert names == ["judge", "guesser", "ping", "pong"]       # spawn order
    assert set(system.procs) == {"ping", "pong"}               # (still running)
    with pytest.raises(KeyError, match="no live process 'guesser'.*result_of"):
        system.procs["guesser"]
    assert system.is_done("guesser") and system.result_of("guesser") == ("done", True)
    with pytest.raises(KeyError):
        system.result_of("nobody")
    system.run()
    assert not system.procs and system.process_names() == names


def test_a_finished_run_holds_its_results_and_nothing_else():
    """The residue property: the bodies of ``stream``, ``steady`` (at two
    draws), ``lossy``, ``pingpong`` and ``cascade``, and a guesser
    ``ahead`` of its judge, at N and 4N (``footprint.RESIDUE``) hold, at
    quiescence and besides their results, as much at 4N as at N — with
    no pass run by hand.  ``cascade`` grows the processes fourfold
    (3.91x while a retired process kept its roles, 1 398 B each); the
    others grow the work per process (``pingpong`` read 3.15x while its
    finished pair kept their logs, ``steady/2`` 1.35x while the DepSet
    table kept the capacity of its largest size, ``ahead`` 9.08x while
    the network kept its last delivery sweep and the AID and pin tables
    the capacity of theirs)."""
    for name in RESIDUE:
        small, large = residues(name)
        assert large <= RESIDUE_GROWTH * small, (name, small, large)


def _leaves(stats, prefix=""):
    """``stats()`` flattened to ``{path: value}``."""
    leaves = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            leaves.update(_leaves(value, f"{prefix}{key}."))
        else:
            leaves[prefix + key] = value
    return leaves


def _scenario_system(scenario):
    system = HopeSystem(seed=0, latency=ConstantLatency(1.0))
    scenario.build(system)
    return system


_SETTLED = [
    *((name, lambda n=n, build=build: build(n)) for name, (n, build) in RESIDUE.items()),
    *((s.name, lambda s=s: _scenario_system(s)) for s in standard_scenarios()),
]


@pytest.mark.parametrize("build", [b for _, b in _SETTLED], ids=[n for n, _ in _SETTLED])
def test_a_run_that_reaches_quiescence_ends_settled(build):
    """The pass a run owes at quiescence leaves nothing for another: one
    more changes no ``stats()`` leaf but its own count, nothing is queued,
    every process still live is one whose exit is not definite, and the
    network holds no delivery, fired or retracted."""
    system = build()
    system.run()
    before = _leaves(system.stats())
    system._run_fossil_collection()
    after = _leaves(system.stats())
    assert {k for k in after if after[k] != before[k]} == {"fossil_collections"}
    assert not system.machine.changed and not system.machine.reclaimable
    assert system.network._open_batch is None
    assert not [name for name, proc in system.procs.items()
                if proc.done and not proc.mproc.speculative]
