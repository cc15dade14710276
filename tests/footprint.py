"""One census helper for the footprint budgets: what a piece of work
leaves allocated.

:func:`measure` runs a callable with the cyclic collector off, from
before the call to after the reading, and returns the bytes
``tracemalloc`` traced and the ``sys.getallocatedblocks()`` still
allocated while the result lives: what is gone was freed by reference
counting.  The seven shapes the budgets are set on live here too:

* :func:`spawned_process` — a process spawned and not yet run;
* :func:`idle_process` — a process spawned and blocked in ``recv``;
* :func:`running_round` — one more round of a ``pingpong``-shaped pair
  whose bodies keep running (and so keep their logs);
* :func:`retired_process` — a process of ``cascade``-shaped relay waves
  once it has finished and been retired;
* :func:`committed_output` — one more ``p.emit`` once a pass has
  committed it;
* :func:`acked_send` — one more reliable send once its ack has cancelled
  its retry timer, the dead timer still queued;
* :func:`open_interval` — one more process holding a live speculative
  interval, over the same process blocked without one.

The bytes differ between interpreters, so the budgets are one table,
:data:`BUDGETS`, keyed by shape and ``sys.version_info[:2]``
(:func:`budget`).  The file is also a script that needs neither pytest
nor the test suite: ``PYTHONPATH=src python tests/footprint.py`` prints
the figures the budgets are set from, and ``--markdown`` prints the
budget table as PERFORMANCE.md carries it (a tier-1 test keeps the two
equal), then this interpreter's figures beside its budgets.

:func:`residue` is the finish line the budgets work towards: what a run
holds at quiescence besides its results, which must not grow with the
size of the run; ``--residue`` prints it at N and 4N for each body in
:data:`RESIDUE`, and :func:`fossil_peak` of a pair that never quiesces
at N and 4N events.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import tracemalloc
from typing import Any, Callable, Optional

from repro.core import AssumptionId
from repro.obs import MetricsRegistry
from repro.runtime import HopeSystem, ReliableConfig
from repro.sim import ConstantLatency, FaultPlan, LinkFaults, LinkLatency, Tracer

#: A ``fossil_interval`` no run here reaches: its only pass is the one a
#: run owes at quiescence, so nothing is collected while it runs.
NEVER = 10**9


def measure(run: Callable[[], Any]) -> tuple:
    """``(result, bytes, blocks)``: what ``run()`` left allocated.

    ``tracemalloc`` counts CPython's per-size tuple free list as
    allocated: a tuple freed into it stays traced, and one taken from it
    is not a new allocation.  So a figure can move by tens of bytes when
    an unrelated object's tuple size changes (a 2-tuple event key drained
    the 2-tuple list that fired deliveries had filled: 80 of `acked
    send`'s 112 B drop, PERFORMANCE.md "Census methodology")."""
    gc.collect()                    # earlier work's debris is not ours
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start(1)
    try:
        traced = tracemalloc.get_traced_memory()[0]
        blocks = sys.getallocatedblocks()
        result = run()
        blocks = sys.getallocatedblocks() - blocks
        traced = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return result, traced, blocks


#: ``(bytes, blocks)`` each shape may leave per unit, by interpreter: the
#: figures this script prints, measured + 10 % rounded up (:func:`ceiling`;
#: a tier-1 test fails a looser one), so that a budget fails at the
#: commit before the change that set it.  Each figure's history is in
#: PERFORMANCE.md, beside the section of the change that moved it.
BUDGETS = {
    # a slot in the start batch, the task, runtime, record, track, log
    # and mailbox of a process not yet run (PERFORMANCE §20, §26)
    "spawned process": {
        (3, 10): (1786, 14.2), (3, 11): (1396, 13.1),
        (3, 12): (1378, 13.1), (3, 13): (1378, 13.1),
    },
    # the same, blocked in ``recv``: its task is the mailbox's waiter
    # (§18, §20, §26)
    "idle process": {
        (3, 10): (1901, 17.5), (3, 11): (1510, 16.4),
        (3, 12): (1493, 16.4), (3, 13): (1493, 16.4),
    },
    # eight log entries (two of them receives: a payload and an
    # envelope row each), a committed emit and a handle whose settled
    # AID is the shared verdict (§15, §17, §22, §27)
    "running round": {
        (3, 10): (560, 10.1), (3, 11): (565, 9.9),
        (3, 12): (565, 9.9), (3, 13): (565, 9.9),
    },
    # what a retired process keeps: its ledger row and directory slot,
    # its name and arguments (§14, §20, §24, §29)
    "retired process": {
        (3, 10): (291, 3.8), (3, 11): (278, 3.8),
        (3, 12): (269, 3.8), (3, 13): (269, 3.8),
    },
    # one slot of ``committed`` (§19)
    "committed output": {
        (3, 10): (8.8, 0.1), (3, 11): (8.8, 0.1),
        (3, 12): (8.8, 0.1), (3, 13): (8.8, 0.1),
    },
    # the dead timer's heap tuple and event, two log entries (§21, §27, §28, §32)
    "acked send": {
        (3, 10): (677, 12.1), (3, 11): (692, 12.1),
        (3, 12): (692, 12.1), (3, 13): (692, 12.1),
    },
    # the interval, its pending AID, handle and IDO, two log entries (§21)
    "open interval": {
        (3, 10): (1545, 18.4), (3, 11): (1550, 18.4),
        (3, 12): (1550, 18.4), (3, 13): (1550, 18.4),
    },
}


def budget(shape: str) -> tuple:
    """This interpreter's row of ``BUDGETS[shape]``; a version not in it
    gets the loosest of each column."""
    table = BUDGETS[shape]
    row = table.get(sys.version_info[:2])
    return row if row is not None else tuple(map(max, zip(*table.values())))


def ceiling(measured: float) -> float:
    """The loosest budget a figure allows: measured + 10 %, rounded up to
    whole units from 100 on, else to tenths, and never below 0.1 (a
    figure of a block or two in thousands of units reads as 0)."""
    grown = round(measured * 1.1, 6)            # (no float noise to round up)
    return math.ceil(grown) if grown >= 100 else max(math.ceil(grown * 10) / 10, 0.1)


def budget_markdown() -> str:
    """:data:`BUDGETS` as the Markdown table PERFORMANCE.md carries."""
    versions = sorted({version for table in BUDGETS.values() for version in table})
    lines = [
        "| shape | " + " | ".join("%d.%d" % v for v in versions) + " |",
        "|---|" + "---|" * len(versions),
    ]
    for shape, table in BUDGETS.items():
        cells = (f"{table[v][0]:g} B, {table[v][1]:g} blocks" for v in versions)
        lines.append(f"| {shape} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _per_unit(small: tuple, large: tuple, units: int) -> tuple:
    """Bytes and blocks per unit between two sizes of one shape: the
    constant costs (imports, interned strings, tables) cancel."""
    return (large[1] - small[1]) / units, (large[2] - small[2]) / units


# ---------------------------------------------------- spawned / idle process
def _blocked(p):
    return (yield p.recv()).payload


def spawned_system(count: int) -> HopeSystem:
    system = HopeSystem(seed=1)
    for i in range(count):
        system.spawn(f"w{i}", _blocked)
    return system


def spawned_process(count: int = 2000) -> tuple:
    """``(system, bytes, blocks)`` per process spawned and not yet run."""
    spawned_system(10)              # imports, caches, interned strings
    system, traced, blocks = measure(lambda: spawned_system(count))
    return system, traced / count, blocks / count


def idle_system(count: int) -> HopeSystem:
    system = spawned_system(count)
    system.run()
    return system


def idle_process(count: int = 2000) -> tuple:
    """``(system, bytes, blocks)`` per process blocked in ``recv``."""
    idle_system(10)                 # imports, caches, interned strings
    system, traced, blocks = measure(lambda: idle_system(count))
    return system, traced / count, blocks / count


# ------------------------------------------------------------ running round
ROUNDS = 400


def _ping(p, peer, rounds):
    acc = 0
    for i in range(rounds):
        x = yield p.aid_init("round")
        yield p.guess(x)
        yield p.send(peer, (x, i))
        acc = (acc * 31 + (yield p.recv()).payload) % 1_000_003
        yield p.emit((i, acc))
    last = yield p.aid_init("last")
    yield p.send(peer, (last, None))
    if (yield p.guess(last)):
        yield p.emit("optimistic")
    else:
        yield p.emit("pessimistic")
    yield p.recv()                  # both stay running: nothing retires


def _pong(p, peer, rounds):
    for _ in range(rounds):
        x, payload = (yield p.recv()).payload
        yield p.affirm(x)
        yield p.send(peer, 2 * payload + 1)
    last, _ = (yield p.recv()).payload
    yield p.compute(1.0)
    yield p.deny(last)
    yield p.recv()


def running_pair(rounds: int) -> HopeSystem:
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0))
    system.spawn("pong", _pong, "ping", rounds)
    system.spawn("ping", _ping, "pong", rounds)
    system.run()
    return system


def running_round(rounds: int = ROUNDS) -> tuple:
    """``(system at rounds, system at 4 x rounds, bytes, blocks)`` per round."""
    running_pair(20)                # imports, caches, interned strings
    small = measure(lambda: running_pair(rounds))
    large = measure(lambda: running_pair(4 * rounds))
    return (small[0], large[0], *_per_unit(small, large, 3 * rounds))


# ---------------------------------------------------------- retired process
DEPTH = 8
_PREFIX = 10                        # definite p.now() effects, as in cascade
_HOP = 3.0


def _root(p, judge, first, start):
    for _ in range(_PREFIX):
        yield p.now()
    yield p.compute(start)
    x = yield p.aid_init("tree")
    yield p.send(judge, x)
    ok = yield p.guess(x)
    yield p.send(first, 1)
    yield p.compute(1.0)
    yield p.emit(ok)


def _relay(p, nxt):
    for _ in range(_PREFIX):
        yield p.now()
    value = (yield p.recv()).payload
    yield p.compute(_HOP)
    if nxt is not None:
        yield p.send(nxt, value + 1)
    yield p.emit(value)


def _judge(p, ok):
    x = (yield p.recv()).payload
    # the verdict lands with the chain about two thirds deep
    yield p.compute(2 * DEPTH / 3 * (_HOP + 1.0))
    if ok:
        yield p.affirm(x)
    else:
        yield p.deny(x)
    yield p.emit(ok)


def relay_waves(trees: int) -> HopeSystem:
    """``trees`` relay chains started 0.7 apart, every second one denied
    (the shape of the ``cascade`` workload, smaller)."""
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0))
    for t in range(trees):
        relays = [f"t{t}.n{i}" for i in range(DEPTH)]
        system.spawn(f"t{t}.root", _root, f"t{t}.judge", relays[0], 0.7 * t)
        system.spawn(f"t{t}.judge", _judge, t % 2 == 1)
        for i, name in enumerate(relays):
            system.spawn(name, _relay, relays[i + 1] if i + 1 < DEPTH else None)
    system.run()
    return system


def retired_process(trees: int = 60) -> tuple:
    """``(system at 4 x trees, bytes, blocks)`` per finished process."""
    relay_waves(4)                  # imports, caches, interned strings
    small = measure(lambda: relay_waves(trees))
    large = measure(lambda: relay_waves(4 * trees))
    return (large[0], *_per_unit(small, large, 3 * trees * (DEPTH + 2)))


# --------------------------------------------------------- committed output
def _emitter(p, count):
    for _ in range(count):
        yield p.compute(1.0)
        yield p.emit("tick")        # one shared value: the figure is the rest


def emitting_system(count: int) -> HopeSystem:
    system = HopeSystem(seed=1)
    system.spawn("emitter", _emitter, count)
    system.run()                    # nothing finalizes: only the pass at quiescence
    return system


def committed_output(count: int = 2000) -> tuple:
    """``(system at 4 x count, bytes, blocks)`` per committed emit."""
    emitting_system(10)             # imports, caches, interned strings
    small = measure(lambda: emitting_system(count))
    large = measure(lambda: emitting_system(4 * count))
    return (large[0], *_per_unit(small, large, 3 * count))


# --------------------------------------------------------------- acked send
def _sender(p, count):
    for i in range(count):
        yield p.send("sink", i)
    yield p.recv()                  # both stay running: nothing retires


def _sink(p, count):
    for _ in range(count):
        yield p.recv()
    yield p.recv()


def acked_system(count: int) -> HopeSystem:
    """``count`` definite reliable sends at t=0, delivered at t=1 and acked
    at t=2, run to t=4: every retry timer (due at t=8) is cancelled and
    still queued.  As many live events due at t=6 stand for the work a
    busy run has queued: the run stops at them, before it reaches the dead
    timers, and no dead-majority compaction evicts those."""
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), reliable=ReliableConfig())
    system.spawn("sink", _sink, count)
    system.spawn("sender", _sender, count)
    for _ in range(count):
        system.sim.schedule(6.0, int)
    system.run(until=4.0)
    return system


def acked_send(count: int = 500) -> tuple:
    """``(system at 4 x count, bytes, blocks)`` per acknowledged send."""
    acked_system(10)                # imports, caches, interned strings
    small = measure(lambda: acked_system(count))
    large = measure(lambda: acked_system(4 * count))
    return (large[0], *_per_unit(small, large, 3 * count))


# ------------------------------------------------------------ open interval
def _speculating(p):
    x = yield p.aid_init("open")    # nobody resolves it
    yield p.guess(x)
    return (yield p.recv()).payload


def speculating_system(count: int) -> HopeSystem:
    system = HopeSystem(seed=1)
    for i in range(count):
        system.spawn(f"w{i}", _speculating)
    system.run()
    return system


def open_interval(count: int = 2000) -> tuple:
    """``(system, bytes, blocks)`` per live speculative interval: a process
    blocked in ``recv`` inside one, less one blocked outside any (so the
    figure is the interval, its AID and handle, its IDO and two log
    entries)."""
    speculating_system(10)          # imports, caches, interned strings
    idle_system(10)
    system, traced, blocks = measure(lambda: speculating_system(count))
    _, idle_traced, idle_blocks = measure(lambda: idle_system(count))
    return system, (traced - idle_traced) / count, (blocks - idle_blocks) / count


def live_aids() -> int:
    """How many ``AssumptionId`` objects are alive."""
    gc.collect()
    return sum(type(o) is AssumptionId for o in gc.get_objects())


def outliving_aids(build: Callable[[], HopeSystem]) -> tuple:
    """``(system, count)``: the ``AssumptionId`` objects alive once
    ``build()`` has run its system to quiescence, less the ones still in
    its ``machine.aids`` — retired AIDs that something still keeps."""
    before = live_aids()
    system = build()
    return system, live_aids() - before - len(system.machine.aids)


# ----------------------------------------------------------------- residue
# The bodies of the benchmark's ``stream``, ``steady`` and ``lossy``
# workloads (``cascade``'s are :func:`relay_waves`'), restated so that
# these fixtures do not depend on the benchmark's internals; the inputs
# are the benchmark's draws at seed 7.
_MOD = 1_000_003


def _draws(name: str, seed: int = 7) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _one_in(rng: random.Random, n: int, every: int) -> frozenset:
    """One index below ``n`` drawn from each full block of ``every``."""
    return frozenset(block + rng.randrange(every) for block in range(0, n - every + 1, every))


def _stream(n: int) -> HopeSystem:
    """Figure 2 with ``n`` reports, one in ten overflowing its page."""
    from repro.apps import call_streaming as cs

    rng = _draws("stream")
    fails = _one_in(rng, n, 10)
    config = cs.CallStreamConfig(
        page_size=1000, latency=10.0, n_warts=8,
        report_lines=tuple(1001 if i in fails else rng.randint(1, 5) for i in range(n)),
    )
    links = LinkLatency(default=ConstantLatency(config.latency))
    for w in range(config.n_warts):         # WorryWarts near the worker,
        links.set_link("worker", f"worrywart-{w}", ConstantLatency(config.wart_latency))
        links.set_link(f"worrywart-{w}", "worker", ConstantLatency(config.wart_latency))
    for ends in (("server_oneway", "server"), ("server", "server_oneway")):
        links.set_link(*ends, ConstantLatency(0.0))     # the gateway beside the server
    system = HopeSystem(seed=7, latency=links)
    system.spawn("server", cs.print_server, config.page_size, config.server_service_time)
    system.spawn("server_oneway", cs.oneway_gateway)
    for w in range(config.n_warts):
        expected = len(range(w, config.n_reports, config.n_warts))
        system.spawn(f"worrywart-{w}", cs.worrywart, config, expected)
    system.spawn("worker", cs.optimistic_worker, config)
    return system


def _cascade(trees: int) -> HopeSystem:
    """:func:`relay_waves`' trees run one after another (so that the run's
    peak concurrency, and the tables it sizes, are the same at every
    size)."""
    system = HopeSystem(seed=7, latency=ConstantLatency(1.0))
    for t in range(trees):
        relays = [f"t{t}.n{i}" for i in range(DEPTH)]
        system.spawn(f"t{t}.root", _root, f"t{t}.judge", relays[0], 100.0 * t)
        system.spawn(f"t{t}.judge", _judge, t % 2 == 1)
        for i, name in enumerate(relays):
            system.spawn(name, _relay, relays[i + 1] if i + 1 < DEPTH else None)
    return system


def _counter(p, judge, rounds, bumps, resume=None):
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        i = state["round"]
        a = yield p.aid_init("round")
        yield p.send(judge, (a, p.name, i))
        ok = yield p.guess(a)
        yield p.compute(1.0 if ok else 2.0)
        state["acc"] = (state["acc"] * 31 + bumps[i] + (0 if ok else 1)) % _MOD
        yield p.emit(((p.name, i), state["acc"]))
        state["round"] += 1
        yield p.commit_point(dict(state))


def _counter_judge(p, total, denied, resume=None):
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < total:
        a, name, i = (yield p.recv()).payload
        yield p.compute(0.3)
        ok = i not in denied[name]
        yield (p.affirm(a) if ok else p.deny(a))
        state["seen"] += 1
        yield p.emit(((name, i), "checked", ok))
        yield p.commit_point(dict(state))


def _steady(rounds: int, seed: int = 7) -> HopeSystem:
    """Four counters of ``rounds`` rounds, one in four denied."""
    rng, names = _draws("steady", seed), [f"c{w}" for w in range(4)]
    bumps = {name: tuple(rng.randrange(_MOD) for _ in range(rounds)) for name in names}
    denied = {name: _one_in(rng, rounds, 4) for name in names}
    system = HopeSystem(seed=7, latency=ConstantLatency(1.0))
    system.spawn("judge", _counter_judge, 4 * rounds, denied)
    for name in names:
        system.spawn(name, _counter, "judge", rounds, bumps[name])
    return system


def _lossy_worker(p, validator, bumps):
    acc = 0
    for i, bump in enumerate(bumps):
        x = yield p.aid_init("round")
        ok = yield p.guess(x)                  # guess before send: tagged
        yield p.send(validator, (x, i))
        yield p.compute(1.0)
        acc = (acc * 31 + bump + (0 if ok else 1)) % _MOD
        yield p.emit(((p.name, i), acc))


def _lossy_validator(p, worker, rounds, denied):
    for _ in range(rounds):
        x, i = (yield p.recv()).payload
        ok = i not in denied
        yield (p.affirm(x) if ok else p.deny(x))
        yield p.emit(((worker, i), "checked", ok))


def _lossy(rounds: int) -> HopeSystem:
    """Eight pairs of ``rounds`` rounds over a lossy, reordering,
    duplicating network with reliable delivery; one in eight denied (the
    loss pattern and the denials are drawn from the network seed)."""
    rng, network = _draws("lossy"), random.Random("lossy/1995")
    bumps = [tuple(rng.randrange(_MOD) for _ in range(rounds)) for _ in range(8)]
    denied = [_one_in(network, rounds, 8) for _ in range(8)]
    faults = FaultPlan(default=LinkFaults(drop=0.05, duplicate=0.05, reorder=0.1,
                                          reorder_window=4, jitter=1))
    system = HopeSystem(seed=1995, latency=ConstantLatency(1.0), faults=faults,
                        reliable=ReliableConfig())
    for k in range(8):
        system.spawn(f"v{k}", _lossy_validator, f"w{k}", rounds, denied[k])
        system.spawn(f"w{k}", _lossy_worker, f"v{k}", bumps[k])
    return system


def _exiting_ping(p, peer, payloads):
    acc = 0
    for i, payload in enumerate(payloads):
        x = yield p.aid_init("round")
        yield p.guess(x)
        yield p.send(peer, (x, payload))
        acc = (acc * 31 + (yield p.recv()).payload) % _MOD
        yield p.emit((i, acc))


def _exiting_pong(p, peer, rounds):
    for _ in range(rounds):
        x, payload = (yield p.recv()).payload
        yield p.affirm(x)
        yield p.send(peer, 2 * payload + 1)


def _pingpong(rounds: int) -> HopeSystem:
    """``pingpong``: a pair of ``rounds`` rounds with no commit points,
    each keeping its whole log until it exits."""
    payloads = tuple(_draws("pingpong").randrange(_MOD) for _ in range(rounds))
    system = HopeSystem(seed=7, latency=ConstantLatency(1.0))
    system.spawn("pong", _exiting_pong, "ping", rounds)
    system.spawn("ping", _exiting_ping, "pong", payloads)
    return system


def _ahead_guesser(p, judge, rounds):
    for i in range(rounds):
        x = yield p.aid_init("round")
        yield p.send(judge, x)
        yield p.emit((i, (yield p.guess(x))))


def _ahead_judge(p, rounds):
    for _ in range(rounds):
        yield p.affirm((yield p.recv()).payload)


def _ahead(rounds: int, metrics: Optional[MetricsRegistry] = None) -> HopeSystem:
    """A guesser ``rounds`` rounds ahead of its judge: it never waits, so
    every round's message rides one same-tick delivery sweep, and every
    round's AID is live at once."""
    system = HopeSystem(seed=7, latency=ConstantLatency(0.5), metrics=metrics)
    system.spawn("judge", _ahead_judge, rounds)
    system.spawn("guesser", _ahead_guesser, "judge", rounds)
    return system


#: Residue bodies at size ``n``: reports, relay trees, counter rounds
#: (``steady/2``: drawn at seed 2), lossy rounds, pingpong rounds and
#: rounds a guesser runs ahead of its judge (``ahead/metered``: with a
#: metrics registry).  Only ``cascade`` grows the
#: process count.  A counter up to 256 is CPython's cached small int and
#: costs nothing; past it, 32 B: ``cascade`` starts at 40 trees, where
#: the machine's and network's counters are past it at N as at 4N (at 20,
#: thirteen of them crossed it between N and 4N: 416 B, the same at
#: every size, which read as growth against a 3.8 KiB residue).
RESIDUE = {
    "cascade": (40, _cascade),
    "stream": (25, _stream),
    "steady": (50, _steady),
    "steady/2": (50, lambda rounds: _steady(rounds, seed=2)),
    "lossy": (10, _lossy),
    "pingpong": (200, _pingpong),
    "ahead": (25, _ahead),
    "ahead/metered": (25, lambda rounds: _ahead(rounds, metrics=MetricsRegistry())),
}


def residue(build: Callable[[], HopeSystem]) -> int:
    """Bytes a run of ``build()`` holds at quiescence besides its results:
    what dropping the system frees, less what the ledger, the timeline's
    totals and the committed values of the processes still live keep."""
    gc.collect()
    tracemalloc.start(1)
    try:
        system = build()
        system.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        # (kept alive past the ``del``: they are not the residue)
        results = (system.outcomes, system.timeline,
                   [proc.committed for proc in system.procs.values()])
        del system
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


#: How much more a residue body may hold at 4N than at N.
RESIDUE_GROWTH = 1.1


def residues(name: str) -> tuple:
    """``(bytes at N, bytes at 4 N)`` of :data:`RESIDUE`'s ``name``."""
    n, build = RESIDUE[name]
    residue(lambda: build(max(1, n // 4)))     # imports, caches, interned strings
    return residue(lambda: build(n)), residue(lambda: build(4 * n))


# -------------------------------------------------------------- fossil peak
def _endless_worker(p, resume=None):
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while True:
        a = yield p.aid_init(f"r{state['round']}")
        yield p.send("judge", a)
        if (yield p.guess(a)):
            yield p.compute(1.0)
            state["acc"] += 3
        else:
            yield p.compute(2.0)
            state["acc"] -= 1
        state["round"] += 1
        yield p.commit_point(state)


def _endless_judge(p, deny_rate, resume=None):
    state = resume if resume is not None else {"seen": 0}
    while True:
        msg = yield p.recv()
        yield p.compute(0.3)
        if (yield p.random()) < deny_rate:
            yield p.deny(msg.payload)
        else:
            yield p.affirm(msg.payload)
        state["seen"] += 1
        yield p.commit_point(state)


#: Sim events of :func:`fossil_peak` at size N: 16 passes' worth.
FOSSIL_EVENTS = 2500


def fossil_peak(events: int) -> int:
    """The most ``tracemalloc`` saw allocated, over what the pair held once
    spawned, while a worker and its judge ran ``events`` sim events: a
    quarter of the rounds denied, a pass every 32 commit points, the
    trace kept and collected but no record retained.  The bodies never
    return, so this is the long run's shape that :func:`residue`, read
    at quiescence, cannot see."""
    gc.collect()
    tracemalloc.start(1)
    try:
        system = HopeSystem(seed=0, latency=ConstantLatency(1.0),
                            trace=Tracer(max_records=1), fossil_interval=32)
        system.spawn("judge", _endless_judge, 0.25)
        system.spawn("worker", _endless_worker)
        spawned = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(events):
            system.sim.step()
        peak = tracemalloc.get_traced_memory()[1] - spawned
    finally:
        tracemalloc.stop()
    stats = system.stats()
    if not stats["fossil_collections"] or not stats["fossil_log_dropped"]:
        raise AssertionError("fossil collection never reclaimed anything")
    return peak


def fossil_peaks() -> tuple:
    """``(peak at N, peak at 4 N)`` of :func:`fossil_peak`."""
    fossil_peak(FOSSIL_EVENTS // 4)             # imports, caches, interned strings
    return fossil_peak(FOSSIL_EVENTS), fossil_peak(4 * FOSSIL_EVENTS)


#: Every shape's census, in the order the script prints them.
CENSUS = {
    "spawned process": spawned_process,
    "idle process": idle_process,
    "running round": running_round,
    "retired process": retired_process,
    "committed output": committed_output,
    "acked send": acked_send,
    "open interval": open_interval,
}


if __name__ == "__main__":
    markdown = sys.argv[1:] == ["--markdown"]
    version = "%d.%d" % sys.version_info[:2]
    if sys.argv[1:] == ["--residue"]:
        grown = []
        for name, (small, large) in [*((name, residues(name)) for name in RESIDUE),
                                     ("fossil peak", fossil_peaks())]:
            print(f"{version} residue {name + ':':15} {small / 1024:7.1f} KiB at N, "
                  f"{large / 1024:7.1f} KiB at 4N ({large / small:.2f}x)")
            if large > RESIDUE_GROWTH * small:
                grown.append(name)
        sys.exit(f"residue above {RESIDUE_GROWTH}x at 4N: {', '.join(grown)}" if grown else None)
    if markdown:
        print(budget_markdown())
        print(f"\n| shape ({version}) | measured | budget |\n|---|---|---|")
    for shape, census in CENSUS.items():
        traced, blocks = census()[-2:]
        if markdown:
            max_bytes, max_blocks = budget(shape)
            print(f"| {shape} | {traced:.1f} B, {blocks:.1f} blocks "
                  f"| {max_bytes:g} B, {max_blocks:g} blocks |")
        else:
            print(f"{version} {shape + ':':17} {traced:7.1f} B {blocks:5.1f} blocks")
