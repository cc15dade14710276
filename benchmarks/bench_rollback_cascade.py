"""Experiment CASCADE: the cost of transitive rollback.

§1: "If, during the optimistic computation, process pi sends a message to
process pj then pj's subsequent computation becomes optimistic" — and a
denial must unwind the whole causal tree.  The sweep measures rollback
cost against the depth of a speculative relay chain and against the
fan-out of a speculative broadcast.
"""

from repro.runtime import HopeSystem
from repro.bench import emit, emit_json, format_table, sweep

DEPTHS = [1, 2, 4, 8, 16, 32]
FANOUTS = [1, 2, 4, 8, 16, 32]

#: Pre-speculation work per process: each body performs this many logged
#: effects before it can become speculative.  Replay pays for the whole
#: prefix again on every cascade member (these bodies declare no commit
#: points), which is the per-member term this sweep exposes.
PREFIX = 40


def _run_chain(depth: int, prefix: int = PREFIX) -> HopeSystem:
    system = HopeSystem()

    def root(p):
        for _ in range(prefix):
            yield p.now()                    # definite pre-guess history
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            yield p.send("n0", 0)
        yield p.compute(1.0)

    def relay(p, i):
        for _ in range(prefix):
            yield p.now()                    # definite pre-recv history
        msg = yield p.recv()
        yield p.compute(1.0)
        if i + 1 < depth:
            yield p.send(f"n{i + 1}", i + 1)

    def judge(p):
        msg = yield p.recv()
        yield p.compute(3.0 * depth)         # let the chain fully extend
        yield p.deny(msg.payload)

    system.spawn("root", root)
    system.spawn("judge", judge)
    for i in range(depth):
        system.spawn(f"n{i}", relay, i)
    system.run(max_events=2_000_000)
    return system


def _run_fanout(fanout: int) -> HopeSystem:
    system = HopeSystem()

    def root(p):
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            for i in range(fanout):
                yield p.send(f"leaf-{i}", i)
        yield p.compute(1.0)

    def leaf(p):
        msg = yield p.recv()
        yield p.compute(5.0)

    def judge(p):
        msg = yield p.recv()
        yield p.compute(3.0)
        yield p.deny(msg.payload)

    system.spawn("root", root)
    system.spawn("judge", judge)
    for i in range(fanout):
        system.spawn(f"leaf-{i}", leaf)
    system.run(max_events=2_000_000)
    return system


def chain_metrics(depth: int) -> dict:
    stats = _run_chain(depth).stats()
    return {
        "rollbacks": stats["rollbacks"],
        "replayed_effects": stats["replayed_effects"],
        "wasted_time": stats["wasted_time"],
        "sim_events": stats["sim_events"],
    }


def fanout_metrics(fanout: int) -> dict:
    system = _run_fanout(fanout)
    stats = system.stats()
    return {
        "rollbacks": stats["rollbacks"],
        "replayed_effects": stats["replayed_effects"],
        "wasted_time": stats["wasted_time"],
        "sim_events": stats["sim_events"],
    }


def test_rollback_cascade_depth(benchmark):
    result = sweep("chain depth", DEPTHS, chain_metrics)
    metrics = ["rollbacks", "replayed_effects", "wasted_time", "sim_events"]
    emit(
        "rollback_cascade_depth",
        format_table(
            "CASCADE — transitive rollback vs speculation chain depth",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    emit_json(
        "BENCH_1",
        "rollback_cascade",
        {
            "prefix_effects_per_process": PREFIX,
            "points": [
                dict(zip(["depth"] + metrics, row)) for row in result.rows(metrics)
            ],
        },
    )
    rollbacks = result.column("rollbacks")
    # every relay that received the speculative message must roll back
    assert rollbacks == [d + 1 for d in DEPTHS]
    # cascade cost scales linearly-ish with depth, not worse
    events = result.column("sim_events")
    assert events[-1] < events[0] * (DEPTHS[-1] / DEPTHS[0]) * 3
    # every cascade member re-feeds its own pre-speculation prefix once
    replayed = result.column("replayed_effects")
    assert all(r >= PREFIX * (d + 1) for r, d in zip(replayed, DEPTHS))
    benchmark(lambda: _run_chain(16))


def test_rollback_cascade_fanout(benchmark):
    result = sweep("fan-out", FANOUTS, fanout_metrics)
    metrics = ["rollbacks", "replayed_effects", "wasted_time", "sim_events"]
    emit(
        "rollback_cascade_fanout",
        format_table(
            "CASCADE — transitive rollback vs speculative fan-out",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    rollbacks = result.column("rollbacks")
    assert rollbacks == [f + 1 for f in FANOUTS]
    wasted = result.column("wasted_time")
    assert wasted == sorted(wasted)
    benchmark(lambda: _run_fanout(16))
