"""Experiment TRACK: the cost of automatic dependency tracking.

§7: "the implementation never forces a user process to wait for a HOPE
dependency tracking message before proceeding."  Two measurements:

* *virtual* overhead — zero by design: a ping-pong workload's makespan is
  identical with tracking active (speculative) and inactive (definite);
* *mechanical* overhead — tags attached, control messages, and wall time
  per message, HOPE runtime vs the bare simulator.
"""

import time

from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Network, Recv, Simulator, Task
from repro.bench import emit, emit_json, format_table, sweep

N_MESSAGES = [50, 100, 200]

#: Wall times are min-of-REPEATS: the interesting quantity is the
#: mechanical cost of the code path, and the minimum is the standard
#: noise-robust estimator for that (everything above it is scheduler
#: jitter).  Virtual-time results are deterministic and unaffected.
REPEATS = 5

#: The seed revision's committed numbers (benchmarks/results/
#: tracking_overhead.txt at the "growth seed" commit) — the "before" in
#: the before/after comparison this file now reports.  Wall milliseconds.
SEED_WALL_MS = {
    50: {"bare": 0.6230, "hope": 2.15, "spec": 2.51},
    100: {"bare": 1.22, "hope": 3.24, "spec": 4.01},
    200: {"bare": 2.30, "hope": 6.65, "spec": 8.99},
}


def _bare_pingpong(n: int) -> dict:
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


def _hope_pingpong(n: int, speculative: bool, metrics=None) -> dict:
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


def run_point(n: int, repeats: int = REPEATS) -> dict:
    # Interleave the three modes per rep (rather than batching each mode)
    # so a machine-speed swing hits all modes alike: the ratio of two
    # interleaved minima cancels drift that the ratio of two batch minima
    # (possibly seconds apart) does not.
    bares, definites, specs = [], [], []
    for _ in range(repeats):
        bares.append(_bare_pingpong(n))
        definites.append(_hope_pingpong(n, speculative=False))
        specs.append(_hope_pingpong(n, speculative=True))
    bare, definite, spec = bares[0], definites[0], specs[0]
    bare_ms = 1000 * min(r["wall_s"] for r in bares)
    hope_ms = 1000 * min(r["wall_s"] for r in definites)
    spec_ms = 1000 * min(r["wall_s"] for r in specs)
    seed = SEED_WALL_MS.get(n)
    seed_ratio = seed["hope"] / seed["bare"] if seed else None
    ratio = hope_ms / bare_ms
    return {
        "bare_makespan": bare["makespan"],
        "hope_makespan": definite["makespan"],
        "spec_makespan": spec["makespan"],
        "tags_spec": spec["tags"],
        "bare_wall_ms": bare_ms,
        "hope_wall_ms": hope_ms,
        "spec_wall_ms": spec_ms,
        "overhead_ratio": ratio,
        "seed_ratio": seed_ratio if seed_ratio is not None else float("nan"),
        "improvement": (seed_ratio / ratio) if seed_ratio else float("nan"),
    }


def test_tracking_overhead(benchmark):
    result = sweep("messages", N_MESSAGES, run_point)
    metrics = [
        "bare_makespan",
        "hope_makespan",
        "spec_makespan",
        "tags_spec",
        "bare_wall_ms",
        "hope_wall_ms",
        "spec_wall_ms",
        "overhead_ratio",
        "seed_ratio",
        "improvement",
    ]
    emit(
        "tracking_overhead",
        format_table(
            "TRACK — dependency tracking never blocks the user process",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    points = [
        dict(zip(["messages"] + metrics, row)) for row in result.rows(metrics)
    ]
    emit_json(
        "BENCH_1",
        "tracking_overhead",
        {
            "metric": "hope_wall_ms / bare_wall_ms (min of %d reps)" % REPEATS,
            "seed_wall_ms": SEED_WALL_MS,
            "points": points,
        },
    )
    # the §7 property, exactly: tracking costs zero *virtual* time
    assert result.column("bare_makespan") == result.column("hope_makespan")
    assert result.column("hope_makespan") == result.column("spec_makespan")
    # speculative runs really did tag traffic
    assert all(t > 0 for t in result.column("tags_spec"))
    # regression tripwire: interning/caching/trampoline work cut the n=200
    # overhead ratio from ~2.9x to ~1.8x, batched dispatch cut it to ~1.3x,
    # and the round-2 hot-path sweep (hope-only frame cuts;
    # docs/PERFORMANCE.md §8) to ~0.78-1.15.  This single-shot assert
    # only guards against a return to pre-batching ratios; the tight
    # ≤1.2 budget is enforced best-of-attempts by smoke_overhead.py (a
    # single noisy run on a busy CI box must not flake the whole bench job).
    assert points[-1]["overhead_ratio"] <= 1.75, points[-1]
    benchmark(lambda: _hope_pingpong(100, speculative=True))
