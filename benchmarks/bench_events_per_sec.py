"""Experiment EVSEC: event-kernel throughput — the simulator vs bare.

Headline metric for the event queue: events per second.  Two layers are
measured:

* *raw kernel* — three scheduling shapes on the bare ``Simulator``:

  - ``chain``    each event schedules its successor (deep, sparse queue),
  - ``fanout``   all events scheduled up front across mixed timescales
                 (wide queue),
  - ``cancel``   schedule/cancel churn (lazy delete + compaction);

* *end to end* — the TRACK ping-pong, bare simulator vs the full HOPE
  runtime.  ``hope_wall / bare_wall`` is the overhead ratio; batched
  effect dispatch also roughly halves the *number* of events HOPE
  schedules per message.

Wall times are min-of-``REPEATS`` with the contenders interleaved per
rep, so a machine-speed swing hits all of them alike.
"""

import importlib.util
import os
import random
import time

from repro.sim import Simulator
from repro.bench import emit, emit_json, format_table, sweep

N_EVENTS = 20_000
N_MESSAGES = 200
REPEATS = 5
#: Baselines from before batched effect dispatch (per-message resume
#: events): the TRACK n=200 overhead ratio, and the number of simulator
#: events HOPE scheduled for the n=200 ping-pong.
PRE_BATCHING_RATIO = 1.785
PRE_BATCHING_HOPE_EVENTS = 802


def _noop():
    pass


def _chain(sim: Simulator, n: int) -> None:
    remaining = [n]

    def step() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule(0.37, step)

    sim.schedule(0.0, step)


def _fanout(sim: Simulator, n: int) -> None:
    rng = random.Random(7)
    for _ in range(n):
        sim.schedule(rng.random() * rng.choice([1.0, 50.0, 3000.0]), _noop)


def _cancel(sim: Simulator, n: int) -> None:
    rng = random.Random(11)
    handles = []
    for i in range(n):
        handles.append(sim.schedule(rng.random() * 100.0, _noop))
        if i % 2:
            handles.pop(rng.randrange(len(handles))).cancel()


SHAPES = {"chain": _chain, "fanout": _fanout, "cancel": _cancel}


def run_point(shape: str, n: int = N_EVENTS, repeats: int = REPEATS) -> dict:
    """Time one scheduling shape, min of ``repeats``.

    The clock covers scheduling *and* draining — schedule/cancel cost is
    part of what an event costs, so it must be inside the window.
    """
    build = SHAPES[shape]
    walls = []
    for _ in range(repeats):
        sim = Simulator()
        start = time.perf_counter()
        build(sim, n)
        sim.run()
        walls.append(time.perf_counter() - start)
    return {
        "events": sim.events_processed,
        "kev_s": sim.events_processed / min(walls) / 1000,
    }


def _load_track():
    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "bench_tracking_overhead.py"
    )
    spec = importlib.util.spec_from_file_location("bench_tracking_overhead", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def end_to_end(n: int = N_MESSAGES, repeats: int = REPEATS) -> dict:
    """Bare simulator vs HOPE, same ping-pong."""
    track = _load_track()
    bares, hopes = [], []
    for _ in range(repeats):
        bares.append(track._bare_pingpong(n))
        hopes.append(track._hope_pingpong(n, speculative=False))
    bare_wall = min(r["wall_s"] for r in bares)
    hope_wall = min(r["wall_s"] for r in hopes)
    return {
        "bare_events": bares[0]["events"],
        "hope_events": hopes[0]["events"],
        "bare_kev_s": bares[0]["events"] / bare_wall / 1000,
        "hope_kev_s": hopes[0]["events"] / hope_wall / 1000,
        "overhead_ratio": hope_wall / bare_wall,
        "pre_batching_ratio": PRE_BATCHING_RATIO,
        "improvement": PRE_BATCHING_RATIO / (hope_wall / bare_wall),
    }


def test_events_per_sec(benchmark):
    kernel_result = sweep("shape", sorted(SHAPES), run_point)
    kernel_metrics = ["events", "kev_s"]
    e2e = end_to_end()
    e2e_metrics = [
        "bare_events",
        "hope_events",
        "bare_kev_s",
        "hope_kev_s",
        "overhead_ratio",
        "pre_batching_ratio",
        "improvement",
    ]
    emit(
        "events_per_sec",
        format_table(
            "EVSEC — kernel throughput (kilo-events/sec)",
            kernel_result.headers(kernel_metrics),
            kernel_result.rows(kernel_metrics),
        )
        + "\n\n"
        + format_table(
            "EVSEC — end-to-end ping-pong, bare vs HOPE",
            ["n_messages"] + e2e_metrics,
            [[N_MESSAGES] + [e2e[k] for k in e2e_metrics]],
        ),
    )
    emit_json(
        "BENCH_3",
        "events_per_sec",
        {
            "metric": "events/sec (wall includes scheduling), min of %d "
            "reps" % REPEATS,
            "n_events": N_EVENTS,
            "kernel_shapes": [
                dict(zip(["shape"] + kernel_metrics, row))
                for row in kernel_result.rows(kernel_metrics)
            ],
            "end_to_end": dict(e2e, n_messages=N_MESSAGES),
            "before": {
                "overhead_ratio": PRE_BATCHING_RATIO,
                "hope_events_per_pingpong": PRE_BATCHING_HOPE_EVENTS,
            },
        },
    )
    # batched dispatch really did shrink HOPE's event budget — at most half of what per-message resume events
    # used to cost (802 for n=200), and no more than the bare simulator's.
    assert e2e["hope_events"] <= PRE_BATCHING_HOPE_EVENTS // 2 + 2
    assert e2e["hope_events"] <= e2e["bare_events"]
    assert e2e["overhead_ratio"] <= 1.75, e2e
    benchmark(lambda: run_point("fanout", n=5_000, repeats=1))
