"""Experiment HOTPATH2: hot-path throughput round 2 — per-lever before/after.

Round 1 (batched dispatch) left the TRACK overhead ratio at ~1.3.  This
round closes the remaining gap with its levers, each measured here
against its recorded "before":

* **L2 same-tick coalescing** — ``Network.send`` appends same-tick
  deliveries to one scheduled event instead of scheduling one event per
  message.  Measured as simulator events per message on a fan-out
  workload (before: ≥1.0 event/message by construction).
* **L3+L4 hope-only frame cuts** — ``__slots__`` on every per-message
  object, ``tuple.__new__`` pre-bound constructors for log entries and
  received messages, reusable recv waiters, inlined tracer/track guards.
  These only touch HOPE-side code (cutting *shared* substrate cost makes
  the ratio worse: (H−c)/(B−c) > H/B), so they are measured end to end
  as the TRACK ``hope_wall / bare_wall`` ratio.

Byte-identity gates every lever: the matrix below runs full HOPE systems
in both engine modes (plus a faulted chaos case, twice) and asserts
equal trace fingerprints — throughput must never be bought with a
different execution order.

Ratios are judged best-of-``ATTEMPTS`` over interleaved min-of-reps
measurements: a container-noise spike slows one attempt, a real
regression slows all of them.
"""

import importlib.util
import os

from repro.bench import emit, emit_json, format_table
from repro.bench.workloads import build_chaos_mesh, build_chaos_ring
from repro.chaos import WORKLOADS, run_case, standard_plans
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Tracer

REPEATS = 5
ATTEMPTS = 6

#: The ratio trajectory this benchmark extends (TRACK n=200,
#: hope-definite vs bare, best observed per revision).
RATIO_TRAJECTORY = {
    "seed": 2.89,
    "interning+trampoline": 1.8,
    "batched-dispatch": 1.30,
}
#: Round 2 acceptance bar.
MAX_RATIO = 1.15
#: Before coalescing, every message scheduled its own delivery event.
PRE_COALESCE_EVENTS_PER_MESSAGE = 1.0


def _load_track():
    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "bench_tracking_overhead.py"
    )
    spec = importlib.util.spec_from_file_location("bench_tracking_overhead", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# byte-identity matrix: engine modes x workloads, plus one faulted case
# ----------------------------------------------------------------------
_ENGINE_MODES = {
    "plain": {"fossil_collect": False},
    "fossil": {"fossil_collect": True, "fossil_interval": 4},
}


def _fingerprint(build, seed: int, **system_kw) -> str:
    tracer = Tracer()
    system = HopeSystem(
        seed=seed,
        latency=ConstantLatency(1.0),
        trace=tracer,
        **system_kw,
    )
    build(system)
    system.run(max_events=200_000)
    return tracer.fingerprint()


def identity_matrix() -> dict:
    """Every workload must fingerprint identically in both engine modes
    (collection draws no randomness and schedules nothing); one faulted
    chaos case, run twice, widens the net past the fault-free path.
    Returns the cell census for BENCH_5.json."""
    cells = 0
    for build in (build_chaos_mesh, build_chaos_ring):
        prints = {
            mode: _fingerprint(build, seed=3, **kw)
            for mode, kw in sorted(_ENGINE_MODES.items())
        }
        assert len(set(prints.values())) == 1, (build.__name__, prints)
        cells += 1
    # one standard fault plan (drops + dups + reorder + jitter) on a
    # chaos workload — the storm plan exercises every fault path at once
    wl_name = sorted(WORKLOADS)[0]
    wl = WORKLOADS[wl_name]
    plan_name = "storm"
    plan = standard_plans(wl_name)[plan_name]
    results = [run_case(wl, 2, plan, plan_name=plan_name) for _ in range(2)]
    for result in results:
        assert result.ok, (plan_name, result.failure)
    prints = [r.fingerprint for r in results]
    assert len(set(prints)) == 1, (wl_name, plan_name, prints)
    cells += 1
    return {
        "modes": sorted(_ENGINE_MODES),
        "workloads": ["chaos_mesh", "chaos_ring"],
        "fault_case": f"{wl_name}/{plan_name}",
        "cells": cells,
        "all_identical": True,
    }


# ----------------------------------------------------------------------
# L2: same-tick coalescing on a fan-out workload
# ----------------------------------------------------------------------
def fanout_coalescing(width: int = 16, rounds: int = 20) -> dict:
    """A hub broadcasts to ``width`` peers each round (all sends in the
    same tick) and waits for their replies.  Before coalescing every
    message scheduled its own delivery event; with batching, one event
    drains each same-tick group."""
    system = HopeSystem(latency=ConstantLatency(1.0))

    def hub(p, peers, rounds):
        for r in range(rounds):
            for peer in peers:
                yield p.send(peer, r)
            acks = 0
            while acks < len(peers):
                yield p.recv()
                acks += 1

    def leaf(p, hub_name, rounds):
        for _ in range(rounds):
            msg = yield p.recv()
            yield p.send(hub_name, msg.payload)

    peers = [f"w{i}" for i in range(width)]
    system.spawn("hub", hub, peers, rounds)
    for name in peers:
        system.spawn(name, leaf, "hub", rounds)
    system.run(max_events=1_000_000)
    stats = system.stats()
    return {
        "width": width,
        "rounds": rounds,
        "messages": stats["messages_sent"],
        "sim_events": stats["sim_events"],
        "events_per_message": stats["sim_events"] / stats["messages_sent"],
        "before_events_per_message": PRE_COALESCE_EVENTS_PER_MESSAGE,
    }


# ----------------------------------------------------------------------
# L3+L4 (end to end): the TRACK ratio, best of ATTEMPTS
# ----------------------------------------------------------------------
def track_ratio(attempts: int = ATTEMPTS, n: int = 200) -> dict:
    track = _load_track()
    best = None
    ratios = []
    for _ in range(attempts):
        point = track.run_point(n, repeats=REPEATS)
        ratios.append(round(point["overhead_ratio"], 3))
        if best is None or point["overhead_ratio"] < best["overhead_ratio"]:
            best = point
    return {
        "messages": n,
        "attempts": ratios,
        "best_ratio": min(ratios),
        "bare_wall_ms": best["bare_wall_ms"],
        "hope_wall_ms": best["hope_wall_ms"],
        "trajectory": {**RATIO_TRAJECTORY, "round-2": min(ratios)},
    }


def test_hotpath_round2(benchmark):
    matrix = identity_matrix()
    coalesce = fanout_coalescing()
    track = track_ratio()

    emit(
        "hotpath_round2",
        format_table(
            "HOTPATH2 — round-2 levers, before/after",
            ["lever", "metric", "before", "after"],
            [
                ["L2 coalescing", "sim events per message",
                 coalesce["before_events_per_message"],
                 coalesce["events_per_message"]],
                ["L3+L4 frame cuts", "TRACK hope/bare ratio",
                 RATIO_TRAJECTORY["batched-dispatch"],
                 track["best_ratio"]],
            ],
        ),
    )
    emit_json(
        "BENCH_5",
        "hotpath_round2",
        {
            "identity_matrix": matrix,
            "coalescing": coalesce,
            "track": track,
            "budgets": {"max_overhead_ratio": MAX_RATIO},
        },
    )

    # the round-2 acceptance bar, judged best-of-attempts
    assert track["best_ratio"] <= MAX_RATIO, track
    # coalescing must actually batch: far fewer events than messages
    assert coalesce["events_per_message"] <= 0.5, coalesce
    benchmark(lambda: fanout_coalescing(width=8, rounds=5))


if __name__ == "__main__":
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-q", "--benchmark-disable"]))
