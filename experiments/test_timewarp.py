"""Experiment TW: HOPE expressing Time Warp's one assumption (§2).

The same timestamp-ordered workload runs three ways:

* the **sequential oracle** (ground truth);
* genuine **Time Warp** (anti-messages, GVT) on the physical network;
* **HOPE**, with the arrival-order assumption spelled out as AIDs
  (:mod:`repro.apps.virtual_time`).

Both optimistic systems must match the oracle's final state; the table
compares their rollback behaviour and message costs as physical jitter
grows (more jitter ⇒ more stragglers).
"""

from repro.apps.virtual_time import run_hope_order
from repro.baselines.timewarp import Emission, SequentialOracle, TimeWarpEngine
from repro.bench import format_table, sweep, vt_workload
from repro.sim import RandomStreams, UniformLatency

from . import check_table

JITTERS = [0.0, 2.0, 5.0, 10.0]
N_SENDERS = 3
JOBS = 8


def _latency(jitter: float, seed: int):
    if jitter == 0.0:
        from repro.sim import ConstantLatency

        return ConstantLatency(1.0)
    return UniformLatency(0.5, 0.5 + jitter, RandomStreams(seed)["tw-net"])


def _tw_handler(state, vt, payload):
    """Fold incoming jobs exactly like apps.virtual_time.fold."""
    from repro.apps.virtual_time import fold

    state["acc"] = fold(state["acc"], vt, payload)
    return []


def run_jitter(jitter: float) -> dict:
    workload = vt_workload(N_SENDERS, JOBS)
    # --- HOPE ---
    hope = run_hope_order(workload, latency=_latency(jitter, 1), seed=1)
    assert hope.final_state == workload.reference_state()
    # --- Time Warp: senders are LPs injecting to a sink LP ---
    engine = TimeWarpEngine(latency=_latency(jitter, 1), service_time=0.2)
    engine.add_lp("sink", _tw_handler, {"acc": 0})
    for stream in workload.streams:
        for job in stream:
            engine.inject("sink", job.vt, job.value)
    engine.run(max_events=1_000_000)
    tw_stats = engine.stats()
    # --- oracle ---
    oracle = SequentialOracle()
    oracle.add_lp("sink", _tw_handler, {"acc": 0})
    for stream in workload.streams:
        for job in stream:
            oracle.inject("sink", job.vt, job.value)
    oracle.run()
    assert engine.lps["sink"].state == oracle.states["sink"]
    return {
        "hope_rollbacks": hope.rollbacks,
        "tw_rollbacks": tw_stats["rollbacks"],
        "hope_msgs": hope.messages,
        "tw_msgs": tw_stats["messages"],
        "tw_efficiency": tw_stats["efficiency"],
        "hope_makespan": hope.makespan,
    }


def test_timewarp_comparison():
    result = sweep("jitter", JITTERS, run_jitter)
    metrics = [
        "hope_rollbacks",
        "tw_rollbacks",
        "hope_msgs",
        "tw_msgs",
        "tw_efficiency",
        "hope_makespan",
    ]
    check_table(
        "timewarp",
        format_table(
            "TW — HOPE-expressed message-order optimism vs Time Warp "
            f"({N_SENDERS} senders x {JOBS} jobs)",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    # zero jitter: neither system rolls back
    assert result.column("hope_rollbacks")[0] == 0
    assert result.column("tw_rollbacks")[0] == 0
    # high jitter: both must exercise their rollback machinery
    assert result.column("hope_rollbacks")[-1] > 0
    assert result.column("tw_rollbacks")[-1] > 0
    assert all(0 < e <= 1 for e in result.column("tw_efficiency"))


def _run_cancellation(mode: str) -> dict:
    """A relay pipeline whose outputs are mostly straggler-insensitive —
    the workload lazy cancellation was invented for."""
    from repro.baselines.timewarp import Emission
    from repro.sim import SequenceLatency

    def relay_handler(state, vt, payload):
        state["seen"] += 1
        if payload > 0:
            return [Emission(state["next"], 1.5, payload - 1)]
        return []

    engine = TimeWarpEngine(
        latency=SequenceLatency([40.0] + [1.0] * 500),
        service_time=0.2,
        cancellation=mode,
    )
    for index, name in enumerate(["a", "b", "c"]):
        nxt = ["a", "b", "c"][(index + 1) % 3]
        engine.add_lp(name, relay_handler, {"seen": 0, "next": nxt})
    engine.inject("a", 1.0, 10)             # slow: the eventual straggler
    engine.inject("a", 5.0, 10)             # fast: speculated on first
    engine.run(max_events=500_000)
    stats = engine.stats()
    lazy_hits = sum(lp.lazy_hits for lp in engine.lps.values())
    return {
        "antis": stats["antis_sent"],
        "messages": stats["messages"],
        "lazy_hits": lazy_hits,
        "events_rolled_back": stats["events_rolled_back"],
    }


def test_cancellation_ablation():
    rows = []
    results = {}
    for mode in ("aggressive", "lazy"):
        metrics = _run_cancellation(mode)
        results[mode] = metrics
        rows.append([mode] + list(metrics.values()))
    check_table(
        "timewarp_cancellation",
        format_table(
            "TW — aggressive vs lazy cancellation (straggler-insensitive relay)",
            ["mode", "antis", "messages", "lazy_hits", "events_rolled_back"],
            rows,
        ),
    )
    assert results["lazy"]["antis"] <= results["aggressive"]["antis"]
    assert results["lazy"]["lazy_hits"] > 0
    assert results["lazy"]["messages"] <= results["aggressive"]["messages"]
