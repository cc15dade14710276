"""Experiment CKPT: the checkpoint/rollback mechanism's cost.

§7: "the present checkpoint mechanism is simple and fairly portable, but
not particularly efficient."  Ours substitutes deterministic replay
(DESIGN.md §2): restoring a checkpoint replays the effect log prefix.
Two measurements:

* replay cost vs pre-guess history length — the effects a rollback
  re-feeds when its checkpoint sits behind N logged effects;
* the Time Warp twin: state-saving interval vs rollback cost (save every
  event = cheap rollback, sparse saves = coast-forward re-execution).

The HOPE body declares no commit point on purpose: this file IS the cost
of replaying from process start.  ``p.commit_point`` removes the
prefix-proportional term — see docs/PERFORMANCE.md §3.
"""

from repro.baselines.timewarp import LogicalProcess, TWMessage
from repro.bench import format_table, sweep
from repro.runtime import HopeSystem

from . import check_table

PREFIX_LENGTHS = [10, 50, 200, 800]
SAVE_INTERVALS = [1, 2, 4, 8, 16]


def _rollback_run(prefix: int) -> dict:
    system = HopeSystem()

    def worker(p):
        for i in range(prefix):            # pre-guess history to replay
            yield p.random()
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        if (yield p.guess(x)):
            yield p.compute(5.0)

    def judge(p):
        msg = yield p.recv()
        yield p.compute(1.0)
        yield p.deny(msg.payload)

    system.spawn("worker", worker)
    system.spawn("judge", judge)
    system.run(max_events=5_000_000)
    stats = system.stats()
    assert stats["rollbacks"] == 1
    return {
        "replayed_effects": stats["replayed_effects"],
        "sim_events": stats["sim_events"],
    }


def _tw_save_interval_run(save_interval: int) -> dict:
    """One straggler against a long processed history."""
    lp = LogicalProcess(
        "sink",
        lambda state, vt, payload: state.__setitem__("n", state["n"] + 1) or [],
        {"n": 0, "blob": list(range(256))},
        save_interval=save_interval,
    )
    for i in range(200):
        lp.insert(TWMessage("env", "sink", 0.0, 10.0 + i, i))
        lp.process_next()
    # straggler ~45 events from the end, deliberately misaligned with the
    # save grid: sparse saves must coast-forward further back than dense
    lp.insert(TWMessage("env", "sink", 0.0, 10.0 + 154.3, -1))
    while lp.has_work:
        lp.process_next()
    return {
        "events_redone": lp.events_rolled_back,
        "saves_retained": len(lp.saves),
        "memory_proxy": lp.memory_footprint(),
    }


def test_replay_checkpoint_cost():
    result = sweep("log prefix", PREFIX_LENGTHS, _rollback_run)
    metrics = ["replayed_effects", "sim_events"]
    check_table(
        "checkpoint_replay",
        format_table(
            "CKPT — replay-based checkpoint restore vs history length",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    replayed = result.column("replayed_effects")
    # replay work is exactly the pre-guess prefix (+aid_init/send/guess)
    assert all(r >= n for r, n in zip(replayed, PREFIX_LENGTHS))
    assert replayed == sorted(replayed)


def test_timewarp_save_interval_ablation():
    result = sweep("save interval", SAVE_INTERVALS, _tw_save_interval_run)
    metrics = ["events_redone", "saves_retained", "memory_proxy"]
    check_table(
        "checkpoint_tw_ablation",
        format_table(
            "CKPT — Time Warp state-saving interval ablation (200 events)",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    # sparser saves retain less memory but redo (weakly) more events
    memory = result.column("memory_proxy")
    assert memory == sorted(memory, reverse=True)
    redone = result.column("events_redone")
    assert redone == sorted(redone)
    assert redone[-1] > redone[0]
