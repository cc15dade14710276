"""Differential oracle: the parallel backend against its sim twin.

The contract (docs/LIMITATIONS.md "Parallel-mode ordering"): for
branch-symmetric programs, the *committed-state fingerprint* — each
process's committed output multiset — of a parallel run equals the
deterministic simulator's, for every worker count.  Event interleavings
and trace streams are allowed to differ; committed state is not.
"""

import os

import pytest

from repro import AidStatus, HopeSystem, MetricsRegistry
from repro.bench.workloads import (
    build_chaos_mesh,
    build_chaos_ring,
    build_fanout,
    build_replication,
)
from repro.chaos import committed_state
from repro.core.errors import HopeError
from repro.sim.latency import ConstantLatency, UniformLatency

SEEDS = (0, 1, 7, 42)
WORKER_COUNTS = (1, 2, 4)

WORKLOADS = {
    "mesh": lambda s: build_chaos_mesh(s, workers=3, rounds=3),
    "ring": lambda s: build_chaos_ring(s, nodes=4, laps=2),
    "fanout": lambda s: build_fanout(s, pairs=3, rounds=3),
    "replication": lambda s: build_replication(s, replicas=3, updates=3),
}


def run_system(build, seed, backend="sim", workers=None, **kw):
    system = HopeSystem(
        seed=seed, latency=ConstantLatency(1.0), backend=backend,
        workers=workers, **kw,
    )
    build(system)
    system.run(max_events=200_000)
    return system


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_fingerprints_match_sim_twin(workload, seed):
    build = WORKLOADS[workload]
    want = committed_state(run_system(build, seed))
    for workers in WORKER_COUNTS:
        got = committed_state(run_system(build, seed, "parallel", workers))
        assert got == want, (workload, seed, workers)


def test_results_and_outputs_cross_backend():
    sim = run_system(WORKLOADS["mesh"], 3)
    par = run_system(WORKLOADS["mesh"], 3, "parallel", 2)
    for name in sim.procs:
        assert par.is_done(name) == sim.is_done(name)
        if sim.is_done(name):
            assert par.result_of(name) == sim.result_of(name)
        assert sorted(map(repr, par.committed_outputs(name))) == sorted(
            map(repr, sim.committed_outputs(name))
        )


def test_parallel_stats_merge():
    par = run_system(WORKLOADS["fanout"], 1, "parallel", 2)
    stats = par.stats()
    assert stats["backend"] == "parallel"
    assert stats["workers"] == 2
    assert stats["windows"] > 0
    assert stats["crashed_workers"] == []
    # Cross-shard wire traffic happened and was acked symmetrically.
    wire = stats["wire"]
    assert wire["frames_out"] == wire["frames_in"] > 0
    # Every injected frame was acked; acks emitted in the final window
    # may never be granted (bookkeeping frames do not wake idle shards).
    assert wire["acks_out"] == wire["frames_in"]
    assert wire["acks_in"] <= wire["acks_out"]
    # Per-worker events sum to the aggregate count.
    assert sum(stats["per_worker_events"].values()) == stats["sim_events"]


def test_parallel_metrics_merge():
    sim = run_system(WORKLOADS["mesh"], 2, metrics=MetricsRegistry())
    par = run_system(WORKLOADS["mesh"], 2, "parallel", 2,
                     metrics=MetricsRegistry())
    sim_snap = sim.metrics_snapshot().snapshot()
    par_snap = par.metrics_snapshot().snapshot()
    # The committed work is the same, so the workload-determined counters
    # agree (timing-dependent ones — rollbacks, wasted time — may not).
    assert par_snap["hope_guesses_total"] >= sim_snap["hope_guesses_total"]
    assert par_snap["hope_sim_events"] > 0
    # Snapshotting again must not clobber the merged shard gauges.
    assert par.metrics_snapshot().snapshot()["hope_sim_events"] == (
        par_snap["hope_sim_events"]
    )


def test_aid_status_surfaces_merged_view():
    par = run_system(WORKLOADS["mesh"], 0, "parallel", 2)
    statuses = {par.aid_status(key) for key in par.backend._aid_statuses}
    assert statuses <= {AidStatus.AFFIRMED, AidStatus.DENIED}
    assert AidStatus.AFFIRMED in statuses
    assert AidStatus.DENIED in statuses


def test_worker_crash_mid_speculation_denies_dead_aids():
    """Fail-stop worker death: the coordinator (acting as the failure
    detector) issues definite denies for every assumption the dead shard
    minted and never resolved, so surviving dependents roll back instead
    of stranding speculative forever."""
    par = HopeSystem(
        seed=2, latency=ConstantLatency(1.0), backend="parallel", workers=2,
        parallel_opts={"crash_at": {1: 2.5}},
    )
    build_chaos_mesh(par, workers=3, rounds=4)
    par.run(max_events=200_000)
    stats = par.stats()
    assert stats["crashed_workers"] == [1]
    # Round-robin placement: validator,w1 -> worker 0; w0,w2 -> worker 1.
    dead = sorted(n for n, p in par.procs.items() if p.crashed)
    assert dead == ["w0", "w2"]
    assert not par.procs["w1"].crashed
    # Every pending AID owned by the dead shard is now denied; the dead
    # workers' keys carry worker 1's serial stride.
    dead_keys = [k for k in par.backend._aid_statuses
                 if k.startswith(("w0-", "w2-"))]
    assert dead_keys, "dead workers minted assumptions before the crash"
    assert all(par.aid_status(k) is not AidStatus.PENDING for k in dead_keys)
    assert any(par.aid_status(k) is AidStatus.DENIED for k in dead_keys)
    # Survivors keep only committed outputs — nothing speculative leaked.
    for name in ("validator", "w1"):
        assert par.outputs(name) == par.committed_outputs(name)


def test_rejects_unsupported_options():
    from repro.sim.faults import FaultPlan, LinkFaults

    with pytest.raises(HopeError, match="fault plans"):
        HopeSystem(backend="parallel", latency=ConstantLatency(1.0),
                   faults=FaultPlan(default=LinkFaults(drop=0.5)))
    with pytest.raises(HopeError, match="ConstantLatency"):
        HopeSystem(backend="parallel")  # zero-latency default: no lookahead
    with pytest.raises(HopeError, match="ConstantLatency"):
        from repro.sim.random import RandomStream

        HopeSystem(backend="parallel",
                   latency=UniformLatency(0.5, 1.5, RandomStream(0, "lat")))
    with pytest.raises(HopeError, match="workers"):
        HopeSystem(backend="sim", workers=4)
    with pytest.raises(HopeError, match="unknown parallel_opts"):
        HopeSystem(backend="parallel", latency=ConstantLatency(1.0),
                   parallel_opts={"typo": 1})
    # fossil_collect is on by default, so it cannot be a refusal: the
    # backend takes it either way (and builds shards that never collect).
    for flag in (True, False):
        HopeSystem(backend="parallel", latency=ConstantLatency(1.0),
                   fossil_collect=flag)


def test_shards_never_collect():
    """A shard cannot see the pins another shard holds on its AIDs, so no
    shard runs a fossil pass, whatever the coordinator was built with."""
    def build(system):
        build_chaos_mesh(system, workers=3, rounds=40)

    assert run_system(build, 3).stats()["fossil_collections"] >= 1
    par = run_system(build, 3, "parallel", 1)          # one shard: all 160 finalizes
    assert par.fossil_collect                          # the default
    stats = par.stats()
    assert stats["finalizes"] >= 64
    assert stats["fossil_collections"] == 0


def test_placement_override_keeps_fingerprint():
    build = WORKLOADS["fanout"]
    want = committed_state(run_system(build, 4))
    placement = {}
    for i in range(3):
        placement[f"fv{i}"] = i % 2
        placement[f"fw{i}"] = i % 2   # co-locate each pair
    par = HopeSystem(seed=4, latency=ConstantLatency(1.0),
                     backend="parallel", workers=2,
                     parallel_opts={"placement": placement})
    build(par)
    par.run(max_events=200_000)
    assert committed_state(par) == want
    # Co-located pairs exchange no message frames, only resolutions.
    assert par.stats()["wire"]["frames_out"] == 0


def test_spawn_after_run_rejected():
    par = run_system(WORKLOADS["mesh"], 0, "parallel", 2)
    with pytest.raises(HopeError, match="spawns must precede run"):
        par.spawn("late", lambda p: iter(()))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork")
def test_sim_backend_untouched_by_extraction():
    """The Backend seam must not perturb the simulator: a sim system's
    trace-visible numbers are independent of the parallel module even
    being imported."""
    import repro.parallel  # noqa: F401 - import side effects only

    sim = run_system(WORKLOADS["ring"], 9)
    again = run_system(WORKLOADS["ring"], 9)
    assert sim.stats() == again.stats()
    assert committed_state(sim) == committed_state(again)
