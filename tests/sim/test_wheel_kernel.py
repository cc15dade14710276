"""Differential tests: the timer-wheel kernel against the heap oracle.

The wheel is only admissible because it implements the exact same
(time, priority, seq) total order as the binary heap — every test here
runs the same workload under ``kernel="heap"`` and ``kernel="wheel"``
and asserts byte-identical outcomes: execution sequences for the raw
simulator, trace fingerprints for full HOPE systems (across seeds,
fault plans, fossil collection, and shuffled ties).
"""

import random

import pytest

from repro.bench.workloads import build_chaos_mesh, build_chaos_ring
from repro.chaos import WORKLOADS, run_case, standard_plans
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Simulator, Tracer


# ----------------------------------------------------------------------
# raw kernel: randomized schedule/cancel workloads
# ----------------------------------------------------------------------
def _drive_random_workload(kernel: str, seed: int) -> list[tuple[float, int]]:
    """Execute a randomized schedule/cancel/reschedule storm and return
    the exact (time, tag) execution sequence."""
    rng = random.Random(seed)
    sim = Simulator(kernel=kernel)
    fired: list[tuple[float, int]] = []
    outstanding: list = []
    counter = iter(range(10**9))

    def fire(tag: int) -> None:
        fired.append((sim.now, tag))
        # occasionally schedule follow-ups from inside an event
        r = rng.random()
        if r < 0.40:
            delay = rng.choice([0.0, 0.1, 0.33, 1.0, 7.7, 64.0, 5000.0])
            outstanding.append(sim.schedule(delay, fire, next(counter)))
        if r < 0.15 and outstanding:
            outstanding.pop(rng.randrange(len(outstanding))).cancel()

    for _ in range(300):
        delay = rng.random() * rng.choice([1.0, 10.0, 1000.0, 300000.0])
        outstanding.append(sim.schedule(delay, fire, next(counter)))
    for _ in range(60):
        outstanding.pop(rng.randrange(len(outstanding))).cancel()
    sim.run(max_events=50_000)
    return fired


@pytest.mark.parametrize("seed", range(8))
def test_random_workload_identical_between_kernels(seed):
    heap = _drive_random_workload("heap", seed)
    wheel = _drive_random_workload("wheel", seed)
    assert heap == wheel


def test_tie_breaker_order_identical_between_kernels():
    """Priority-shuffled same-time events fire in the same (permuted)
    order under both kernels."""

    def run(kernel):
        rng = random.Random(42)
        sim = Simulator(
            kernel=kernel, tie_breaker=lambda: rng.randint(0, 1 << 30)
        )
        order = []
        for tag in range(32):
            sim.schedule(1.0, order.append, tag)
        for tag in range(32, 48):
            sim.schedule(2.0, order.append, tag)
        sim.run()
        return order

    assert run("heap") == run("wheel")


# ----------------------------------------------------------------------
# full HOPE systems: trace fingerprints across engine modes
# ----------------------------------------------------------------------
def _system_fingerprint(kernel: str, build, seed: int, **system_kw) -> str:
    tracer = Tracer()
    system = HopeSystem(
        seed=seed,
        latency=ConstantLatency(1.0),
        trace=tracer,
        kernel=kernel,
        **system_kw,
    )
    build(system)
    system.run(max_events=200_000)
    return tracer.fingerprint()


_ENGINE_MODES = {
    "plain": {"fossil_collect": False},
    "fossil": {"fossil_collect": True, "fossil_interval": 4},
    "shuffled": {"shuffle_ties": True},
}


@pytest.mark.parametrize("mode", sorted(_ENGINE_MODES))
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("build", [build_chaos_mesh, build_chaos_ring])
def test_hope_fingerprints_identical_between_kernels(build, seed, mode):
    kw = _ENGINE_MODES[mode]
    heap = _system_fingerprint("heap", build, seed, **kw)
    wheel = _system_fingerprint("wheel", build, seed, **kw)
    assert heap == wheel


# ----------------------------------------------------------------------
# fault-plan matrix: chaos cases heap vs wheel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_fault_matrix_fingerprints_identical_between_kernels(workload, seed):
    """The full standard fault-plan matrix (drops, dups, reorder, jitter,
    storm, partition) produces byte-identical trace fingerprints under
    both kernels."""
    wl = WORKLOADS[workload]
    plans = dict(standard_plans(workload))
    plans["fault-free"] = None
    for plan_name, plan in sorted(plans.items()):
        heap = run_case(wl, seed, plan, plan_name=plan_name, kernel="heap")
        wheel = run_case(wl, seed, plan, plan_name=plan_name, kernel="wheel")
        assert heap.ok, (plan_name, heap.failure)
        assert wheel.ok, (plan_name, wheel.failure)
        assert heap.fingerprint == wheel.fingerprint, plan_name
        assert heap.committed == wheel.committed, plan_name
