"""Interleaving-level exploration: permuted same-time event orderings.

Seeded shuffling is a :class:`~repro.verify.RandomTies` schedule
controller: each same-time batch fires a member drawn from the stream
``"schedule-ties"``."""

import pytest

from repro.runtime import HopeSystem
from repro.sim import Simulator
from repro.verify import (
    RandomTies,
    chain_scenario,
    explore,
    free_of_scenario,
    run_scenario,
)


def test_tie_breaker_permutes_same_time_events():
    sim = Simulator(controller=RandomTies(3))
    order = []
    for tag in range(6):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert sorted(order) == list(range(6))
    assert order != list(range(6))          # seed 3 happens to permute


def test_tie_breaker_is_seeded_deterministic():
    def run(seed):
        sim = Simulator(controller=RandomTies(seed))
        order = []
        for tag in range(8):
            sim.schedule(2.0, order.append, tag)
        sim.run()
        return order

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_shuffled_system_equal_seed_reproduces():
    def run():
        system = HopeSystem(seed=11, controller=RandomTies(11))
        out = []

        def a(p):
            yield p.compute(1.0)
            yield p.emit("a")
            out.append(("a", (yield p.now())))

        def b(p):
            yield p.compute(1.0)
            yield p.emit("b")
            out.append(("b", (yield p.now())))

        system.spawn("a", a)
        system.spawn("b", b)
        system.run()
        return out

    assert run() == run()


@pytest.mark.parametrize("seed", range(6))
def test_scenarios_conform_under_shuffled_schedules(seed):
    for scenario in (
        chain_scenario(depth=2, decide=False, verify_delay=1.0),
        free_of_scenario(violate=True),
        free_of_scenario(violate=False),
    ):
        outcome = run_scenario(
            scenario, seed=seed, latency=1.0, shuffle_ties=True
        )
        assert outcome.ok, (scenario.name, outcome.violations)


def test_shuffled_campaign_finds_no_violations():
    report = explore(n_runs=40, root_seed=101, shuffle_ties=True)
    assert report.ok, report.summary()
    assert sum(run.rollbacks for run in report.runs) > 0
