"""Model-checking harness tests: scenarios, invariants, exploration."""

import pytest

from repro.verify import (
    chain_scenario,
    check_quiescent,
    check_run,
    explore,
    free_of_scenario,
    two_aid_scenario,
)


@pytest.mark.parametrize("decide", [True, False])
@pytest.mark.parametrize("depth", [1, 3])
def test_chain_scenario_conforms(depth, decide):
    scenario = chain_scenario(depth=depth, decide=decide, verify_delay=2.0)
    outcome = check_run(scenario, seed=1, latency=1.0)
    assert outcome.ok, outcome.violations
    if not decide:
        assert outcome.rollbacks >= 1


@pytest.mark.parametrize("dx,dy", [(0.5, 4.0), (4.0, 0.5)])
@pytest.mark.parametrize("decide_x", [True, False])
@pytest.mark.parametrize("decide_y", [True, False])
def test_two_aid_scenario_all_verdict_orders(decide_x, decide_y, dx, dy):
    scenario = two_aid_scenario(decide_x, decide_y, dx, dy)
    outcome = check_run(scenario, seed=2, latency=0.5)
    assert outcome.ok, outcome.violations


@pytest.mark.parametrize("violate", [True, False])
def test_free_of_scenario_conforms(violate):
    scenario = free_of_scenario(violate)
    outcome = check_run(scenario, seed=3, latency=1.0)
    assert outcome.ok, outcome.violations
    if violate:
        assert outcome.rollbacks >= 1


def test_determinism_same_seed_same_fingerprint():
    scenario = chain_scenario(depth=2, decide=False, verify_delay=1.5)
    outcome = check_run(scenario, seed=9, latency=2.0)
    assert outcome.ok, outcome.violations
    assert check_run(scenario, seed=9, latency=2.0).fingerprint == outcome.fingerprint


def test_exploration_campaign_registry_mode():
    report = explore(n_runs=60, root_seed=5)
    assert report.ok, report.summary()
    # the campaign must actually exercise rollbacks, not just happy paths
    assert sum(run.rollbacks for run in report.runs) > 5


def test_oracle_catches_a_wrong_reference():
    """Sanity: the harness is able to fail (a deliberately wrong oracle)."""
    scenario = chain_scenario(depth=1, decide=True, verify_delay=1.0)
    broken = type(scenario)(
        name=scenario.name,
        build=scenario.build,
        reference={"root": ["root-pessimistic"]},   # wrong on purpose
    )
    outcome = check_run(broken, seed=1, latency=1.0)
    assert not outcome.ok
    assert any("oracle mismatch" in v for v in outcome.violations)


@pytest.mark.parametrize("decide", [True, False])
def test_diamond_scenario_conforms(decide):
    from repro.verify import diamond_scenario

    scenario = diamond_scenario(decide=decide, verify_delay=2.0)
    outcome = check_run(scenario, seed=4, latency=1.0)
    assert outcome.ok, outcome.violations
    if not decide:
        assert outcome.rollbacks >= 1


def test_diamond_second_tag_folds_into_existing_interval():
    """The sink's second tagged receive must not create a new interval."""
    from repro.runtime import HopeSystem
    from repro.verify import diamond_scenario

    scenario = diamond_scenario(decide=True, verify_delay=30.0)
    system = HopeSystem()
    scenario.build(system)
    system.run(until=20.0)                   # both arrivals, verdict pending
    record = system.machine.process("sink")
    assert len(record.intervals) == 1


def test_per_run_seeds_disjoint_across_root_seeds():
    """Campaign seeds come from the seeded stream, so different root
    seeds explore different (seed, scenario) pairs instead of partially
    replaying each other (the old ``root * 10_007 + index`` arithmetic
    collided across campaigns)."""
    campaigns = {root: explore(n_runs=20, root_seed=root) for root in (0, 1, 2)}
    seed_sets = {
        root: {run.seed for run in report.runs}
        for root, report in campaigns.items()
    }
    for a in seed_sets:
        for b in seed_sets:
            if a < b:
                assert not (seed_sets[a] & seed_sets[b]), (a, b)


def test_per_run_seeds_reproducible_for_equal_root_seed():
    first = explore(n_runs=15, root_seed=9)
    second = explore(n_runs=15, root_seed=9)
    assert [r.seed for r in first.runs] == [r.seed for r in second.runs]
    assert [r.fingerprint for r in first.runs] == [
        r.fingerprint for r in second.runs
    ]


def test_summary_marks_failures_beyond_the_first_ten():
    from repro.verify import ExplorationReport, Run

    report = ExplorationReport()
    scenario = chain_scenario(depth=1, decide=True, verify_delay=1.0)
    for index in range(13):
        report.runs.append(
            Run(scenario, seed=index, latency=1.0, violations=["boom"])
        )
    summary = report.summary()
    assert summary.count("FAIL") == 10
    assert "(+3 more failures)" in summary


def test_summary_no_marker_at_ten_or_fewer_failures():
    from repro.verify import ExplorationReport, Run

    report = ExplorationReport()
    scenario = chain_scenario(depth=1, decide=True, verify_delay=1.0)
    for index in range(10):
        report.runs.append(
            Run(scenario, seed=index, latency=1.0, violations=["boom"])
        )
    assert "more failures" not in report.summary()
