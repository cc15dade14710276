"""DPOR explorer tests: exhaustiveness, reduction soundness, reproducers.

The hand-computed bounds below follow from the scenario structure at
``latency=0.5``:

* ``two_aid(x=True,y=True,dx=0.75,dy=0.75)`` — both verdicts land in one
  tie batch at t=1.25 *after* the worker guessed both AIDs, and both
  resolutions finalize worker intervals (footprints intersect on
  ``worker``), so that tie is the only dependent pair: exactly **2**
  inequivalent interleavings.  The unreduced tree is every permutation of
  every tie batch: 3! starts x 2 deliveries x 2 resolutions = **24**.
"""

import json

import pytest

from repro.core import HopeError
from repro.runtime import HopeSystem
from repro.sim import FaultPlan, LinkFaults
from repro.sim.kernel import SimulationError, Simulator
from repro.verify import (
    DporExplorer,
    ReplayDivergence,
    ScheduleController,
    orphan_scenario,
    run_dpor_reproducer,
    scenario_from_spec,
    standard_scenarios,
    two_aid_scenario,
)

TWO_AID = dict(decide_x=True, decide_y=True, dx=0.75, dy=0.75)


def explorer(scenario, **kwargs):
    kwargs.setdefault("latency", 0.5)
    return DporExplorer(scenario, **kwargs)


# ---------------------------------------------------------------------------
# exhaustiveness and reduction
# ---------------------------------------------------------------------------
def test_two_aid_dpor_matches_hand_computed_bound():
    report = explorer(two_aid_scenario(**TWO_AID)).explore()
    assert report.complete
    assert report.schedules == 2  # the resolution tie is the only dependent pair
    assert not report.failures, report.failures


def test_two_aid_full_enumeration_count():
    report = explorer(two_aid_scenario(**TWO_AID), prune=False).explore()
    assert report.complete
    assert report.schedules == 24  # 3! * 2 * 2 tie permutations
    assert not report.failures, report.failures


@pytest.mark.parametrize("decide_x", [True, False])
@pytest.mark.parametrize("decide_y", [True, False])
def test_dpor_reaches_every_outcome_full_enumeration_reaches(decide_x, decide_y):
    scenario = two_aid_scenario(decide_x, decide_y, 0.75, 0.75)
    reduced = explorer(scenario).explore()
    full = explorer(scenario, prune=False).explore()
    assert reduced.complete and full.complete
    assert reduced.schedules <= full.schedules
    assert reduced.outcomes() == full.outcomes()
    assert not reduced.failures and not full.failures


def test_every_standard_scenario_verifies_exhaustively():
    for scenario in standard_scenarios():
        report = explorer(scenario).explore()
        assert report.complete, scenario.name
        assert not report.failures, (scenario.name, report.summary())
        assert len(report.outcomes()) == 1, scenario.name


def test_exploration_deterministic_across_repeats():
    for prune in (True, False):
        first = explorer(two_aid_scenario(**TWO_AID), prune=prune).explore()
        second = explorer(two_aid_scenario(**TWO_AID), prune=prune).explore()
        assert [r.choices for r in first.runs] == [r.choices for r in second.runs]
        assert [r.fingerprint for r in first.runs] == [
            r.fingerprint for r in second.runs
        ]


def test_budget_exhaustion_reported_incomplete():
    report = explorer(two_aid_scenario(**TWO_AID), prune=False, max_schedules=5).explore()
    assert report.schedules == 5
    assert not report.complete
    assert not report.ok  # incomplete enumeration proves nothing


# ---------------------------------------------------------------------------
# replay determinism
# ---------------------------------------------------------------------------
def test_replaying_choices_reproduces_byte_identical_fingerprints():
    ex = explorer(two_aid_scenario(**TWO_AID), prune=False)
    report = ex.explore()
    for run in report.runs:
        _controller, replay = ex.execute(run.choices)
        assert replay.fingerprint == run.fingerprint
        assert replay.choices == run.choices


def test_out_of_range_prescription_is_replay_divergence():
    ex = explorer(two_aid_scenario(**TWO_AID))
    with pytest.raises(ReplayDivergence):
        ex.execute([99])


# ---------------------------------------------------------------------------
# the controller seam
# ---------------------------------------------------------------------------
def test_controller_and_shuffle_ties_mutually_exclusive():
    with pytest.raises(HopeError):
        HopeSystem(shuffle_ties=True, controller=ScheduleController())


def test_controller_and_tie_breaker_mutually_exclusive():
    with pytest.raises(SimulationError):
        Simulator(tie_breaker=lambda events: events, controller=ScheduleController())


def test_controller_bad_index_rejected():
    class Bad(ScheduleController):
        def choose(self, time, events):
            return len(events)  # one past the end

    system = HopeSystem(controller=Bad())

    def proc(p):
        yield p.emit("hi")

    system.spawn("a", proc)
    with pytest.raises(SimulationError, match="out of a batch"):
        system.run()


# ---------------------------------------------------------------------------
# injected bug: find -> shrink -> reproduce
# ---------------------------------------------------------------------------
def test_injected_bug_found_shrunk_and_reproduced(tmp_path):
    ex = explorer(
        two_aid_scenario(**TWO_AID), inject_bug=True, repro_dir=str(tmp_path)
    )
    report = ex.explore()
    assert report.complete
    assert len(report.failures) == 1  # only the y-first interleaving trips it
    assert report.reproducer is not None

    payload = json.loads((tmp_path / report.reproducer.split("/")[-1]).read_text())
    assert payload["kind"] == "dpor"
    assert payload["failure"] == report.failures[0].violations
    # shrinking kept a verified-failing prefix no longer than the original
    assert len(payload["choices"]) <= len(payload["original_choices"])
    assert report.shrink_runs > 0

    replay = run_dpor_reproducer(report.reproducer)
    assert replay.violations == report.failures[0].violations
    # the reproducer's scenario spec round-trips
    rebuilt = scenario_from_spec(payload["scenario"])
    assert rebuilt.name == payload["scenario_name"]
    assert "kernel" not in payload
    assert "aid_mode" not in payload and "control_latency" not in payload


def test_reproducer_naming_an_event_queue_kernel_still_replays(tmp_path):
    """Reproducers written while ``DporExplorer`` took a ``kernel`` carry
    ``"kernel": "wheel"`` (or "heap" / "window").  Every kernel produced
    the same event order, so the field is ignored and the file replays."""
    report = explorer(
        two_aid_scenario(**TWO_AID), inject_bug=True, repro_dir=str(tmp_path)
    ).explore()
    path = tmp_path / "old-format.json"
    payload = json.loads((tmp_path / report.reproducer.split("/")[-1]).read_text())
    payload["kernel"] = "wheel"
    path.write_text(json.dumps(payload))
    replay = run_dpor_reproducer(str(path))
    assert replay.violations == report.failures[0].violations
    assert replay.fingerprint == payload["fingerprint"]


def test_reproducer_aid_mode_key_absent_registry_or_refused(tmp_path):
    """Reproducers written while the engine had an AID-task mode carry
    ``aid_mode`` and ``control_latency``.  A registry-mode file replays
    (the runtime's only mode); an ``aid_task`` one is refused by name."""
    report = explorer(
        two_aid_scenario(**TWO_AID), inject_bug=True, repro_dir=str(tmp_path)
    ).explore()
    payload = json.loads((tmp_path / report.reproducer.split("/")[-1]).read_text())
    path = tmp_path / "old-format.json"
    for legacy in ({}, {"aid_mode": "registry", "control_latency": 0.5}):
        path.write_text(json.dumps({**payload, **legacy}))
        replay = run_dpor_reproducer(str(path))
        assert replay.violations == report.failures[0].violations
        assert replay.fingerprint == payload["fingerprint"]
    path.write_text(
        json.dumps({**payload, "aid_mode": "aid_task", "control_latency": 0.5})
    )
    with pytest.raises(ValueError, match="aid_mode='aid_task'.*AIDMODE"):
        run_dpor_reproducer(str(path))


def test_without_injected_bug_no_reproducer_written(tmp_path):
    report = explorer(
        two_aid_scenario(**TWO_AID), repro_dir=str(tmp_path)
    ).explore()
    assert report.reproducer is None
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# quiescence: the orphan branch, both ways
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("resolve", [True, False])
def test_orphan_scenario_lenient_quiescence_passes(resolve):
    report = explorer(orphan_scenario(resolve)).explore()
    assert report.complete and not report.failures


def test_orphan_strict_quiescence_rejects_unresolved_aid():
    report = explorer(
        orphan_scenario(False), allow_pending_orphans=False
    ).explore()
    assert report.complete
    assert report.failures
    assert all(
        any("pending orphan" in v for v in run.violations)
        for run in report.failures
    )


def test_orphan_strict_quiescence_accepts_resolved_aid():
    report = explorer(
        orphan_scenario(True), allow_pending_orphans=False
    ).explore()
    assert report.complete and not report.failures


# ---------------------------------------------------------------------------
# fault fates as choice points
# ---------------------------------------------------------------------------
def test_drop_fates_explored_under_reliable_delivery():
    from repro.verify import chain_scenario

    plan = FaultPlan(default=LinkFaults(drop=0.5))
    report = explorer(
        chain_scenario(1, True, 0.75), fault_plan=plan, reliable=True
    ).explore()
    assert report.complete
    assert not report.failures, report.summary()
    # at least one explored execution actually dropped a message
    assert report.schedules > explorer(chain_scenario(1, True, 0.75)).explore().schedules
    assert len(report.outcomes()) == 1  # losses are masked by resend


def test_reorder_fates_explored_without_reliability():
    from repro.verify import chain_scenario

    plan = FaultPlan(default=LinkFaults(reorder=0.5, reorder_window=1.0))
    report = explorer(chain_scenario(1, True, 0.75), fault_plan=plan).explore()
    assert report.complete
    assert not report.failures, report.summary()
    assert report.schedules >= 2  # each delivery branches on-time/late


def test_drop_fates_without_reliability_rejected():
    plan = FaultPlan(default=LinkFaults(drop=0.5))
    with pytest.raises(ValueError, match="reliable"):
        explorer(two_aid_scenario(**TWO_AID), fault_plan=plan)


def test_duplicate_fates_rejected():
    from repro.verify import DirectedFaultyNetwork, chain_scenario

    plan = FaultPlan(default=LinkFaults(duplicate=0.5))
    report_explorer = explorer(chain_scenario(1, True, 0.75), fault_plan=plan)
    with pytest.raises(SimulationError, match="duplicate"):
        report_explorer.execute()
