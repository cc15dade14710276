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

import hashlib
import json

import pytest

from repro.bench.workloads import build_chaos_mesh
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, FaultPlan, LinkFaults, Tracer
from repro.sim.kernel import SimulationError
from repro.verify import (
    DporExplorer,
    RecordingController,
    ReplayDivergence,
    ScheduleController,
    chain_scenario,
    explore,
    orphan_scenario,
    replay,
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
def test_a_controller_samples_fates_like_a_run_without_one():
    """A controller is the fault layer's fate source, and the base class
    samples ``streams["faults"]`` as a run without a controller does:
    leftmost choice is the canonical order, so the run is the same one,
    every kind of fate included."""
    plan = FaultPlan(default=LinkFaults(
        drop=0.3, duplicate=0.2, reorder=0.3, reorder_window=2.0, jitter=0.5
    ))

    def run(controller):
        tracer = Tracer()
        system = HopeSystem(
            seed=3, latency=ConstantLatency(1.0), trace=tracer, faults=plan,
            reliable=True, controller=controller,
        )
        build_chaos_mesh(system)
        system.run(max_events=200_000)
        return tracer.fingerprint(), system.stats()["faults"]

    plain, controlled = run(None), run(ScheduleController())
    assert controlled == plain
    assert all(plain[1][kind] > 0 for kind in (
        "dropped", "duplicated", "reordered", "acks_dropped"
    ))


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
    assert set(payload) == {
        "scenario", "seed", "latency", "faults", "reliable",
        "max_events", "max_drops", "allow_pending_orphans", "inject_bug",
        "choices", "failure", "fingerprint", "command",
    }
    assert payload["failure"] == report.failures[0].violations
    # shrinking kept a verified-failing prefix no longer than the original
    assert len(payload["choices"]) <= len(report.failures[0].choices)
    assert report.shrink_runs > 0

    again = replay(report.reproducer)
    assert again.violations == report.failures[0].violations
    # the reproducer's scenario spec round-trips
    rebuilt = scenario_from_spec(payload["scenario"])
    assert rebuilt.name == two_aid_scenario(**TWO_AID).name


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
    again = replay(str(path))
    assert again.violations == report.failures[0].violations
    assert again.fingerprint == payload["fingerprint"]


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
        again = replay(str(path))
        assert again.violations == report.failures[0].violations
        assert again.fingerprint == payload["fingerprint"]
    path.write_text(
        json.dumps({**payload, "aid_mode": "aid_task", "control_latency": 0.5})
    )
    with pytest.raises(
        ValueError,
        match=(r"aid_mode='aid_task'.*AIDMODE experiment "
               r"\(experiments/test_aid_modes\.py\)"),
    ):
        replay(str(path))


def test_reproducer_with_the_detector_off_still_replays(tmp_path):
    """Reproducers written while the runtime had a failure detector carry
    ``"detector": false``; such a file replays as it did."""
    report = explorer(
        two_aid_scenario(**TWO_AID), inject_bug=True, repro_dir=str(tmp_path)
    ).explore()
    payload = json.loads((tmp_path / report.reproducer.split("/")[-1]).read_text())
    path = tmp_path / "old-format.json"
    path.write_text(json.dumps({**payload, "detector": False}))
    again = replay(str(path))
    assert again.violations == report.failures[0].violations
    assert again.fingerprint == payload["fingerprint"]


@pytest.mark.parametrize("on", [True, {"interval": 2.0, "timeout": 9.0, "latency": 1.0}],
                         ids=["true", "config"])
def test_reproducer_with_the_detector_on_is_refused(tmp_path, on):
    """A run with the detector on cannot be replayed without it: the file
    is refused, naming the field."""
    path = tmp_path / "old-format.json"
    path.write_text(json.dumps({**DPOR_FILE, "detector": on}))
    with pytest.raises(ValueError, match=r"field 'detector': .* removed from the runtime"):
        replay(str(path))


#: A reproducer as the DPOR explorer wrote it before the chaos matrix and
#: the explorer shared one format: ``kind``, ``fault_plan``,
#: ``scenario_name``, ``original_choices``, ``shrink_runs``, no ``detector``.
DPOR_FILE = {
    "allow_pending_orphans": True,
    "choices": [0, 0, 0, 0, 0, 0, 1],
    "command": "python -m repro.cli verify --repro repro-dpor-two_aid_x_True_y_True_-1.json",
    "failure": ["injected bug: AID 'y#2' resolved first"],
    "fault_plan": None,
    "fingerprint": "a6c560873071c33d5d38f6cea678dc266f1d6be738df879102feedcd184ba5c4",
    "inject_bug": True,
    "kind": "dpor",
    "latency": 0.5,
    "max_drops": 1,
    "max_events": 200000,
    "original_choices": [0, 0, 0, 0, 0, 0, 1, 0, 0],
    "reliable": False,
    "scenario": {"factory": "two_aid", "kwargs": {
        "decide_x": True, "decide_y": True, "dx": 0.75, "dy": 0.75}},
    "scenario_name": "two_aid(x=True,y=True)",
    "seed": 0,
    "shrink_runs": 4,
}


def test_a_dpor_file_of_the_earlier_format_still_replays(tmp_path):
    path = tmp_path / "repro-dpor.json"
    path.write_text(json.dumps(DPOR_FILE))
    again = replay(str(path))
    assert again.violations == DPOR_FILE["failure"]
    assert again.fingerprint == DPOR_FILE["fingerprint"]


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
    plan = FaultPlan(default=LinkFaults(reorder=0.5, reorder_window=1.0))
    report = explorer(chain_scenario(1, True, 0.75), fault_plan=plan).explore()
    assert report.complete
    assert not report.failures, report.summary()
    assert report.schedules >= 2  # each delivery branches on-time/late


def test_drop_fates_without_reliability_rejected():
    plan = FaultPlan(default=LinkFaults(drop=0.5))
    with pytest.raises(ValueError, match="reliable"):
        explorer(two_aid_scenario(**TWO_AID), fault_plan=plan)


#: ``(scenario, faults, reliable, schedules, fp)``: each tree explored to
#: completion at ``latency=0.5``; ``fp`` is the first 12 hex digits of the
#: SHA-256 of its runs' trace fingerprints, concatenated in DFS order.
#: Recorded while DPOR still explored fates through a verify-only network
#: of its own; the shipped ``FaultyNetwork``, asking the
#: ``RecordingController``, must enumerate the very same trees.
FAULT_TREES = {
    "chain-drop": (("chain", 1, True, 0.75), LinkFaults(drop=0.5), True,
                   10, "5e120af0a528"),
    "chain-reorder": (("chain", 1, True, 0.75),
                      LinkFaults(reorder=0.5, reorder_window=1.0), False,
                      4, "9bf81ecc8928"),
    "two_aid-reorder": (("two_aid", True, True, 0.75, 0.75),
                        LinkFaults(reorder=0.5, reorder_window=1.0), False,
                        6, "419354830fe5"),
    "two_aid-drop": (("two_aid", True, False, 0.75, 0.75),
                     LinkFaults(drop=0.5), True, 22, "abb320412781"),
}


@pytest.mark.parametrize("case", sorted(FAULT_TREES))
def test_fault_trees_are_the_recorded_ones(case):
    (factory, *args), faults, reliable, schedules, fp = FAULT_TREES[case]
    scenario = chain_scenario(*args) if factory == "chain" else two_aid_scenario(*args)
    report = explorer(
        scenario, fault_plan=FaultPlan(default=faults), reliable=reliable
    ).explore()
    assert report.complete and not report.failures, report.summary()
    assert len(report.outcomes()) == 1
    assert report.schedules == schedules
    joined = "".join(run.fingerprint for run in report.runs)
    assert hashlib.sha256(joined.encode()).hexdigest()[:12] == fp


def _digest(runs) -> str:
    joined = "".join(run.fingerprint for run in runs)
    return hashlib.sha256(joined.encode()).hexdigest()[:12]


def test_the_three_campaigns_walk_the_recorded_paths(tmp_path):
    """What folding the three harnesses into one driver must not move,
    recorded before the fold: each digest is the first 12 hex digits of
    the SHA-256 of the campaign's run fingerprints, concatenated in
    order (the same under any ``PYTHONHASHSEED``)."""
    from repro.chaos import run_matrix

    matrix = run_matrix(seeds=(1, 2, 3), repro_dir=str(tmp_path))
    assert (matrix["total"], matrix["determinism_checked"]) == (42, 14)
    assert _digest(matrix["cases"]) == "94cf1a2bccf5"
    assert _digest(explore(80, 23).runs) == "17b7094108ce"
    assert _digest(explore(80, 23, shuffle_ties=True).runs) == "ca0df816bb71"
    reports = [explorer(scenario).explore() for scenario in standard_scenarios()]
    assert [r.schedules for r in reports] == [1, 1, 2, 3, 3, 2, 1, 1, 2, 1]
    assert _digest([run for r in reports for run in r.runs]) == "897ec32f4fb6"


def test_ack_and_heartbeat_loss_never_branch():
    """Retry timers already bound what a lost ack does, so the explorer
    neither records a choice point nor draws for one.  (There are no
    heartbeats any more: the failure detector that sent them is gone.)"""
    controller = RecordingController(max_drops=5)
    assert controller.fate(None, "ack", "a", "b", 1.0) is False
    assert controller.records == []
    assert controller.fate(None, "drop", "a", "b", 0.5) is False  # default: deliver
    assert [r.keys for r in controller.records] == [(("drop:a->b#0", 0), ("drop:a->b#0", 1))]


def test_duplicate_fates_rejected():
    """Duplicate and jitter draw from spaces with no finite choice-point
    analog: the explorer refuses a plan with either."""
    for faults in (LinkFaults(duplicate=0.5), LinkFaults(jitter=0.5)):
        plan = FaultPlan(default=faults)
        with pytest.raises(SimulationError, match="duplicate/jitter"):
            explorer(chain_scenario(1, True, 0.75), fault_plan=plan)
