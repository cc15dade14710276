"""Tests for the seeded chaos harness (repro.chaos)."""

import json

import pytest

from repro import cli
from repro.chaos import (
    WORKLOADS,
    committed_state,
    format_report,
    run_matrix,
    standard_plans,
)
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, FaultPlan, LinkFaults, Tracer
from repro.bench.workloads import build_chaos_mesh
from repro.verify import RecordingController, Run, check_run, replay, walk


# ---------------------------------------------------------------- the matrix
def test_full_matrix_is_green_and_big_enough(tmp_path):
    """The PR's acceptance bar: >= 20 seed x fault-plan combos across the
    registered workloads, monitors attached, zero invariant violations,
    and every faulty run's committed state equal to its fault-free
    twin's."""
    report = run_matrix(seeds=(1, 2, 3), repro_dir=str(tmp_path))
    assert report["total"] >= 20
    assert report["failures"] == []
    assert report["passed"] == report["total"]
    assert report["determinism_checked"] > 0
    assert report["repro_files"] == []
    assert "cases passed" in format_report(report)


def test_case_fingerprint_reproduces_per_seed():
    workload = WORKLOADS["mesh"]
    plan = standard_plans("mesh")["storm"]
    first = check_run(workload, seed=2, faults=plan, reliable=True)
    second = check_run(workload, seed=2, faults=plan, reliable=True)
    other_seed = check_run(workload, seed=9, faults=plan, reliable=True)
    assert first.ok and second.ok
    assert first.fingerprint == second.fingerprint
    assert first.fingerprint != other_seed.fingerprint


def test_faulty_committed_state_matches_twin_directly():
    workload = WORKLOADS["ring"]
    twin = check_run(workload, seed=4, reliable=True, label="fault-free")
    faulty = check_run(
        workload, seed=4, faults=standard_plans("ring")["drop-heavy"],
        reliable=True, twin=twin,
    )
    assert twin.ok and faulty.ok
    assert faulty.committed == twin.committed


def test_check_run_flags_divergence_from_twin():
    workload = WORKLOADS["mesh"]
    fake_twin = Run(workload, ledgers={"validator": ("something-else",)})
    result = check_run(workload, seed=1, reliable=True, twin=fake_twin)
    assert not result.ok
    assert "diverged" in result.failure


# ---------------------------------------------------------------- shrinking
def _blackout(tmp_path):
    """Drop everything with retries off: a case that must fail."""
    return run_matrix(
        workloads=["mesh"],
        seeds=(1,),
        plans={"blackout": FaultPlan(default=LinkFaults(drop=1.0))},
        reliable=False,            # no retries: the drop is fatal
        repro_dir=str(tmp_path),
        verify_determinism=False,
        max_events=50_000,
    )


def test_failing_case_writes_shrunken_reproducer(tmp_path):
    """Force a failure and check the harness shrinks it — the choices
    that do not matter take their no-fault default — and writes a
    runnable JSON reproducer with the configuration it failed under."""
    report = _blackout(tmp_path)
    assert len(report["failures"]) == 1
    assert len(report["repro_files"]) == 1
    path = report["repro_files"][0]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["scenario"] == {"factory": "mesh", "kwargs": {}}
    assert payload["seed"] == 1
    assert payload["failure"]
    assert (payload["reliable"], payload["max_events"]) == (False, 50_000)
    assert payload["faults"] == FaultPlan(default=LinkFaults(drop=1.0)).to_dict()
    assert len(payload["choices"]) < len(report["failures"][0].choices)
    # the shrunken reproducer still fails when re-run
    rerun = replay(path)
    assert not rerun.ok
    assert rerun.fingerprint == payload["fingerprint"]


def test_blackout_reproducer_fails_when_replayed_by_the_cli(tmp_path, capsys):
    """The file keeps ``reliable=False`` and ``max_events``: replaying it
    fails as the matrix case did, instead of passing under the defaults."""
    path = _blackout(tmp_path)["repro_files"][0]
    assert cli.main(["chaos", "--repro", path]) == 1
    assert "reproducer no longer fails" not in capsys.readouterr().out


def test_run_reproducer_roundtrip(tmp_path):
    payload = {
        "scenario": {"factory": "ring", "kwargs": {}},
        "seed": 2,
        "latency": 1.0,
        "max_events": 200_000,
        "faults": FaultPlan(default=LinkFaults(drop=0.2)).to_dict(),
        "reliable": True,
        "max_drops": None,
        "choices": [],
        "failure": "synthetic",
    }
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(payload))
    result = replay(str(path))
    assert result.scenario.name == "ring"
    assert result.seed == 2
    assert result.ok  # with reliable delivery this plan passes


def test_reproducer_keeps_custom_reliable_and_detector_configs(tmp_path):
    """A custom ``ReliableConfig`` round-trips through the file.  (The
    failure detector is gone: tests/verify/test_dpor.py checks that the
    writer no longer emits its key and how an old file's key loads.)"""
    from repro.runtime import ReliableConfig
    from repro.verify.driver import load_reproducer, write_reproducer

    run = Run(
        WORKLOADS["ring"], seed=3, reliable=ReliableConfig(ack_timeout=3.0, max_attempts=4),
    )
    path = write_reproducer(str(tmp_path / "r.json"), run, [0, 1])
    scenario, config, max_drops, choices = load_reproducer(path)
    assert (scenario.name, config["seed"], max_drops, choices) == ("ring", 3, None, [0, 1])
    assert (config["reliable"].ack_timeout, config["reliable"].max_attempts) == (3.0, 4)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_walks_replay_from_their_recorded_choices(workload):
    """Every fate of a walk is drawn even where a prescription decides it,
    so replaying the recorded choices is the walk, byte for byte."""
    scenario = WORKLOADS[workload]
    twin = check_run(scenario, seed=1, reliable=True)
    for name, plan in standard_plans(workload).items():
        config = dict(seed=1, faults=plan, reliable=True, twin=twin)
        run = walk(scenario, **config)
        assert run.ok, (name, run.failure)
        controller = RecordingController(run.choices, max_drops=None)
        again = check_run(scenario, controller=controller, **config)
        assert (again.fingerprint, again.choices) == (run.fingerprint, run.choices), name


# ---------------------------------------------------------------- purity
def test_fault_layer_disabled_is_byte_identical_to_plain_run():
    """faults=None must construct the plain Network and leave traces
    byte-identical to a system built with no fault arguments at all."""
    def run(**kwargs):
        tracer = Tracer()
        system = HopeSystem(seed=6, latency=ConstantLatency(1.0), trace=tracer, **kwargs)
        build_chaos_mesh(system)
        system.run(max_events=100_000)
        return tracer.fingerprint(), committed_state(system)

    plain = run()
    disabled = run(faults=None, reliable=False)
    assert plain == disabled


def test_enabling_faults_perturbs_no_other_stream():
    """The fault layer draws from its own named stream: a fault-free and
    an all-null-plan run must make identical random decisions."""
    def run(plan):
        tracer = Tracer()
        system = HopeSystem(
            seed=6, latency=ConstantLatency(1.0), trace=tracer, faults=plan
        )
        build_chaos_mesh(system)
        system.run(max_events=100_000)
        return tracer.fingerprint()

    assert run(None) == run(FaultPlan())
