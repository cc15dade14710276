"""Tests for the seeded chaos harness (repro.chaos)."""

import json

from repro.chaos import (
    WORKLOADS,
    committed_state,
    format_report,
    run_case,
    run_matrix,
    run_reproducer,
    shrink_plan,
    standard_plans,
)
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, FaultPlan, LinkFaults, Tracer
from repro.bench.workloads import build_chaos_mesh


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
    first = run_case(workload, 2, plan)
    second = run_case(workload, 2, plan)
    other_seed = run_case(workload, 9, plan)
    assert first.ok and second.ok
    assert first.fingerprint == second.fingerprint
    assert first.fingerprint != other_seed.fingerprint


def test_faulty_committed_state_matches_twin_directly():
    workload = WORKLOADS["ring"]
    twin = run_case(workload, 4, None, plan_name="fault-free")
    faulty = run_case(
        workload, 4, standard_plans("ring")["drop-heavy"], twin=twin.committed
    )
    assert twin.ok and faulty.ok
    assert faulty.committed == twin.committed


def test_run_case_flags_divergence_from_twin():
    workload = WORKLOADS["mesh"]
    fake_twin = {"validator": ("something-else",)}
    result = run_case(workload, 1, None, twin=fake_twin)
    assert not result.ok
    assert "diverged" in result.failure


# ---------------------------------------------------------------- shrinking
def test_shrink_plan_zeroes_irrelevant_knobs():
    plan = FaultPlan(
        default=LinkFaults(drop=0.4, duplicate=0.3, jitter=2.0)
    )
    # a predicate that only cares about drop: everything else shrinks away
    minimal, runs = shrink_plan(plan, lambda p: p.default.drop >= 0.1)
    assert minimal.default.duplicate == 0.0
    assert minimal.default.jitter == 0.0
    assert minimal.default.drop >= 0.1
    assert 0 < runs <= 40


def test_failing_case_writes_shrunken_reproducer(tmp_path):
    """Force a failure (drop everything with retries off) and check the
    harness shrinks it and writes a runnable JSON reproducer."""
    plans = {"blackout": FaultPlan(default=LinkFaults(drop=1.0))}
    report = run_matrix(
        workloads=["mesh"],
        seeds=(1,),
        plans=plans,
        reliable=False,            # no retries: the drop is fatal
        repro_dir=str(tmp_path),
        verify_determinism=False,
        max_events=50_000,
    )
    assert len(report["failures"]) == 1
    assert len(report["repro_files"]) == 1
    path = report["repro_files"][0]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["workload"] == "mesh"
    assert payload["seed"] == 1
    assert payload["failure"]
    assert payload["plan"] is not None
    # the shrunken plan still fails when re-run
    rerun = run_case(
        WORKLOADS["mesh"], 1, FaultPlan.from_dict(payload["plan"]),
        reliable=False, max_events=50_000,
    )
    assert not rerun.ok


def test_run_reproducer_roundtrip(tmp_path):
    payload = {
        "workload": "ring",
        "seed": 2,
        "failure": "synthetic",
        "plan": FaultPlan(default=LinkFaults(drop=0.2)).to_dict(),
    }
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(payload))
    result = run_reproducer(str(path))
    assert result.workload == "ring"
    assert result.seed == 2
    assert result.ok  # with reliable delivery this plan passes


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
    disabled = run(faults=None, reliable=False, failure_detector=False)
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
