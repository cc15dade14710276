"""Self-check of the benchmark harness (not part of tier-1; run it explicitly):

    python -m pytest benchmarks/e2e/test_e2e_selfcheck.py -q

It runs the ``--quick`` suite three times (about half a minute in all).
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

LINE = re.compile(r"^(\w+)\s+(\S+)\s+(-?[\d.]+(?:e[-+]?\d+)?)\s+(\S+)")


def quick_suite(seed, directory):
    out = os.path.join(directory, f"quick-{seed}.json")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", str(seed),
         "--out", out],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return done.stdout, json.load(fh)["workloads"]


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("e2e"))
    return [quick_suite(seed, directory) for seed in (1, 1, 2)]


def test_printed_names_are_declared(suites):
    spec = run.load_spec()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} | set(run.DERIVED)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    stdout, _ = suites[0]
    printed = set()
    for line in stdout.splitlines():
        match = LINE.match(line)
        if match and match.group(1) in run.WORKLOADS:
            _workload, name, _value, unit = match.groups()
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert name in declared, name
            assert unit == units.get(name, run.DERIVED.get(name, {}).get("unit")), name
            printed.add(name)
    assert printed == declared


def test_all_ops_commit_the_oracle_ledger(suites):
    for _stdout, workloads in suites:
        for name, record in workloads.items():
            assert record["end_to_end"]["fail_share"]["value"] == 0, name
            assert record["deterministic"], name


def test_corrupted_ledger_is_caught():
    spec = run.load_spec()
    timed = run.run_child("timed", "pingpong", 1, True, "--corrupt")
    observed = run.run_child("observed", "pingpong", 1, True)
    record = run.summarise([timed], observed, None, spec)
    assert record["end_to_end"]["fail_share"]["value"] > 0


def test_simulated_numbers_repeat_and_follow_the_seed(suites):
    (_, first), (_, again), (_, other) = suites
    for name in run.WORKLOADS:
        for metric in run.EXACT:
            assert first[name]["end_to_end"][metric] == again[name]["end_to_end"][metric]
        assert first[name]["sim_fingerprint"] == again[name]["sim_fingerprint"]
    for name in ("stream", "lossy"):
        assert first[name]["sim_fingerprint"] != other[name]["sim_fingerprint"]


def test_layer_shares_account_for_the_run(suites):
    _, workloads = suites[0]
    for name, record in workloads.items():
        layer = {k: v["value"] for k, v in record["per_layer"].items()}
        total = sum(v for k, v in layer.items() if k.endswith(".share"))
        assert total == pytest.approx(1.0, abs=0.02), name
        assert layer["other.share"] <= 0.10, name


def test_pingpong_bypasses_replay_and_fossil(suites):
    _, workloads = suites[0]
    layer = workloads["pingpong"]["per_layer"]
    assert layer["runtime.replay.restarts"]["value"] == 0
    assert layer["core.fossil.collections"]["value"] == 0
    assert layer["core.machine.rollbacks"]["value"] == 0
