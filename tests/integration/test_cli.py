"""CLI tests: check and run mini-HOPE programs from files."""

import io
import re
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
FIGURE2 = str(EXAMPLES / "figure2.hope")


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_check_figure2_ok():
    code, out = run_cli(["check", FIGURE2])
    assert code == 0
    assert "OK (3 process(es))" in out


def test_check_reports_errors(tmp_path):
    bad = tmp_path / "bad.hope"
    bad.write_text("process P() { undeclared = 1; }")
    code, out = run_cli(["check", str(bad)])
    assert code == 1
    assert "undeclared" in out


def test_check_reports_syntax_error(tmp_path):
    bad = tmp_path / "bad.hope"
    bad.write_text("process P( {")
    code, out = run_cli(["check", str(bad)])
    assert code == 2
    assert "syntax error" in out


def test_run_figure2_happy_path():
    code, out = run_cli(
        [
            "run",
            FIGURE2,
            "--spawn", "server=Server:[60]",
            "--spawn", "worrywart=WorryWart:[60]",
            "--spawn", "worker=Worker:[10]",
            "--latency", "10",
        ]
    )
    assert code == 0
    assert "result='report-complete'" in out
    assert "'Total is', 10" in out
    assert "'Summary ...', 11" in out


def test_run_figure2_page_full_denies():
    code, out = run_cli(
        [
            "run",
            FIGURE2,
            "--spawn", "server=Server:[60]",
            "--spawn", "worrywart=WorryWart:[60]",
            "--spawn", "worker=Worker:[70]",
            "--latency", "10",
        ]
    )
    assert code == 0
    assert "newpage" in out
    assert "rollbacks=" in out
    # at least the PartPage rollback happened
    rollback_line = [l for l in out.splitlines() if l.startswith("stats:")][0]
    assert "rollbacks=0" not in rollback_line


def test_run_requires_spawn():
    code, out = run_cli(["run", FIGURE2])
    assert code == 1
    assert "nothing to run" in out


def test_run_with_trace():
    code, out = run_cli(
        [
            "run",
            FIGURE2,
            "--spawn", "server=Server:[60]",
            "--spawn", "worrywart=WorryWart:[60]",
            "--spawn", "worker=Worker:[10]",
            "--trace",
        ]
    )
    assert code == 0
    assert "trace:" in out
    assert "guess" in out


def test_bad_spawn_spec_rejected():
    with pytest.raises(SystemExit):
        run_cli(["run", FIGURE2, "--spawn", "nonsense"])


def test_run_occ_example():
    code, out = run_cli(
        [
            "run",
            str(EXAMPLES / "occ.hope"),
            "--spawn", "primary=Primary:[4]",
            "--spawn", "alice=Client:[2]",
            "--spawn", "bob=Client:[2]",
            "--latency", "5",
        ]
    )
    assert code == 0
    assert "('committed', 4, 4)" in out
    assert out.count("applied") == 4        # every increment exactly once
    assert "rollbacks=" in out


_FIGURE2_SPAWNS = [
    "--spawn", "server=Server:[60]",
    "--spawn", "worrywart=WorryWart:[60]",
    "--spawn", "worker=Worker:[10]",
]


def test_run_metrics_to_stdout():
    code, out = run_cli(
        ["run", FIGURE2, *_FIGURE2_SPAWNS, "--metrics-out", "-"]
    )
    assert code == 0
    assert "speculation metrics" in out
    assert "hope_guesses_total" in out
    assert "wasted-work ratio" in out


def test_run_metrics_to_file(tmp_path):
    target = tmp_path / "metrics.jsonl"
    code, out = run_cli(
        [
            "run", FIGURE2, *_FIGURE2_SPAWNS,
            "--metrics-out", str(target),
            "--metrics-format", "jsonl",
        ]
    )
    assert code == 0
    assert f"metrics: wrote jsonl to {target}" in out
    import json

    rows = [json.loads(line) for line in target.read_text().splitlines()]
    names = {r.get("name") for r in rows}
    assert "hope_guesses_total" in names
    assert {r["type"] for r in rows} == {"counter", "gauge", "histogram"}


def test_run_metrics_prom_format(tmp_path):
    target = tmp_path / "metrics.prom"
    code, out = run_cli(
        [
            "run", FIGURE2, *_FIGURE2_SPAWNS,
            "--metrics-out", str(target),
            "--metrics-format", "prom",
        ]
    )
    assert code == 0
    text = target.read_text()
    assert "# TYPE hope_guesses_total counter" in text
    assert 'hope_commit_latency_bucket{le="+Inf"}' in text


def test_run_without_metrics_flag_prints_none():
    code, out = run_cli(["run", FIGURE2, *_FIGURE2_SPAWNS])
    assert code == 0
    assert "speculation metrics" not in out


def test_run_profile_prints_hotspots():
    """--profile wraps the run in cProfile and appends the cumulative
    top-25 report without disturbing the normal output."""
    code, out = run_cli(
        [
            "run",
            FIGURE2,
            "--spawn", "server=Server:[60]",
            "--spawn", "worrywart=WorryWart:[60]",
            "--spawn", "worker=Worker:[10]",
            "--profile",
        ]
    )
    assert code == 0
    assert "'Summary ...', 11" in out
    assert "profile (top 25 by cumulative time):" in out
    assert "cumulative" in out
    # the runtime's own hot path shows up in the report
    assert "engine.py" in out
    # ... and, after it, the costs a profile cannot place: the collector's,
    # then the fossil passes' (too short a run for one before quiescence:
    # only the pass a run owes there, which retires the two that returned)
    collector, fossil = out.rstrip().splitlines()[-2:]
    assert collector.startswith("collector: gen0 ")
    assert "gen2 " in collector
    assert re.fullmatch(
        r"fossil: 1 passes, 3 records visited, 4 AIDs examined, \d+\.\d{3} s, "
        r"2 processes retired, 2 AIDs retired", fossil
    ), fossil


def test_run_profile_times_the_fossil_passes():
    """A low --fossil-interval makes the Figure 2 run collect; the fossil
    line then reports what the passes looked at and how long they took."""
    code, out = run_cli(
        ["run", FIGURE2, *FIG2_SPAWNS, "--latency", "10",
         "--fossil-interval", "1", "--profile"]
    )
    assert code == 0
    line = out.rstrip().splitlines()[-1]
    match = re.fullmatch(
        r"fossil: (\d+) passes, (\d+) records visited, (\d+) AIDs examined, "
        r"(\d+\.\d{3}) s, (\d+) processes retired, (\d+) AIDs retired", line
    )
    assert match, line
    passes, visited, examined = map(int, match.groups()[:3])
    assert passes >= 1 and visited >= passes and examined >= 1
    assert int(match.group(6)) <= examined


def test_run_profile_counts_the_processes_a_pass_retired():
    """The OCC example's clients return while the primary still serves:
    a pass promotes the exit of one to its last commit point, the pass the
    run owes at quiescence retires the other two, and the fossil line
    says so."""
    code, out = run_cli(
        ["run", str(EXAMPLES / "occ.hope"), "--spawn", "primary=Primary:[4]",
         "--spawn", "alice=Client:[2]", "--spawn", "bob=Client:[2]",
         "--latency", "5", "--fossil-interval", "1", "--profile"]
    )
    assert code == 0
    line = out.rstrip().splitlines()[-1]
    assert re.fullmatch(
        r"fossil: 4 passes, \d+ records visited, \d+ AIDs examined, "
        r"\d+\.\d{3} s, 3 processes retired, \d+ AIDs retired", line
    ), line


def test_run_no_longer_takes_fossil_collect_flag():
    """Collection is the default; the flag that used to switch it on
    would now only be able to switch it off, so it is gone."""
    with pytest.raises(SystemExit):
        run_cli(["run", FIGURE2, *FIG2_SPAWNS, "--fossil-collect"])


def test_run_profile_out_writes_pstats(tmp_path):
    import pstats

    dump = tmp_path / "run.prof"
    code, out = run_cli(
        [
            "run",
            FIGURE2,
            "--spawn", "server=Server:[60]",
            "--spawn", "worrywart=WorryWart:[60]",
            "--spawn", "worker=Worker:[10]",
            "--profile",
            "--profile-out", str(dump),
        ]
    )
    assert code == 0
    assert f"profile: wrote pstats data to {dump}" in out
    stats = pstats.Stats(str(dump))
    assert stats.total_calls > 0


# ---------------------------------------------------------------------------
# repro verify
# ---------------------------------------------------------------------------
def test_verify_standard_matrix_passes():
    code, out = run_cli(["verify", "--scenario", "two_aid", "--scenario", "orphan"])
    assert code == 0
    assert "schedules explored" in out
    assert "0 failing" in out
    assert "BUDGET EXHAUSTED" not in out


def test_verify_full_mode_matches_dpor_outcomes():
    code, out = run_cli(
        ["verify", "--scenario", "two_aid(x=True,y=True)", "--mode", "full"]
    )
    assert code == 0
    assert "(full, complete)" in out


def test_verify_budget_exhaustion_fails():
    code, out = run_cli(
        [
            "verify", "--scenario", "two_aid(x=True,y=True)",
            "--mode", "full", "--max-schedules", "3",
        ]
    )
    assert code == 1
    assert "BUDGET EXHAUSTED" in out


def test_verify_unknown_scenario_is_usage_error():
    code, out = run_cli(["verify", "--scenario", "no-such-scenario"])
    assert code == 2
    assert "no scenario matches" in out


@pytest.mark.parametrize("mode, prescribed", [
    (["--scenario", "two_aid(x=True,y=True)"], True),               # DPOR: repro-dpor-*
    # one failing walk (repro-walk-*); its latency alone fails it, so it
    # shrinks to the empty prefix
    (["--mode", "random", "--runs", "10", "--seed", "5"], False),
], ids=["dpor", "random"])
def test_verify_injected_bug_writes_replayable_reproducer(tmp_path, monkeypatch, mode, prescribed):
    import json

    from repro.verify import driver

    monkeypatch.setenv("REPRO_VERIFY_INJECT_BUG", "1")      # the DPOR seam; a walk's bug is planted
    walk = driver.walk
    monkeypatch.setattr(driver, "walk", lambda sc, **kw: walk(sc, inject_bug=True, **kw))
    code, out = run_cli(["verify", *mode, "--repro-dir", str(tmp_path)])
    assert code == 1
    assert "injected bug" in out
    repros = list(tmp_path.glob("repro-*.json"))
    assert len(repros) == 1
    assert f"reproducer: {repros[0]}" in out
    payload = json.loads(repros[0].read_text())
    assert payload["inject_bug"] is True and bool(payload["choices"]) is prescribed
    assert str(repros[0]) in payload["command"]

    # the reproducer is self-contained (inject_bug is stored in the
    # payload): replaying it reproduces the violation with nothing
    # planted, under either command
    monkeypatch.undo()
    for command in ("verify", "chaos"):
        code, out = run_cli([command, "--repro", str(repros[0])])
        assert code == 1, (command, out)
        assert "injected bug" in out

    # a replay whose recorded bug no longer exists exits clean
    payload["inject_bug"] = False
    repros[0].write_text(json.dumps(payload))
    code, out = run_cli(["verify", "--repro", str(repros[0])])
    assert code == 0
    assert "no longer fails" in out


def test_verify_random_mode():
    code, out = run_cli(["verify", "--mode", "random", "--runs", "10"])
    assert code == 0
    assert "10 runs, 0 failing" in out


# ----------------------------------------------------- durable runs (CLI)
FIG2_SPAWNS = [
    "--spawn", "server=Server:[60]",
    "--spawn", "worrywart=WorryWart:[60]",
    "--spawn", "worker=Worker:[10]",
]


def test_run_durable_then_resume_completed(tmp_path):
    code, out = run_cli(
        ["run", FIGURE2, *FIG2_SPAWNS, "--latency", "10",
         "--durable-dir", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "key.bin").exists()
    assert list(tmp_path.glob("snap-*.env")), "expected a sealed snapshot"
    code, out = run_cli(
        ["resume", FIGURE2, "--durable-dir", str(tmp_path),
         *FIG2_SPAWNS, "--latency", "10"]
    )
    assert code == 0
    assert "resumed from generation" in out
    assert "frames replayed: 0, ledger rows verified: 2)" in out
    assert "'Summary ...', 11" in out      # committed outputs preserved


def test_resume_empty_dir_starts_fresh(tmp_path):
    code, out = run_cli(
        ["resume", FIGURE2, "--durable-dir", str(tmp_path / "empty"),
         *FIG2_SPAWNS, "--latency", "10"]
    )
    assert code == 0
    assert "starting fresh" in out
    assert "result='report-complete'" in out


def _refused_by_both_commands(tmp_path, spawns):
    """``run`` and ``resume`` refuse ``spawns`` with one error line, and
    neither makes its durable directory."""
    durable = tmp_path / "durable"
    outs = []
    for command in ("run", "resume"):
        code, out = run_cli([command, FIGURE2, *spawns, "--durable-dir", str(durable)])
        assert code == 1
        assert out.startswith("error: --spawn ")
        assert "defines Worker(total), WorryWart(pagesize), Server(pagesize)" in out
        outs.append(out)
    assert not durable.exists()
    assert outs[0] == outs[1]
    return outs[0]


def test_spawn_of_an_unknown_process_is_an_error(tmp_path):
    out = _refused_by_both_commands(tmp_path, ["--spawn", "server=Nope:[60]"])
    assert "server=Nope: no process 'Nope'" in out


def test_spawn_of_a_repeated_instance_is_an_error(tmp_path):
    out = _refused_by_both_commands(
        tmp_path, ["--spawn", "a=Server:[60]", "--spawn", "a=Server:[60]"]
    )
    assert "a=Server: instance 'a' is already spawned" in out


def test_spawn_with_the_wrong_arity_is_an_error(tmp_path):
    out = _refused_by_both_commands(tmp_path, ["--spawn", "a=Server:[60,1,2]"])
    assert "a=Server: process 'Server' takes 1 argument(s), got 3" in out


def test_resume_requires_spawns(tmp_path):
    code, out = run_cli(
        ["resume", FIGURE2, "--durable-dir", str(tmp_path)]
    )
    assert code == 1
    assert "--spawn" in out


def test_chaos_list_plans():
    code, out = run_cli(["chaos", "--list-plans"])
    assert code == 0
    assert "drop-light" in out and "storm" in out
    assert "kill/resume workloads" in out and "counter" in out


def test_chaos_crash_sweep(tmp_path):
    code, out = run_cli(
        ["chaos", "--crash", "--workload", "counter", "--seeds", "1",
         "--repro-dir", str(tmp_path)]
    )
    assert code == 0
    assert "crash sweep:" in out and ", 0 failing" in out
    assert "seed=1 record" in out and "seed=1 resumed" in out
    assert "corrupt=envelope" in out and "corrupt=wal" in out
    assert "corrupt=ledger" in out


def test_chaos_crash_unknown_workload():
    code, out = run_cli(
        ["chaos", "--crash", "--workload", "nope", "--seeds", "1"]
    )
    assert code == 2
    assert "nope" in out


#: Out-of-range numeric options, refused by argparse with the flag named.
_BAD_OPTIONS = [
    ("--latency", "-1"), ("--fossil-interval", "0"), ("--until", "-1"),
    ("--max-events", "-5"),
]
_BAD_FAULT_OPTIONS = [
    ("--drop-rate", "2"), ("--dup-rate", "-0.1"), ("--jitter", "-1"),
    ("--reorder-window", "-3"),
]


@pytest.mark.parametrize("flag,value", _BAD_OPTIONS + _BAD_FAULT_OPTIONS)
def test_run_refuses_an_out_of_range_number(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        run_cli(["run", FIGURE2, *FIG2_SPAWNS, flag, value])
    assert exit_.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", _BAD_OPTIONS)
def test_resume_refuses_an_out_of_range_number(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        run_cli(["resume", FIGURE2, *FIG2_SPAWNS, "--durable-dir", str(tmp_path), flag, value])
    assert exit_.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "resume"])
def test_an_exhausted_event_budget_is_one_error_line(tmp_path, command):
    code, out = run_cli([command, FIGURE2, *FIG2_SPAWNS, "--durable-dir", str(tmp_path),
                         "--max-events", "5"])
    assert code == 1
    assert out.splitlines()[-1].startswith("error: exceeded 5 events")


def test_chaos_repro_names_offending_field(tmp_path):
    import json

    from repro.sim import FaultPlan, LinkFaults

    good = {
        "scenario": {"factory": "mesh", "kwargs": {}}, "seed": 1,
        "latency": 1.0, "max_events": 50_000, "max_drops": None,
        "faults": FaultPlan(default=LinkFaults(drop=0.5)).to_dict(),
        "choices": [],
    }
    bad = tmp_path / "bad.json"
    for field, value, says in (
        ("faults", {"default": {"drp": 0.5}}, "drp"),
        ("scenario", {"factory": "nope"}, "nope"),
        ("reliable", {"ack_timeout": -1}, "ack_timeout"),
        ("choices", [0, -1], "non-negative"),
        ("seed", "1", "expected int"),
        ("fossil_interval", 0, "positive integer"),
    ):
        bad.write_text(json.dumps({**good, field: value}))
        for command in ("chaos", "verify"):
            code, out = run_cli([command, "--repro", str(bad)])
            assert code == 2, (field, out)
            assert f"field '{field}'" in out and says in out, out

    # A {workload, seed, plan} file does not say what it ran under: refused.
    bad.write_text(json.dumps({"workload": "mesh", "seed": 1,
                               "plan": {"default": {"drop": 0.5}}}))
    code, out = run_cli(["chaos", "--repro", str(bad)])
    assert code == 2
    assert "field 'scenario' is missing" in out


def _dpor_bug_file(tmp_path):
    from repro.verify import DporExplorer, two_aid_scenario

    return DporExplorer(
        two_aid_scenario(True, True, 0.75, 0.75), latency=0.5,
        inject_bug=True, repro_dir=str(tmp_path),
    ).explore().reproducer


def _blackout_file(tmp_path):
    from repro.chaos import run_matrix
    from repro.sim import FaultPlan, LinkFaults

    return run_matrix(
        workloads=["mesh"], seeds=(1,),
        plans={"blackout": FaultPlan(default=LinkFaults(drop=1.0))},
        reliable=False, repro_dir=str(tmp_path), verify_determinism=False,
        max_events=50_000,
    )["repro_files"][0]


@pytest.mark.parametrize("write", [_dpor_bug_file, _blackout_file])
def test_each_command_replays_the_others_reproducers(tmp_path, write):
    """One reproducer format: a file the DFS or the chaos matrix found,
    shrank and wrote fails again under either command."""
    path = write(tmp_path)
    for command in ("verify", "chaos"):
        code, out = run_cli([command, "--repro", path])
        assert code == 1, (command, out)
        assert "failure:" in out
