"""The claim index: one row per result this repository reproduces or
ships — the ids DESIGN.md §4 and EXPERIMENTS.md cite — then, indented,
the checks that hold it: pytest node ids, or commands in backquotes (run
from the repository root).  A §5–6 result (``LEMMA-``, ``THM-``,
``COR-`` and a number) names its checks on a bare ``Machine()`` after
``machine:`` and those on the engine after ``engine:`` (or ``open: item
4`` where no engine test states it yet).

``tests/integration/test_claims.py`` fails on a dangling row (see
:func:`dangling`).  ``PYTHONPATH=src python tests/claims.py`` prints the
index and exits nonzero on one; ``--audit`` runs every check under a
``sys.settrace`` call hook (a ``sitecustomize`` installs it in each
child), prints every ``src/repro`` function no check reaches, and exits
nonzero unless there are exactly :data:`AUDIT` of them.
"""

from __future__ import annotations

import ast
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
OPEN = "open: item 4"
#: How many functions ``--audit`` lists.  A rise is new code that no claim
#: reaches; a fall (a function deleted, or a check that now reaches one)
#: must be recorded here.
AUDIT = 44
CLI = "tests/integration/test_cli.py::"
THM = "tests/core/test_theorems.py::"
PROPS = "tests/core/test_properties.py::"
RUNTIME = "tests/verify/test_runtime_properties.py::"
FOSSIL = "tests/runtime/test_fossil_runtime.py::TestCollectedEqualsUncollected::"
RUN_FIG2 = ("`python -m repro run examples/figure2.hope --spawn server=Server:[60] "
            "--spawn worrywart=WorryWart:[60] --spawn worker=Worker:[10] --latency 10 --trace`")
EXAMPLES = ("quickstart:quickstart call_streaming:call_streaming_example "
            "optimistic_replication:replication_example optimistic_recovery:recovery_example "
            "timewarp_demo:timewarp_example lang_demo:lang_example "
            "two_phase_commit:two_phase_commit_example timeline_visualization:timeline_example "
            "optimistic_numerics:numerics_example co_editing:co_editing_example "
            "truth_maintenance:truth_maintenance_example")

INDEX = f"""
FIG1 | Figure 1: the pessimistic worker waits a round trip per RPC
    experiments/test_fig12_call_streaming.py
FIG2 | Figure 2: the optimistic worker and its WorryWart
    experiments/test_fig12_call_streaming.py
CLAIM-80 | §7: Call Streaming gains of up to 80 %
    experiments/test_claim_80pct.py
SWEEP-P | §3: optimism pays iff the assumption usually holds
    experiments/test_success_probability.py
CASCADE | §1/§3: what a transitive rollback costs
    experiments/test_rollback_cascade.py
TRACK | §7: dependency tracking never makes a process wait
    experiments/test_tracking_overhead.py
TW | §2: HOPE subsumes Time Warp, a baseline equal to its sequential oracle
    experiments/test_timewarp.py
    tests/baselines/test_lazy_cancellation.py::test_both_modes_match_oracle_on_reordered_ring
STATIC | §2: statically scoped optimism
    experiments/test_static_scope.py
AIDMODE | §7: AIDs as tasks
    experiments/test_aid_modes.py
CKPT | §7: checkpointing is not particularly efficient
    experiments/test_checkpoint.py
THM | §5–6: no invariant or oracle violation under random and exhaustive schedules
    experiments/test_model_check.py tests/verify
ABLATE-WART | verification parallelism: the WorryWart pool
    experiments/test_wart_pipeline.py
ABLATE-SPEC | restructuring vs optimism: blocking guesses
    experiments/test_speculation_toggle.py
REPLICATION | §7 future work: optimistic replication
    experiments/test_replication.py
RECOVERY | §7 future work: optimistic recovery
    experiments/test_recovery.py
CORRECT | output equals the reference, exactly once under crashes, equal per seed
    tests/apps tests/verify/test_explorer.py::test_determinism_same_seed_same_fingerprint
    tests/runtime/test_resilience.py::test_sender_crash_stops_retries_without_retracting
MAILBOX | §7: a mailbox loses and duplicates nothing, and redelivers a rolled-back receive first
    tests/sim/test_mailbox_properties.py
HANDLES | an AID handle reads its verdict after collection retires the AID (API.md, LIMITATIONS 9)
    tests/runtime/test_aid_handles.py::test_a_settled_aid_retires_under_a_live_handle
LOG | the effect log hands back each kind and result it logged, bounded on both sides (API.md)
    tests/runtime/test_replay_log.py::test_every_effect_kind_has_a_code_and_reads_back_by_name
    tests/runtime/test_replay_log.py::test_entry_at_is_bounded_on_both_sides
LEMMA-5.1 | X ∈ A.IDO iff A ∈ X.DOM
    machine: {THM}test_lemma_5_1_symmetry_through_all_operations
    machine: {PROPS}test_invariants_hold_under_random_schedules
    engine: {RUNTIME}test_chain_conforms_for_all_parameters
THM-5.1 | a rollback truncates the history from the denied interval on
    machine: {THM}test_theorem_5_1_rollback_truncates_everything_after
    machine: {THM}test_theorem_5_1_earlier_intervals_survive
    engine: tests/runtime/test_speculation.py::test_nested_guesses_roll_back_independently
THM-5.2 | a definite interval never rolls back
    machine: {THM}test_theorem_5_2_definite_interval_immune_to_all_later_denies
    machine: {PROPS}test_definite_intervals_stay_definite
    engine: {RUNTIME}test_two_aids_conform_for_all_verdict_timings
LEMMA-6.1/6.2 | affirms are transitive; definite affirms finalize
    machine: {THM}test_lemma_6_1_affirm_transitivity
    machine: {THM}test_lemma_6_2_all_definite_affirms_finalize
    machine: tests/core/test_affirm.py::test_nested_sweep_rewrites_each_dependent_at_its_turn
    engine: tests/apps/test_virtual_time.py::test_all_guard_aids_resolved_at_quiescence
THM-6.1 | an interval finalizes once all it depends on is affirmed
    machine: {THM}test_theorem_6_1_mixed_definite_and_speculative_affirms
    engine: {FOSSIL}test_finalized_intervals_stay_definite
THM-6.2 | no interval finalizes while a dependency is unresolved
    machine: {THM}test_theorem_6_2_no_finalize_while_any_dependency_unresolved
    machine: {PROPS}test_theorem_6_2_finalize_iff_all_affirmed
    engine: tests/runtime/test_outputs.py::test_speculative_emit_not_committed_while_pending
LEMMA-6.3/COR-6.1 | dependence, and so denial, is transitive down a chain
    machine: {THM}test_lemma_6_3_affirmed_only_with_upstream
    machine: {THM}test_corollary_6_1_dependence_chain
    machine: {THM}test_corollary_6_1_denial_propagates_down_the_chain
    engine: tests/runtime/test_speculation.py::test_cascading_rollback_chain
THM-6.3 | after free_of(X) the interval never depends on X
    machine: {THM}test_theorem_6_3_violation_rolls_back
    machine: {THM}test_theorem_6_3_stale_tags_cannot_reintroduce_dependence
    engine: tests/verify/test_explorer.py::test_free_of_scenario_conforms
E2E | the benchmark: six workloads commit their closed-form ledgers
    `python benchmarks/e2e/run.py --quick`
SMOKE-CHAOS | the chaos matrix commits the fault-free twin's state
    `python benchmarks/smoke_chaos.py` tests/chaos/test_chaos.py
SMOKE-DPOR | DPOR enumerates the standard matrix with no violation
    `python benchmarks/smoke_dpor.py`
SMOKE-DURABILITY | every crash state recovers; recording and recovery within budget
    `python benchmarks/smoke_durability.py`
BUDGETS | memory per unit of work within BUDGETS
    tests/integration/test_footprint_table.py
RESIDUE | a finished run holds only its results, as much at 4N as at N
    `python tests/footprint.py --residue`
    tests/runtime/test_process_retirement.py::test_a_finished_run_holds_its_results_and_nothing_else
    tests/core/test_fossil.py::TestDepSetAndCachePurge::test_depset_table_compacts_to_live_sets
CALLS | calls per layer equal CALLS
    tests/integration/test_costs_table.py
KERNEL | the event kernel fires what the sorted-list reference fires
    tests/sim/test_kernel_reference.py
CRASH-SWEEP | a crash before any store operation resumes to the twin's state
    tests/durable/test_crash_sweep.py
    tests/durable/test_durable_store.py::TestWal::test_unmarked_tail_is_discarded_not_applied
OBS-GOLDEN | a deny run's metric exports
    tests/obs/test_obs_runtime.py::test_deny_run_exports_match_golden
DISK-GOLDEN | the bytes a durable run writes
    tests/durable/test_durable_resume.py::TestBytesOnDisk
CLI-CHECK | `repro check` (README, TUTORIAL)
    `python -m repro check examples/figure2.hope`
    {CLI}test_check_figure2_ok {CLI}test_check_reports_errors
    {CLI}test_check_reports_syntax_error
CLI-RUN | `repro run` (README, TUTORIAL, API.md)
    {RUN_FIG2}
    {CLI}test_run_figure2_happy_path {CLI}test_run_figure2_page_full_denies
    {CLI}test_run_occ_example {CLI}test_run_with_trace {CLI}test_run_metrics_prom_format
    {CLI}test_run_profile_prints_hotspots {CLI}test_run_profile_out_writes_pstats
CLI-RESUME | `repro run --durable-dir` and `repro resume` (API.md)
    {CLI}test_run_durable_then_resume_completed {CLI}test_resume_empty_dir_starts_fresh
CLI-CHAOS | `repro chaos` (README, API.md)
    {CLI}test_chaos_list_plans {CLI}test_chaos_crash_sweep
    {CLI}test_chaos_repro_names_offending_field
    tests/sim/test_faults.py::test_partition_never_heals_roundtrip
    tests/sim/test_faults.py::test_fault_plan_per_link_overrides_and_roundtrip
CLI-VERIFY | `repro verify` (API.md)
    {CLI}test_verify_standard_matrix_passes {CLI}test_verify_full_mode_matches_dpor_outcomes
    {CLI}test_verify_random_mode {CLI}test_verify_injected_bug_writes_replayable_reproducer
    {CLI}test_each_command_replays_the_others_reproducers
INSPECT | `repro.core.inspect` renders the dependency graph (README)
    tests/core/test_inspect.py
RENDER | `repro.sim.render` draws timelines (README)
    tests/sim/test_render.py
PRETTY | `repro.lang.pretty` prints a program that parses back to it (API.md)
    tests/lang/test_pretty.py
README | the README's quickstart
    tests/integration/test_readme_snippet.py
TUTORIAL | the TUTORIAL's programs
    tests/integration/test_tutorial.py
""" + "".join(f"EX-{name} | examples/{name}.py runs and tells its story\n"
              f"    tests/integration/test_examples.py::test_{test}\n"
              for name, test in (pair.split(":") for pair in EXAMPLES.split()))


def claims() -> dict:
    """Claim id -> (what is claimed, {kind: checks}); the kind is
    ``"machine"``, ``"engine"`` or ``""``."""
    rows = {}
    for line in INDEX.strip().splitlines():
        if not line.startswith(" "):
            claim, what = line.split(" | ", 1)
            rows[claim] = (what, {})
            continue
        kind, named = re.fullmatch(r"\s+(?:(machine|engine): )?(.*)", line).groups()
        named = [named] if named == OPEN else [a or b for a, b in
                                               re.findall(r"`([^`]+)`|(\S+)", named)]
        rows[claim][1].setdefault(kind or "", []).extend(named)
    return rows


def _checks() -> list:
    """Every distinct check the index names, in order."""
    return list(dict.fromkeys(check for _, kinds in claims().values()
                              for named in kinds.values() for check in named if check != OPEN))


def _within(node: str, collected) -> bool:
    """Whether ``node`` (a directory, file, class or test) names a collected test."""
    return any(test == node or test.startswith((node + "::", node + "/", node + "["))
               for test in collected)


def dangling(collected=()) -> list:
    """What the index names that does not exist: node ids that do not
    collect (those that name no test of ``collected``, the node ids a
    running session holds, are collected in a child), files a command
    names that are missing, DESIGN §4 rows, EXPERIMENTS.md headings and
    examples with no claim, and §5–6 results without both kinds of check."""
    found = []
    ids = [c for c in _checks() if not c.startswith("python ") and not _within(c, collected)]
    done = ids and subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True)
    if done and done.returncode:
        output = done.stdout + done.stderr
        found += [line for line in output.splitlines()
                  if "ERROR" in line or "not found" in line] or [output[-2000:]]
    for command in (c for c in _checks() if c.startswith("python ")):
        found += [f"{command!r}: no file {word}" for word in shlex.split(command)[1:]
                  if "/" in word and "=" not in word and not (ROOT / word).exists()]
    rows = claims()
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design[design.index("## 4."):design.index("## 5.")]
    cited = re.findall(r"^\| ([A-Z][A-Z0-9./-]*) \|", section, re.M)
    experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for heading in re.findall(r"^## (.+)$", experiments, re.M):
        cited += heading.split(" — ")[0].split(" / ")
    cited += [f"EX-{path.stem}" for path in sorted((ROOT / "examples").glob("*.py"))]
    found += [f"{claim} has no row in tests/claims.py" for claim in cited if claim not in rows]
    found += [f"{claim} needs machine: and engine: checks (or engine: {OPEN})"
              for claim, (_, kinds) in rows.items() if re.match(r"(LEMMA|THM|COR)-\d", claim)
              and not (kinds.get("machine") and kinds.get("engine"))]
    return found


HOOK = '''\
import atexit, os, sys, threading
seen = set()
def hook(frame, event, arg, add=seen.add):
    add(frame.f_code)
sys.settrace(hook)
threading.settrace(hook)
def dump():
    sys.settrace(None)
    with open(os.path.join(os.environ["CLAIMS_AUDIT"], f"{os.getpid()}.txt"), "w") as out:
        out.writelines([f"{c.co_filename}:{c.co_firstlineno}\\n" for c in list(seen)
                        if "repro" in c.co_filename])
atexit.register(dump)
'''


def audit() -> list:
    """``(path, name, lines)`` of every ``src/repro`` function that no
    check of the index calls: each check runs in a child with the hook
    on (one pytest child for every node id), and a function is keyed by
    its ``co_firstlineno``, its first decorator's line."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK)
        env = {**os.environ, "CLAIMS_AUDIT": tmp, "PYTHONPATH": os.pathsep.join(
            [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        ids = [c for c in _checks() if not c.startswith("python ")]
        runs = [["-m", "pytest", "-q", "-p", "no:cacheprovider", *ids]]
        for argv in runs + [shlex.split(c)[1:] for c in _checks() if c.startswith("python ")]:
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)
        reached = {f"{Path(path).resolve()}:{line}" for dump in Path(tmp).glob("*.txt")
                   for path, line in (row.rsplit(":", 1) for row in dump.read_text().splitlines())}
    unreached = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = f"{prefix}{getattr(child, 'name', '')}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if f"{path}:{first}" not in reached:
                        unreached.append((str(path.relative_to(ROOT)), name,
                                          child.end_lineno - child.lineno + 1))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, name + ".")
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return unreached


if __name__ == "__main__":
    if sys.argv[1:] == ["--audit"]:
        unreached = audit()
        for row in unreached:
            print(*row, sep="\t")
        print(f"{len(unreached)} functions, {sum(r[2] for r in unreached)} lines "
              f"no claim reaches (AUDIT = {AUDIT})")
        sys.exit(len(unreached) != AUDIT)
    for claim, (what, kinds) in claims().items():
        print(f"{claim:18} {what}")
        for kind, named in kinds.items():
            print("\n".join(f"{'':21}{kind + ': ' if kind else ''}{check}" for check in named))
    problems = dangling()
    print("\n".join(f"dangling: {problem}" for problem in problems))
    sys.exit(1 if problems else 0)
