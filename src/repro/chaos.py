"""The chaos harness: seeds × fault plans, with invariants and a twin check.

The paper's theorems (5.1–6.3) promise that optimism never corrupts
committed state — rollback makes speculation *transparent*.  This module
exercises that promise under an adversarial network: each case of the
seed × :class:`~repro.sim.FaultPlan` matrix over the chaos workloads is
one seeded :func:`~repro.verify.walk` checked by
:func:`~repro.verify.check_run` — no invariant fires, every process
finishes (faults cause delay and rollback, never a hang), and the
**committed state equals the fault-free twin's** — and one case per
plan is re-run for a byte-identical trace fingerprint (faults are drawn
from a seeded stream: chaos is replayable).  A failing walk shrinks to
the shortest prefix of its choices that fails with no fault beyond it,
written as the one reproducer format: ``python -m repro.cli chaos
--repro <file>`` (or ``verify --repro``) replays it under the whole
configuration it failed under.

The kill/resume (host-crash) matrix lives here too.  Used by
``repro.cli chaos`` and ``benchmarks/smoke_chaos.py`` (the CI budget).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .durable import (
    DurableError,
    corrupt_latest_envelope,
    corrupt_ledger,
    corrupt_wal_tail,
)
from .runtime import HopeSystem
from .sim import ConstantLatency, EventLimitExceeded, FaultPlan, LinkFaults, Partition
from .verify import (
    FACTORIES,
    InvariantViolation,
    Scenario,
    check_run,
    reproduce,
    walk,
)
from .verify.driver import committed_state

#: One-line descriptions of the chaos workloads (``--list-plans``).
WORKLOAD_DESCRIPTIONS: dict[str, str] = {
    "mesh": "3 speculative workers fan in to a validator that affirms/denies each round",
    "ring": "a token circulates a 4-node ring of tagged speculative hops, with periodic denies",
    "counter": "commit-point counters judged centrally — exercises "
    "base-aware snapshots and fossil-trimmed WALs",
}
#: The workloads the matrix sweeps.
WORKLOADS: dict[str, Scenario] = {name: FACTORIES[name]() for name in ("mesh", "ring")}
#: Workloads for the kill/resume (host-crash) mode: the standard chaos
#: pair plus the commit-point counter, all deterministic in their
#: committed outputs so the resumed run must reconverge byte-identically.
KILL_RESUME_WORKLOADS: dict[str, Scenario] = {**WORKLOADS, "counter": FACTORIES["counter"]()}
_MAX_EVENTS = 200_000

#: Endpoint groups per workload, used to aim partitions at real links.
_PARTITION_SIDES = {
    "mesh": (("w0", "w1"), ("validator", "w2")),
    "ring": (("n0", "n1"), ("n2", "n3", "driver")),
}

#: One-line descriptions of the standard fault plans (``--list-plans``).
PLAN_DESCRIPTIONS: dict[str, str] = {
    "drop-light": "10% uniform message drop on every link",
    "drop-heavy": "25% uniform message drop on every link",
    "dup": "25% duplicate delivery per message",
    "reorder": "35% of messages reordered within a 6s window",
    "jitter": "up to 4s uniform extra latency per message",
    "storm": "drop + duplicate + reorder + jitter combined",
    "partition": "two-sided partition from t=5 to t=25 over 5% background drop",
}


def standard_plans(workload: str) -> dict[str, FaultPlan]:
    """The named fault plans the default matrix sweeps for ``workload``."""
    side_a, side_b = _PARTITION_SIDES[workload]
    return {
        "drop-light": FaultPlan(default=LinkFaults(drop=0.10)),
        "drop-heavy": FaultPlan(default=LinkFaults(drop=0.25)),
        "dup": FaultPlan(default=LinkFaults(duplicate=0.25)),
        "reorder": FaultPlan(default=LinkFaults(reorder=0.35, reorder_window=6.0)),
        "jitter": FaultPlan(default=LinkFaults(jitter=4.0)),
        "storm": FaultPlan(
            default=LinkFaults(
                drop=0.15, duplicate=0.15, reorder=0.2, reorder_window=5.0, jitter=2.0
            )
        ),
        "partition": FaultPlan(
            default=LinkFaults(drop=0.05),
            partitions=(Partition(side_a, side_b, start=5.0, heal_at=25.0),),
        ),
    }


# ---------------------------------------------------------------------------
# kill/resume (host-crash) mode — repro.durable's chaos harness
# ---------------------------------------------------------------------------

#: Durable options for chaos runs: snapshot on every fossil pass so even
#: early kill points have sealed state to recover.
_KILL_DURABLE_OPTS = {"snapshot_every": 1}
_KILL_FOSSIL_INTERVAL = 4
#: Default seeded crash points, as fractions of the twin's event count.
KILL_FRACS = (0.25, 0.55, 0.85)
#: ``corrupt=`` modes: the helper that does the damage, and the
#: ``stats()["durable"]`` counter that must show recovery saw it (None:
#: nothing to fall back to, so ``resume`` must refuse by name instead).
_CORRUPTIONS = {
    "envelope": (corrupt_latest_envelope, "envelopes_rejected"),
    "wal": (corrupt_wal_tail, "wal_records_discarded"),
    "ledger": (corrupt_ledger, None),
}
#: Child exit codes: the kill landed as planned / the child errored.
_KILLED_OK = 37
_CHILD_ERROR = 41


@dataclass
class KillResumeResult:
    """Outcome of one host-crash case: kill at a seeded point, resume,
    compare committed state against the uninterrupted twin."""

    workload: str
    seed: int
    kill_events: int
    frac: float
    corrupt: Optional[str]
    corrupted_path: Optional[str]
    failure: Optional[str]
    durable_stats: dict
    run_dir: Optional[str]
    #: A resume of a resume: the first resumed run was killed again here.
    then_frac: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else f"FAIL({self.failure})"
        extra = f" corrupt={self.corrupt}" if self.corrupt else ""
        return (
            f"<KillResume {self.workload} seed={self.seed} "
            f"kill@{self.kill_events}{extra}: {verdict}>"
        )


def _durable_system(workload: Scenario, seed: int, run_dir: str,
                    durable_opts: dict) -> HopeSystem:
    system = HopeSystem(
        seed=seed,
        latency=ConstantLatency(1.0),
        fossil_interval=_KILL_FOSSIL_INTERVAL,
        durable_dir=run_dir,
        durable_opts=dict(durable_opts),
    )
    workload.build(system)
    return system


def _resume_system(workload: Scenario, seed: int, run_dir: str,
                   durable_opts: dict) -> HopeSystem:
    return HopeSystem.resume(
        run_dir, workload.build, seed=seed,
        latency=ConstantLatency(1.0),
        fossil_interval=_KILL_FOSSIL_INTERVAL,
        durable_opts=dict(durable_opts),
    )


def _run_child_until_kill(system: HopeSystem, kill_events: int) -> None:
    try:
        system.run(max_events=kill_events)
    except EventLimitExceeded:
        # This *is* the crash point: die without any orderly shutdown —
        # no durable sync, no flush beyond the last sealed batch.
        pass


def _crash(leg: Callable[[], None], err_path: str, in_process: bool) -> Optional[str]:
    """Run ``leg`` — a recording run that stops at its kill point — in a
    child process killed by ``os._exit`` (real process death, no cleanup)
    or, with ``in_process`` or without ``fork``, abandoned in this one.
    Returns the failure, or None when the kill landed as planned."""
    if not hasattr(os, "fork") or in_process:
        try:
            leg()
        except Exception as exc:  # abandoned, never synced — a soft crash
            return f"recording run raised: {exc!r}"
        return None
    pid = os.fork()
    if pid == 0:
        code = _KILLED_OK
        try:
            leg()
        except BaseException:
            import traceback

            with open(err_path, "w", encoding="utf-8") as fh:
                traceback.print_exc(file=fh)
            code = _CHILD_ERROR
        finally:
            # A host crash, not an exit: skip atexit/stdio/GC entirely.
            os._exit(code)
    _, wstatus = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wstatus)
    if code == _KILLED_OK:
        return None
    detail = ""
    if os.path.exists(err_path):
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read().strip().splitlines()
        detail = tail[-1] if tail else ""
    return f"child exited {code} before the kill point: {detail}"


def run_kill_resume_case(
    workload,
    seed: int,
    kill_frac: float = 0.5,
    *,
    kill_events: Optional[int] = None,
    corrupt: Optional[str] = None,
    run_dir: Optional[str] = None,
    keep_dir: bool = False,
    in_process: bool = False,
    then_frac: Optional[float] = None,
) -> KillResumeResult:
    """One host-crash chaos case.

    Runs the workload durably in a child process killed (``os._exit``,
    no cleanup) once ``kill_events`` simulator events have fired, then
    resumes from the run directory and requires the committed-state
    fingerprint to match an uninterrupted fault-free twin byte for byte.
    With ``then_frac`` the first resumed run is killed the same way, once
    ``then_frac - kill_frac`` of the twin's events more have fired, and
    the resume of that resume is what must match.
    ``corrupt`` ("envelope" | "wal") additionally flips bytes in the
    newest envelope / WAL tail before resuming and requires recovery to
    *detect* the damage (counted rejections/discards) and still
    converge via one-generation fallback.  ``corrupt="ledger"`` flips a
    byte inside the output ledger's sealed prefix: committed outputs exist
    nowhere else, so the only honest outcome — and the one required — is
    a ``DurableError`` naming the ledger.  ``in_process=True`` skips the
    fork and simply abandons the recording system mid-run — same
    recovery path, available on platforms without ``os.fork``.
    The run directory is deleted on success unless ``keep_dir``.
    """
    if corrupt is not None and corrupt not in _CORRUPTIONS:
        raise ValueError(
            f"corrupt must be 'envelope', 'wal' or 'ledger', got {corrupt!r}"
        )
    if isinstance(workload, str):
        workload = KILL_RESUME_WORKLOADS[workload]
    twin = check_run(workload, seed=seed, max_events=_MAX_EVENTS)
    if twin.failure is not None:
        return KillResumeResult(
            workload.name, seed, 0, kill_frac, corrupt, None,
            f"uninterrupted twin failed: {twin.failure}", {}, run_dir,
        )
    total_events = twin.stats["sim_events"]
    durable_opts = dict(_KILL_DURABLE_OPTS)
    if corrupt == "wal":
        # Keep every record in wal-0 (no mid-run envelopes), so the
        # corrupted tail is provably on the recovery replay path.
        durable_opts["snapshot_every"] = 1_000_000_000
    if kill_events is None:
        if corrupt is not None:
            # As late as possible: corruption needs sealed state to damage.
            kill_events = max(2, total_events - 1)
        else:
            kill_events = max(2, int(total_events * kill_frac))
    own_dir = run_dir is None
    if own_dir:
        run_dir = tempfile.mkdtemp(
            prefix=f"hope-durable-{workload.name}-s{seed}-"
        )
    err_path = os.path.join(run_dir, "child-error.txt")
    failure = _crash(
        lambda: _run_child_until_kill(
            _durable_system(workload, seed, run_dir, durable_opts), kill_events
        ),
        err_path, in_process,
    )
    if failure is None and then_frac is not None:
        # A resume of a resume: the first resumed run dies too, once the
        # events between the two fractions have fired.
        failure = _crash(
            lambda: _run_child_until_kill(
                _resume_system(workload, seed, run_dir, durable_opts),
                max(2, int(total_events * (then_frac - kill_frac))),
            ),
            err_path, in_process,
        )
    corrupted_path = None
    if failure is None and corrupt is not None:
        corrupted_path = _CORRUPTIONS[corrupt][0](run_dir)
        if corrupted_path is None:
            # Nothing on disk to damage means the case proves nothing —
            # surface that instead of green-lighting a no-op.
            failure = (
                f"nothing to corrupt for mode {corrupt!r} at "
                f"kill_events={kill_events} — pick a later kill point"
            )
    durable_stats: dict = {}
    if failure is None:
        try:
            resumed = _resume_system(workload, seed, run_dir, durable_opts)
            resumed.run(max_events=_MAX_EVENTS)
            durable_stats = resumed.stats()["durable"]
            stuck = sorted(
                name for name, proc in resumed.procs.items() if not proc.done
            )
            committed = committed_state(resumed)
            if stuck:
                failure = f"stuck processes after resume: {stuck}"
            elif committed != twin.committed:
                diff = sorted(
                    name for name in set(committed) | set(twin.committed)
                    if committed.get(name) != twin.committed.get(name)
                )
                failure = (
                    f"resumed committed state diverged from twin for {diff}"
                )
            elif corrupted_path is not None:
                # A damaged ledger has no counter to show: resume must have
                # refused (below), so getting here at all is the failure.
                if durable_stats.get(_CORRUPTIONS[corrupt][1], 0) <= 0:
                    failure = (
                        f"{corrupt} corruption was not detected by recovery "
                        "(silent acceptance of damaged state)"
                    )
        except EventLimitExceeded as exc:
            failure = f"livelock after resume: {exc}"
        except DurableError as exc:
            # The one refusal that is a pass: a damaged ledger, named.
            if corrupt != "ledger" or "ledger" not in str(exc):
                failure = f"resume failed: {exc!r}"
        except Exception as exc:
            failure = f"resume failed: {exc!r}"
    if own_dir and failure is None and not keep_dir:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir = None
    return KillResumeResult(
        workload.name, seed, kill_events, kill_frac, corrupt,
        corrupted_path, failure, durable_stats, run_dir, then_frac,
    )


def run_kill_resume_matrix(
    workloads: Optional[Iterable[str]] = None,
    seeds: Iterable[int] = (1, 2, 3),
    fracs: Iterable[float] = KILL_FRACS,
    *,
    corruption_cases: bool = True,
    resume_chains: bool = False,
    in_process: bool = False,
) -> dict:
    """Sweep workloads × seeds × seeded crash points (plus one envelope-,
    one WAL- and one ledger-corruption case per workload, and with
    ``resume_chains`` one resume of a resume: killed at the first two
    fractions in turn); returns a report dict."""
    names = list(workloads) if workloads is not None else list(KILL_RESUME_WORKLOADS)
    seeds = list(seeds)
    fracs = list(fracs)
    results: list[KillResumeResult] = []
    for wname in names:
        for seed in seeds:
            for frac in fracs:
                results.append(run_kill_resume_case(
                    wname, seed, frac, in_process=in_process,
                ))
        if corruption_cases:
            # Late kill points so there is sealed state to damage.
            for mode in _CORRUPTIONS:
                results.append(run_kill_resume_case(
                    wname, seeds[0], max(fracs), corrupt=mode,
                    in_process=in_process,
                ))
        if resume_chains and len(fracs) >= 2:
            results.append(run_kill_resume_case(
                wname, seeds[0], fracs[0], then_frac=fracs[1],
                in_process=in_process,
            ))
    failures = [r for r in results if not r.ok]
    return {
        "cases": results,
        "total": len(results),
        "passed": len(results) - len(failures),
        "failures": failures,
    }


def format_kill_report(report: dict) -> str:
    """Human-readable kill/resume summary (what ``chaos --kill-at`` prints)."""
    lines = [
        f"kill/resume matrix: {report['passed']}/{report['total']} cases passed"
    ]
    for result in report["cases"]:
        ds = result.durable_stats or {}
        if result.corrupt:
            mode = f"corrupt={result.corrupt}"
        elif result.then_frac is not None:
            mode = f"frac={result.frac:g}+{result.then_frac:g}"
        else:
            mode = f"frac={result.frac:g}"
        lines.append(
            f"  {result.workload:<7} seed={result.seed} kill@{result.kill_events:<6} "
            f"{mode:<16} {'ok' if result.ok else 'FAIL':<4} "
            f"gen={ds.get('resumed_generation')} "
            f"injected={ds.get('injected_messages', 0)} "
            f"rejected={ds.get('envelopes_rejected', 0)} "
            f"torn={ds.get('wal_records_discarded', 0)}"
        )
        if not result.ok:
            lines.append(f"        failure: {result.failure}")
            if result.run_dir:
                lines.append(f"        run dir kept: {result.run_dir}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------
def run_matrix(
    workloads: Optional[Iterable[str]] = None,
    seeds: Iterable[int] = (1, 2, 3),
    plans: Optional[dict[str, FaultPlan]] = None,
    reliable: Any = True,
    detector: Any = False,
    repro_dir: str = "chaos-repros",
    verify_determinism: bool = True,
    max_events: Optional[int] = None,
) -> dict:
    """Sweep seeds × fault plans × workloads; returns the report dict.

    Each faulty case is a walk compared against its fault-free twin
    (same seed, same workload, ``faults=None`` — computed once per pair).
    Failures are shrunk to minimal reproducers written under
    ``repro_dir``.
    """
    names = list(workloads) if workloads is not None else list(WORKLOADS)
    seeds = list(seeds)
    config: dict = dict(latency=1.0, reliable=reliable, detector=detector)
    if max_events is not None:
        config["max_events"] = max_events
    results = []
    repro_files: list[str] = []
    determinism_checked = 0
    for wname in names:
        scenario = WORKLOADS[wname]
        plan_table = plans if plans is not None else standard_plans(wname)
        twins = {s: check_run(scenario, seed=s, label="fault-free", **config) for s in seeds}
        for seed, twin in twins.items():
            if not twin.ok:
                raise InvariantViolation(
                    f"fault-free twin failed ({wname}, seed={seed}): {twin.failure}"
                )
        for plan_name, plan in plan_table.items():
            for seed in seeds:
                case = dict(seed=seed, faults=plan, twin=twins[seed], label=plan_name, **config)
                result = walk(scenario, **case)
                results.append(result)
                if verify_determinism and result.ok and seed == seeds[0]:
                    determinism_checked += 1
                    if walk(scenario, **case).fingerprint != result.fingerprint:
                        result.violations.append(
                            "nondeterministic: re-run produced a different "
                            "trace fingerprint"
                        )
                if not result.ok:
                    path = os.path.join(repro_dir, f"chaos-repro-{wname}-{plan_name}-seed{seed}.json")
                    repro_files.append(reproduce(result, path, twin=twins[seed], command="chaos"))
    failures = [r for r in results if not r.ok]
    return {
        "cases": results,
        "total": len(results),
        "passed": len(results) - len(failures),
        "failures": failures,
        "determinism_checked": determinism_checked,
        "repro_files": repro_files,
    }


def format_report(report: dict) -> str:
    """Human-readable matrix summary (what the CLI prints)."""
    lines = [
        f"chaos matrix: {report['passed']}/{report['total']} cases passed, "
        f"{report['determinism_checked']} determinism re-runs"
    ]
    for result in report["cases"]:
        stats = result.stats
        fault_info = stats.get("faults", {})
        lines.append(
            f"  {result.scenario.name:<5} seed={result.seed} plan={result.label:<11} "
            f"{'ok' if result.ok else 'FAIL':<4} "
            f"t={result.final_time:8.2f} rollbacks={stats.get('rollbacks', 0):<3} "
            f"dropped={fault_info.get('dropped', 0) + fault_info.get('partition_dropped', 0):<3} "
            f"retries={stats.get('reliable', {}).get('retries', 0)}"
        )
        if not result.ok:
            lines.append(f"        failure: {result.failure}")
    for path in report["repro_files"]:
        lines.append(f"  reproducer written: {path}")
    return "\n".join(lines)
