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

The host-crash campaign, :func:`run_crash_matrix`, lives here too.  Used by
``repro.cli chaos``, ``benchmarks/smoke_chaos.py`` and ``smoke_durability.py``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Optional

from .durable import corrupt_latest_envelope, corrupt_ledger, corrupt_wal_tail
from .sim import FaultPlan, LinkFaults, Partition
from .verify import FACTORIES, InvariantViolation, Scenario, check_run, reproduce, sweep, walk
from .verify.driver import WRITTEN, Run, committed_state, crash_states, write_state

#: One-line descriptions of the chaos workloads (``--list-plans``).
WORKLOAD_DESCRIPTIONS: dict[str, str] = {
    "mesh": "3 speculative workers fan in to a validator that affirms/denies each round",
    "ring": "a token circulates a 4-node ring of tagged speculative hops, with periodic denies",
    "counter": "commit-point counters judged centrally — exercises "
    "base-aware snapshots and fossil-trimmed WALs",
}
#: The workloads the matrix sweeps.
WORKLOADS: dict[str, Scenario] = {name: FACTORIES[name]() for name in ("mesh", "ring")}
#: Workloads of the crash sweep (``--crash``), all deterministic in their
#: committed outputs, so every resumed run must reconverge with the twin.
CRASH_WORKLOADS: dict[str, Scenario] = {**WORKLOADS, "counter": FACTORIES["counter"]()}

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
# the crash sweep — repro.durable's chaos campaign
# ---------------------------------------------------------------------------
#: Corruption modes: the damage, and the ``stats()["durable"]`` counter that
#: must show it (None: nothing to fall back to, so resume must refuse by name).
_CORRUPTIONS = {
    "envelope": (corrupt_latest_envelope, "envelopes_rejected"),
    "wal": (corrupt_wal_tail, "wal_records_discarded"),
    "ledger": (corrupt_ledger, None),
}


def run_corruption_case(record: Run, mode: str) -> Optional[str]:
    """Damage (``mode``) the newest as-written crash state of a sweep's
    ``record`` that has something to damage, and judge its resume, the
    record as the twin.  Returns the failure: None when recovery counted
    the damage or — for the ledger, whose rows exist nowhere else —
    refused by name."""
    if mode not in _CORRUPTIONS:
        raise ValueError(f"corrupt must be 'envelope', 'wal' or 'ledger', got {mode!r}")
    damage, counter = _CORRUPTIONS[mode]
    for files in reversed([s[2] for s in crash_states(*record.disk) if s[1] == WRITTEN]):
        with tempfile.TemporaryDirectory(prefix="hope-corrupt-") as root:
            if damage(write_state(root, files)) is None:
                continue
            files = {name: Path(root, name).read_bytes() for name in files}
        run = check_run(record.scenario, twin=record, disk=(files, None), **record.config())
        if counter is None:
            refused = "refused the crash state: ledger" in (run.failure or "")
            return None if refused else "ledger corruption was not detected by recovery"
        if not run.ok or not run.stats["durable"][counter]:
            return run.failure or f"{mode} corruption was not detected by recovery"
        return None
    return f"nothing to corrupt for mode {mode!r} in any crash state"


def run_crash_matrix(workloads: Optional[Iterable[str]] = None, seeds: Iterable[int] = (1, 2, 3),
                     repro_dir: Optional[str] = "chaos-repros") -> dict:
    """Sweep every crash point of each workload x seed
    (:func:`repro.verify.sweep`, as written and lost), plus per workload,
    on its first seed, one resumed leg — crashed at its middle point as
    written — swept the same way, and the three corruption cases."""
    seeds = list(seeds)
    sweeps, corruptions = [], []
    for name in workloads or CRASH_WORKLOADS:
        scenario = CRASH_WORKLOADS[name]
        first = sweep(scenario, seed=seeds[0], repro_dir=repro_dir)
        ops = first.record.disk[1]
        middle = first.record.choices[:ops[len(ops) // 2][3]] + [WRITTEN]
        sweeps += [first] + [sweep(scenario, seed=s, repro_dir=repro_dir) for s in seeds[1:]]
        sweeps.append(sweep(scenario, seed=seeds[0], prefix=middle, repro_dir=repro_dir))
        corruptions += [(name, mode, run_corruption_case(first.record, mode)) for mode in _CORRUPTIONS]
    failures = sum(len(s.failures) for s in sweeps) + sum(f is not None for *_, f in corruptions)
    return {"sweeps": sweeps, "corruptions": corruptions, "failures": failures}


def format_crash_report(report: dict) -> str:
    """Human-readable crash-sweep summary (what ``chaos --crash`` prints)."""
    sweeps = report["sweeps"]
    lines = [f"crash sweep: {sum(s.states for s in sweeps)} distinct states over "
             f"{sum(s.points for s in sweeps)} crash points, {report['failures']} failing"]
    for swept in sweeps:
        run = swept.record
        lines.append(f"  {run.scenario.name:<7} seed={run.seed} {run.label:<7} {swept.points:>3} "
                     f"crash points {swept.states:>3} states {'FAIL' if swept.failures else 'ok'}")
        lines += [f"        {r.label}: {r.failure}" for r in swept.failures]
        lines += [f"        reproducer written: {path}" for path in swept.repro_files]
    lines += [f"  {name:<7} corrupt={mode:<8} {failure or 'ok'}"
              for name, mode, failure in report["corruptions"]]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------
def run_matrix(
    workloads: Optional[Iterable[str]] = None,
    seeds: Iterable[int] = (1, 2, 3),
    plans: Optional[dict[str, FaultPlan]] = None,
    reliable: Any = True,
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
    config: dict = dict(latency=1.0, reliable=reliable)
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
