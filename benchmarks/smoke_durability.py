"""CI smoke: durable runs must stay cheap, recoverable, and honest.

Three budgets from ``overhead_threshold.json``:

* **DURABLE overhead** — wall time of the commit-point counter workload
  with snapshot+WAL recording on vs. off must stay at or below
  ``max_durable_overhead_ratio``, judged best-of-attempts like the TRACK
  check in ``smoke_overhead.py``.  Recording writes sealed envelopes and
  fsyncs WAL batch markers from every fossil pass, so the ratio is above
  1 by design; the budget catches a regression that starts serializing
  speculative state, history the pass itself discards, or the whole run
  into every envelope.
* **RECOVERY wall** — killing the workload at the latest budgeted crash
  point and resuming (load + verify + WAL replay + reconvergence) must
  finish within ``max_recovery_wall_s``.
* **KILL/RESUME equality** — at each fraction in ``durable_kill_fracs``,
  a child process is killed mid-run by ``os._exit`` (real process death
  when the platform has ``fork``; in-process abandonment otherwise) and
  the resumed run's committed state must equal the uninterrupted twin's
  byte for byte — plus, per workload, one resume of a resume (killed at
  the first fraction, resumed, killed again at the second, resumed), one
  envelope- and one WAL-corruption case that must be *detected* (counted
  rejections/discards) and survived, and one ledger-corruption case that
  must be *refused* by name.

Fully deterministic except for wall clocks; the equality checks are a
real regression whenever they fail, never flake.

Usage::

    PYTHONPATH=src python benchmarks/smoke_durability.py
"""

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_counter(durable_dir, workers, rounds, opts=None):
    from repro.bench.workloads import build_durable_counter
    from repro.runtime import HopeSystem
    from repro.sim import ConstantLatency

    kwargs = dict(
        seed=7, latency=ConstantLatency(1.0), fossil_interval=8,
    )
    if durable_dir is not None:
        kwargs.update(durable_dir=durable_dir, durable_opts=dict(opts or {}))
    system = HopeSystem(**kwargs)
    build_durable_counter(system, workers=workers, rounds=rounds)
    started = time.perf_counter()
    system.run()
    return time.perf_counter() - started, system


def _check_overhead(budget: dict) -> int:
    limit = budget["max_durable_overhead_ratio"]
    workers, rounds = 4, budget.get("durable_rounds", 120)
    best = None
    for attempt in range(budget.get("attempts", 3)):
        bare_wall, bare = _run_counter(None, workers, rounds)
        with tempfile.TemporaryDirectory(prefix="durable-smoke-") as tmp:
            dur_wall, dur = _run_counter(
                tmp, workers, rounds, opts={"snapshot_every": 4}
            )
            stats = dur.stats()["durable"]
        ratio = dur_wall / bare_wall if bare_wall > 0 else float("inf")
        # The two terms a regression would grow: bytes per committed op
        # (the WAL stopped eliding) and the envelope (it stopped being
        # live state only).
        print(
            f"durable overhead attempt {attempt + 1}: bare {bare_wall:.3f}s, "
            f"durable {dur_wall:.3f}s, ratio {ratio:.2f} (budget {limit}); "
            f"{stats['snapshots_written']} snapshots, "
            f"{stats['wal_records']} WAL records, "
            f"{stats['wal_bytes']} WAL bytes = "
            f"{stats['wal_bytes'] / (workers * rounds):.0f} per committed op, "
            f"newest envelope {stats['envelope_bytes']} bytes, "
            f"{stats['ledger_rows']} ledger rows"
        )
        if not stats["snapshots_written"] or not stats["wal_records"]:
            print("FAIL: the durable run never persisted anything")
            return 1
        best = ratio if best is None else min(best, ratio)
        if best <= limit:
            break
    if best is None or best > limit:
        print(f"FAIL: durable overhead ratio {best:.2f} best-of-attempts "
              f"exceeds budget {limit}")
        return 1
    print(f"OK: durable overhead ratio {best:.2f} within budget {limit}")
    return 0


def _check_recovery_wall(budget: dict) -> int:
    from repro.bench.workloads import build_durable_counter
    from repro.runtime import HopeSystem
    from repro.sim import ConstantLatency, EventLimitExceeded

    limit = budget["max_recovery_wall_s"]
    workers, rounds = 4, budget.get("durable_rounds", 120)
    tmp = tempfile.mkdtemp(prefix="durable-recovery-")
    try:
        kwargs = dict(
            seed=7, latency=ConstantLatency(1.0), fossil_interval=8,
        )
        system = HopeSystem(
            durable_dir=tmp, durable_opts={"snapshot_every": 4}, **kwargs
        )
        build_durable_counter(system, workers=workers, rounds=rounds)
        _, twin = _run_counter(None, workers, rounds)
        total = twin.stats()["sim_events"]
        try:
            system.run(max_events=max(2, int(total * 0.85)))
        except EventLimitExceeded:
            pass
        del system                      # crash: no durable sync
        started = time.perf_counter()
        resumed = HopeSystem.resume(
            tmp,
            lambda s: build_durable_counter(s, workers=workers, rounds=rounds),
            durable_opts={"snapshot_every": 4}, **kwargs,
        )
        resumed.run()
        wall = time.perf_counter() - started
        stats = resumed.stats()["durable"]
        print(
            f"recovery: resumed generation {stats['resumed_generation']} "
            f"and reconverged in {wall:.3f}s (budget {limit}s)"
        )
        if not stats["resumed"]:
            print("FAIL: nothing was recovered — the kill left no durable state")
            return 1
        want = {n: sorted(map(repr, twin.committed_outputs(n)))
                for n in twin.process_names()}
        got = {n: sorted(map(repr, resumed.committed_outputs(n)))
               for n in resumed.process_names()}
        if got != want:
            print("FAIL: recovered committed state diverged from the twin")
            return 1
        if wall > limit:
            print(f"FAIL: recovery took {wall:.3f}s, budget is {limit}s")
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("OK: recovery within budget and byte-identical to the twin")
    return 0


def _check_kill_resume(budget: dict) -> int:
    from repro.chaos import format_kill_report, run_kill_resume_matrix

    fracs = budget["durable_kill_fracs"]
    in_process = not hasattr(os, "fork")
    report = run_kill_resume_matrix(
        seeds=budget["chaos_seeds"][:1], fracs=fracs, resume_chains=True,
        in_process=in_process,
    )
    print(format_kill_report(report))
    mode = "in-process" if in_process else "fork + os._exit"
    print(f"kill/resume smoke ({mode}): {report['passed']}/{report['total']}")
    if report["failures"]:
        print(f"FAIL: {len(report['failures'])} kill/resume case(s) failed")
        return 1
    print("kill/resume smoke OK")
    return 0


def main() -> int:
    with open(os.path.join(HERE, "overhead_threshold.json"), encoding="utf-8") as fh:
        budget = json.load(fh)
    rc = 0
    rc |= _check_kill_resume(budget)
    rc |= _check_overhead(budget)
    rc |= _check_recovery_wall(budget)
    return 1 if rc else 0


if __name__ == "__main__":
    sys.exit(main())
