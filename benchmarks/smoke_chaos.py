"""CI smoke: the fixed-seed chaos matrix must stay green and cheap.

Runs the full :mod:`repro.chaos` matrix (every registered workload x the
standard fault plans x the budgeted seed set) with invariant monitors
attached, and fails if

* fewer than ``chaos_min_cases`` combinations ran (the matrix silently
  shrank),
* any case fails — an invariant violation, a livelock, a stuck process,
  a fingerprint mismatch on re-run, or committed state diverging from
  the fault-free twin,
* the whole matrix exceeds ``chaos_max_wall_s`` (the harness is meant to
  be cheap enough to run on every push).

Seeds are fixed, fault sampling is drawn from the seeded stream, and the
workloads use constant latency, so this is fully deterministic — a
failure here is a real regression, never flake.

Usage::

    PYTHONPATH=src python benchmarks/smoke_chaos.py
"""

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(HERE, "overhead_threshold.json"), encoding="utf-8") as fh:
        budget = json.load(fh)
    from repro.chaos import format_report, run_matrix

    seeds = budget["chaos_seeds"]
    min_cases = budget["chaos_min_cases"]
    max_wall = budget["chaos_max_wall_s"]
    # Case outcomes are deterministic — any failure fails immediately.
    # The wall bound measures the box as much as the code, so it is
    # judged best of ``attempts``: a real complexity regression is slow
    # on every attempt, one contended CI moment is not.
    best_wall = None
    for attempt in range(budget.get("attempts", 3)):
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
            report = run_matrix(seeds=seeds, repro_dir=tmp)
            wall = time.perf_counter() - started
            if attempt == 0:
                print(format_report(report))
            print(f"chaos smoke attempt {attempt + 1}: {report['total']} cases "
                  f"in {wall:.2f}s (budget: >= {min_cases} cases, <= {max_wall}s)")
            if report["total"] < min_cases:
                print(f"FAIL: only {report['total']} cases ran, budget requires "
                      f">= {min_cases}")
                return 1
            if report["failures"]:
                print(f"FAIL: {len(report['failures'])} chaos case(s) failed")
                return 1
        best_wall = wall if best_wall is None else min(best_wall, wall)
        if best_wall <= max_wall:
            break
    if best_wall is None or best_wall > max_wall:
        print(f"FAIL: chaos matrix took {best_wall:.2f}s best-of-attempts, "
              f"budget is {max_wall}s")
        return 1
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
