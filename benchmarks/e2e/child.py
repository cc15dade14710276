"""One benchmark run in a fresh process; prints one JSON object.

Modes (first argument):

``timed``
    Nothing attached.  Set-up, ``gc.collect()``, then ``run()`` under
    ``perf_counter``; peak RSS is read right after ``run()`` returns, so
    the oracle check that follows cannot raise it.
``observed``
    The same run with a ``MetricsRegistry`` attached (commit latency) and,
    with ``--profile``, under cProfile (layer attribution); then the
    oracle check, then the pessimistic twin.  Never timed.
``kill``
    The durable workload run to ``--max-events`` events, then ``os._exit``.
``resume``
    ``HopeSystem.resume`` on the directory a killed child left, timed to
    quiescence and checked against the oracle.

Run by run.py; not an entry point of its own.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import layers                                        # noqa: E402
from workloads import WORKLOADS                      # noqa: E402

#: Exit code of a child killed on purpose (the kill/resume recovery check).
KILLED = 17


def _ledger_sha(ledger: dict) -> str:
    return hashlib.sha256(repr(sorted(ledger.items(), key=repr)).encode()).hexdigest()


def _useful_ratio(stats: dict) -> float:
    busy, wasted = stats["busy_time"], stats["wasted_time"]
    return busy / (busy + wasted)


def _outcome_fields(workload, outcome, corrupt: bool = False) -> dict:
    ledger = outcome.ledger
    if corrupt:                                      # self-check: the oracle must notice
        op = next(iter(ledger))
        ledger[op] = ledger[op][:-1]
    return {
        "ops": workload.ops,
        "failed": workload.failed_ops(ledger),
        "makespan_vt": outcome.makespan,
        "useful_ratio": _useful_ratio(outcome.stats),
        "ledger_sha256": _ledger_sha(ledger),
        "stats": outcome.stats,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["timed", "observed", "kill", "resume"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--dir", help="fresh durable directory")
    parser.add_argument("--max-events", type=int)
    args = parser.parse_args()

    spans = []

    def span(name, start, end=None):
        spans.append({"name": name, "start_s": start - args.t0,
                      "end_s": (end or time.time()) - args.t0, "parent": None})

    workload = WORKLOADS[args.workload](args.seed, args.quick)

    if args.mode == "resume":
        begin = time.perf_counter()
        outcome = workload.resume(args.dir)()
        report = {"resume_s": time.perf_counter() - begin}
        report.update(_outcome_fields(workload, outcome))
        print(json.dumps(report))
        return

    registry = None
    if args.mode == "observed":
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    thunk = workload.start(metrics=registry, durable_dir=args.dir)

    if args.mode == "kill":
        from repro.sim import EventLimitExceeded

        try:
            thunk(args.max_events)
        except EventLimitExceeded:
            os._exit(KILLED)
        raise SystemExit("the run reached quiescence before --max-events")

    gc.collect()
    profile = cProfile.Profile() if args.profile else None
    called = time.time()
    span("setup", args.t0, called)
    begin = time.perf_counter()
    if profile is not None:
        profile.enable()
    outcome = thunk()
    if profile is not None:
        profile.disable()
    wall = time.perf_counter() - begin
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    span("run", called)

    checking = time.time()
    report = {"setup_s": called - args.t0, "wall_s": wall, "peak_rss_mib": rss_kib / 1024}
    report.update(_outcome_fields(workload, outcome, args.corrupt))
    span("check", checking)

    if args.mode == "observed":
        latency = registry.get("hope_commit_latency")
        report["commit_latency_vt"] = latency.sum / latency.count
        twinning = time.time()
        twin = workload.start(twin=True)()
        span("twin", twinning)
        report["twin_makespan_vt"] = twin.makespan
        report["twin_failed"] = workload.failed_ops(twin.ledger)
        report["spans"] = spans
        if profile is not None:
            calls = pstats.Stats(profile).stats
            report["layers"] = layers.attribute(calls, wall)
            report["effects"] = layers.function_cost(calls, "engine.py", "_handle_effect")[0]
            report["fsyncs"], report["fsync_s"] = layers.function_cost(calls, "~", "posix.fsync")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
