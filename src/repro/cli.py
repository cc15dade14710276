"""Command-line interface: check and run mini-HOPE programs.

Usage::

    python -m repro check program.hope
    python -m repro run program.hope \\
        --spawn server=Server:[60] \\
        --spawn worker=Worker:[10] \\
        --latency 5 --seed 1 --trace

``--spawn`` may repeat; its value is ``instance=Process:json_args`` where
``json_args`` is a JSON array of arguments passed to the process (default
``[]``).  Spawns happen in the order given.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Optional, Sequence

from .lang import CheckError, check_program, compile_program, parse
from .obs import FORMATS, MetricsRegistry
from .runtime import HopeSystem
from .sim import ConstantLatency, FaultPlan, LinkFaults, SimulationError, Tracer


class _CollectorClock:
    """``gc.callbacks`` listener for ``run --profile``: collections per
    generation and the seconds they took — a cost cProfile cannot place
    (it lands on whichever function happened to allocate)."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            generation = info["generation"]
            self.counts[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._began

    def line(self) -> str:
        return "collector: " + ", ".join(
            f"gen{g} {n} in {s:.3f}s"
            for g, (n, s) in enumerate(zip(self.counts, self.seconds))
        )


class _PassClock:
    """Stands in for ``HopeSystem._run_fossil_collection`` under ``run
    --profile``: the seconds the fossil passes took, measured only for
    the profiled run (their count and visits are always in ``stats()``)."""

    def __init__(self, system: HopeSystem) -> None:
        self.seconds = 0.0
        self._run_pass = system._run_fossil_collection
        system._run_fossil_collection = self

    def __call__(self, whole: bool = False) -> None:
        began = time.perf_counter()
        try:
            self._run_pass(whole)
        finally:
            self.seconds += time.perf_counter() - began

    def line(self, stats: dict) -> str:
        return (
            f"fossil: {stats['fossil_collections']} passes, "
            f"{stats['fossil_records_visited']} records visited, "
            f"{stats['fossil_aids_examined']} AIDs examined, {self.seconds:.3f} s, "
            f"{stats['processes_retired']} processes retired, "
            f"{stats['fossil_aids_retired']} AIDs retired"
        )


def _number(kind, holds, bound: str):
    """An argparse ``type=``: a ``kind`` for which ``holds`` (``bound``
    says what that is); argparse names the flag on refusal."""
    def parse(raw: str):
        value = kind(raw)       # a ValueError reads "invalid float value"
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {raw}")
        return value
    parse.__name__ = kind.__name__
    return parse


_PROBABILITY = _number(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_NON_NEGATIVE = _number(float, lambda v: v >= 0, ">= 0")
_POSITIVE = _number(float, lambda v: v > 0, "> 0")
_COUNT = _number(int, lambda v: v >= 1, ">= 1")


def fault_plan_from_args(args) -> Optional[FaultPlan]:
    """Build the FaultPlan the run/chaos flags describe, or None."""
    default = LinkFaults(
        drop=args.drop_rate,
        duplicate=args.dup_rate,
        reorder=args.reorder_rate,
        reorder_window=args.reorder_window if args.reorder_rate > 0 else 0.0,
        jitter=args.jitter,
    )
    if default.is_null:
        return None
    return FaultPlan(default=default)


def add_fault_arguments(parser) -> None:
    group = parser.add_argument_group("fault injection (repro.sim.faults)")
    group.add_argument(
        "--drop-rate", type=_PROBABILITY, default=0.0, metavar="P",
        help="per-message drop probability on every link",
    )
    group.add_argument(
        "--dup-rate", type=_PROBABILITY, default=0.0, metavar="P",
        help="per-message duplication probability",
    )
    group.add_argument(
        "--reorder-rate", type=_PROBABILITY, default=0.0, metavar="P",
        help="per-message reorder probability",
    )
    group.add_argument(
        "--reorder-window", type=_POSITIVE, default=5.0, metavar="T",
        help="max extra delay for reordered messages (with --reorder-rate)",
    )
    group.add_argument(
        "--jitter", type=_NON_NEGATIVE, default=0.0, metavar="T",
        help="uniform extra latency in [0, T) per message",
    )
    group.add_argument(
        "--reliable", action="store_true",
        help="ack/retry delivery with receiver dedup (repro.runtime.resilience)",
    )
    group.add_argument(
        "--failure-detector", action="store_true",
        help="heartbeat failure detector: suspected peers' pending AIDs are denied",
    )


class SpawnSpec:
    """One --spawn argument: instance=Process:json_args."""

    def __init__(self, raw: str) -> None:
        try:
            instance, rest = raw.split("=", 1)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--spawn needs instance=Process[:json_args], got {raw!r}"
            )
        if ":" in rest:
            process, args_text = rest.split(":", 1)
            try:
                args = json.loads(args_text)
            except json.JSONDecodeError as exc:
                raise argparse.ArgumentTypeError(
                    f"bad JSON args in --spawn {raw!r}: {exc}"
                )
            if not isinstance(args, list):
                raise argparse.ArgumentTypeError(
                    f"--spawn args must be a JSON array, got {args_text!r}"
                )
        else:
            process, args = rest, []
        self.instance = instance
        self.process = process
        self.args = args


def _add_run_arguments(parser, recorded: str = "") -> None:
    """The flags ``run`` and ``resume`` share; ``recorded`` marks those a
    resume must repeat."""
    parser.add_argument(
        "--spawn", action="append", type=SpawnSpec, default=[],
        metavar="instance=Process[:json_args]",
        help=f"spawn a process instance (repeatable, in order){recorded}",
    )
    parser.add_argument("--latency", type=_NON_NEGATIVE, default=1.0, help="network latency")
    parser.add_argument("--seed", type=int, default=0, help=f"root random seed{recorded}")
    parser.add_argument("--until", type=_NON_NEGATIVE, help="stop at this virtual time")
    parser.add_argument("--max-events", type=_COUNT, default=1_000_000, help="livelock guard")
    parser.add_argument("--trace", action="store_true", help="print the event trace at the end")
    parser.add_argument(
        "--fossil-interval", type=_COUNT, default=64, metavar="N",
        help="minimum finalizes between fossil-collection passes "
        "(see docs/PERFORMANCE.md §4 and §13)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HOPE: run or check mini-HOPE programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="statically check a program")
    check.add_argument("path", help="mini-HOPE source file")

    run = sub.add_parser("run", help="run a program on the HOPE runtime")
    run.add_argument("path", help="mini-HOPE source file")
    _add_run_arguments(run)
    run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 25 functions by "
        "cumulative time after the run, then the garbage collector's "
        "collections and seconds per generation and the fossil passes' "
        "count, visits, seconds, processes retired and AIDs retired "
        "(docs/PERFORMANCE.md §8, §11, §13, §14, §17)",
    )
    run.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="with --profile: also dump raw pstats data to PATH "
        "(load with pstats.Stats(PATH) or any profile viewer)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the speculation metrics at the end "
        "('-' for stdout; see docs/PERFORMANCE.md §5)",
    )
    run.add_argument(
        "--metrics-format",
        choices=list(FORMATS),
        default="summary",
        help="exporter for --metrics-out (default: summary)",
    )
    run.add_argument(
        "--durable-dir",
        metavar="DIR",
        default=None,
        help="record sealed snapshots + an effect WAL into DIR so a killed "
        "run can be resumed with `repro resume` (flushed at fossil-"
        "collection passes; see docs/DURABILITY.md)",
    )
    add_fault_arguments(run)

    resume = sub.add_parser(
        "resume",
        help="resume a durable run from its snapshot/WAL directory "
        "(see docs/DURABILITY.md for the recovery contract)",
    )
    resume.add_argument("path", help="mini-HOPE source file (same program)")
    resume.add_argument(
        "--durable-dir",
        metavar="DIR",
        required=True,
        help="the directory the interrupted run recorded into",
    )
    _add_run_arguments(resume, " (as in the recorded run)")

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeds x fault plans over the chaos workloads "
        "(invariants + fault-free twin equality)",
    )
    chaos.add_argument(
        "--workload",
        action="append",
        default=[],
        metavar="NAME",
        help="workload to sweep (repeatable; default: all registered)",
    )
    chaos.add_argument(
        "--seeds",
        default="1,2,3",
        metavar="S1,S2,...",
        help="comma-separated seeds (default: 1,2,3)",
    )
    chaos.add_argument(
        "--repro-dir",
        default="chaos-repros",
        metavar="DIR",
        help="where minimal failing choice prefixes are written",
    )
    chaos.add_argument(
        "--repro",
        default=None,
        metavar="FILE",
        help="replay a reproducer file (either command's) instead of the matrix",
    )
    chaos.add_argument(
        "--max-events", type=int, default=None, help="per-case livelock guard"
    )
    chaos.add_argument(
        "--no-verify-determinism",
        action="store_true",
        help="skip the fingerprint re-run check",
    )
    chaos.add_argument(
        "--failure-detector", action="store_true",
        help="also run the heartbeat failure detector in every case",
    )
    chaos.add_argument(
        "--list-plans", action="store_true",
        help="list the standard fault plans and workloads, then exit",
    )
    chaos.add_argument(
        "--crash", action="store_true",
        help="crash sweep: crash each durable workload before every file "
        "operation (as written, and losing what no fsync covered), resume "
        "every distinct state and require the twin's committed state "
        "(see docs/DURABILITY.md §6)",
    )

    verify = sub.add_parser(
        "verify",
        help="model-check the scenario matrix: DPOR-reduced exhaustive "
        "interleaving enumeration (default) or randomized exploration",
    )
    verify.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="SUBSTR",
        help="only scenarios whose name contains SUBSTR (repeatable; "
        "default: the whole standard matrix)",
    )
    verify.add_argument(
        "--mode",
        choices=["dpor", "full", "random"],
        default="dpor",
        help="dpor: partial-order-reduced enumeration (default); full: "
        "every tie permutation (the reduction-soundness oracle); random: "
        "the randomized explorer",
    )
    verify.add_argument("--seed", type=int, default=0, help="root random seed")
    verify.add_argument(
        "--latency", type=float, default=0.5, help="network latency for dpor/full"
    )
    verify.add_argument(
        "--max-schedules",
        type=int,
        default=2000,
        metavar="N",
        help="per-scenario execution budget; exhausting it fails the "
        "scenario (incomplete enumeration proves nothing)",
    )
    verify.add_argument(
        "--max-events", type=int, default=200_000, help="per-run livelock guard"
    )
    verify.add_argument(
        "--runs", type=int, default=50, metavar="N",
        help="run count for --mode random",
    )
    verify.add_argument(
        "--strict-orphans",
        action="store_true",
        help="reject quiescent states with pending AIDs nobody speculates "
        "on (check_quiescent(allow_pending_orphans=False))",
    )
    verify.add_argument(
        "--repro-dir",
        default="verify-repros",
        metavar="DIR",
        help="where minimal failing choice prefixes are written",
    )
    verify.add_argument(
        "--repro",
        default=None,
        metavar="FILE",
        help="replay a reproducer file (either command's) instead of exploring",
    )
    return parser


def cmd_check(path: str, out) -> int:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        program = parse(source)
    except SyntaxError as exc:
        print(f"syntax error: {exc}", file=out)
        return 2
    report = check_program(program)
    for warning in report.warnings:
        print(f"warning: {warning}", file=out)
    for error in report.errors:
        print(f"error: {error}", file=out)
    if report.ok:
        print(f"{path}: OK ({len(program.processes)} process(es))", file=out)
        return 0
    return 1


def _print_outcomes(system, specs, out) -> None:
    """Each spawned instance's status and result, then its committed
    outputs (a retired instance's come from the ledger)."""
    for spec in specs:
        name = spec.instance
        proc = system.procs.get(name)
        done = proc is None or proc.done
        result = system.result_of(name) if proc is None else proc.result
        print(f"[{name}] {'done' if done else 'blocked'}, result={result!r}", file=out)
        for value in system.committed_outputs(name):
            print(f"[{name}] output: {value!r}", file=out)


def _spawn_error(compiled, args) -> Optional[str]:
    """Why ``args.spawn`` cannot be spawned from ``compiled`` — an unknown
    process, an instance named twice, a wrong argument count — or None.
    Checked before any system is built, so a refused run makes nothing."""
    params = {proc.name: proc.params for proc in compiled.program.processes}
    seen = set()
    for spec in args.spawn:
        if spec.process not in params:
            problem = f"no process {spec.process!r}"
        elif spec.instance in seen:
            problem = f"instance {spec.instance!r} is already spawned"
        elif len(spec.args) != len(params[spec.process]):
            problem = (f"process {spec.process!r} takes "
                       f"{len(params[spec.process])} argument(s), got {len(spec.args)}")
        else:
            seen.add(spec.instance)
            continue
        defined = ", ".join(f"{name}({', '.join(p)})" for name, p in params.items())
        return (f"--spawn {spec.instance}={spec.process}: {problem}; "
                f"{args.path} defines {defined}")
    return None


def cmd_run(args, out) -> int:
    with open(args.path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        compiled = compile_program(source)
    except (SyntaxError, CheckError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    for warning in compiled.warnings:
        print(f"warning: {warning}", file=out)
    if not args.spawn:
        print(
            "error: nothing to run — add --spawn instance=Process[:json_args]",
            file=out,
        )
        return 1
    problem = _spawn_error(compiled, args)
    if problem is not None:
        print(f"error: {problem}", file=out)
        return 1
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics_out else None
    faults = fault_plan_from_args(args)
    system = HopeSystem(
        seed=args.seed,
        latency=ConstantLatency(args.latency),
        trace=tracer,
        fossil_interval=args.fossil_interval,
        metrics=registry,
        faults=faults,
        reliable=args.reliable,
        failure_detector=args.failure_detector,
        durable_dir=args.durable_dir,
    )
    for spec in args.spawn:
        compiled.spawn(system, spec.instance, spec.process, *spec.args)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        collector = _CollectorClock()
        passes = _PassClock(system)
        gc.callbacks.append(collector)
        profiler.enable()
    try:
        final = system.run(until=args.until, max_events=args.max_events)
    except SimulationError as exc:
        print(f"error: {exc}", file=out)
        return 1
    finally:
        if profiler is not None:
            profiler.disable()
            gc.callbacks.remove(collector)
    stats = system.stats()
    print(f"finished at t={final:g}", file=out)
    _print_outcomes(system, args.spawn, out)
    print(
        f"stats: rollbacks={stats['rollbacks']} messages={stats['messages_sent']} "
        f"wasted={stats['wasted_time']:g} guesses={stats['guesses']}",
        file=out,
    )
    if "faults" in stats:
        fs = stats["faults"]
        print(
            f"faults: dropped={fs['dropped']} duplicated={fs['duplicated']} "
            f"reordered={fs['reordered']} partition_dropped={fs['partition_dropped']}",
            file=out,
        )
    if "reliable" in stats:
        rs = stats["reliable"]
        print(
            f"reliable: sent={rs['sent']} retries={rs['retries']} "
            f"acked={rs['acked']} dup_suppressed={rs['dup_suppressed']} "
            f"exhausted={rs['exhausted']}",
            file=out,
        )
    if "detector" in stats:
        ds = stats["detector"]
        print(
            f"detector: suspects={ds['suspects']} false={ds['false_suspicions']} "
            f"denies={ds['detector_denies']}",
            file=out,
        )
    if tracer is not None:
        print("\ntrace:", file=out)
        print(tracer.format(), file=out)
    if registry is not None:
        rendered = system.export_metrics(args.metrics_format)
        if args.metrics_out == "-":
            print(rendered, file=out, end="")
        else:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
            print(f"metrics: wrote {args.metrics_format} to {args.metrics_out}", file=out)
    if profiler is not None:
        import pstats

        print("\nprofile (top 25 by cumulative time):", file=out)
        stats_obj = pstats.Stats(profiler, stream=out)
        stats_obj.sort_stats("cumulative").print_stats(25)
        print(collector.line(), file=out)
        print(passes.line(stats), file=out)
        if args.profile_out is not None:
            stats_obj.dump_stats(args.profile_out)
            print(f"profile: wrote pstats data to {args.profile_out}", file=out)
    return 0


def cmd_resume(args, out) -> int:
    with open(args.path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        compiled = compile_program(source)
    except (SyntaxError, CheckError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    if not args.spawn:
        print(
            "error: resume must recreate the original process tree — add "
            "the run's --spawn flags",
            file=out,
        )
        return 1
    problem = _spawn_error(compiled, args)
    if problem is not None:
        print(f"error: {problem}", file=out)
        return 1

    def build(system: HopeSystem) -> None:
        for spec in args.spawn:
            compiled.spawn(system, spec.instance, spec.process, *spec.args)

    from .durable import DurableError

    tracer = Tracer() if args.trace else None
    try:
        system = HopeSystem.resume(
            args.durable_dir,
            build,
            seed=args.seed,
            latency=ConstantLatency(args.latency),
            trace=tracer,
            fossil_interval=args.fossil_interval,
        )
    except DurableError as exc:
        print(f"error: {exc}", file=out)
        return 1
    durable = system.stats().get("durable", {})
    if durable.get("resumed"):
        print(
            f"resumed from generation {durable.get('resumed_generation')} "
            f"at t={system.sim.now:g} "
            f"(rejected envelopes: {durable.get('envelopes_rejected', 0)}, "
            f"torn WAL records discarded: "
            f"{durable.get('wal_records_discarded', 0)}, "
            f"frames replayed: {durable.get('frames_replayed', 0)}, "
            f"ledger rows verified: {durable.get('ledger_rows_verified', 0)})",
            file=out,
        )
    else:
        print("no recoverable state found — starting fresh", file=out)
    try:
        final = system.run(until=args.until, max_events=args.max_events)
    except SimulationError as exc:
        print(f"error: {exc}", file=out)
        return 1
    print(f"finished at t={final:g}", file=out)
    _print_outcomes(system, args.spawn, out)
    if tracer is not None:
        print("\ntrace:", file=out)
        print(tracer.format(), file=out)
    return 0


def cmd_chaos(args, out) -> int:
    from .chaos import (
        CRASH_WORKLOADS,
        PLAN_DESCRIPTIONS,
        WORKLOAD_DESCRIPTIONS,
        WORKLOADS,
        format_crash_report,
        format_report,
        run_crash_matrix,
        run_matrix,
    )

    if args.list_plans:
        print("fault plans (the standard matrix sweeps each):", file=out)
        for name, desc in PLAN_DESCRIPTIONS.items():
            print(f"  {name:<11} {desc}", file=out)
        for title, names in (("workloads", WORKLOADS),
                             ("kill/resume workloads (--crash)", CRASH_WORKLOADS)):
            print(f"\n{title}:", file=out)
            for name in names:
                print(f"  {name:<11} {WORKLOAD_DESCRIPTIONS[name]}", file=out)
        return 0
    if args.repro is not None:
        return cmd_replay(args.repro, out)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        print(f"error: --seeds must be comma-separated ints, got {args.seeds!r}",
              file=out)
        return 2
    if args.crash:
        unknown = sorted(set(args.workload) - set(CRASH_WORKLOADS))
        if unknown:
            print(f"error: unknown crash workload(s) {unknown} "
                  f"(expected one of {sorted(CRASH_WORKLOADS)})", file=out)
            return 2
        report = run_crash_matrix(args.workload or None, seeds, args.repro_dir)
        print(format_crash_report(report), file=out)
        return 0 if not report["failures"] else 1
    report = run_matrix(
        workloads=args.workload or None,
        seeds=seeds,
        detector=args.failure_detector,
        repro_dir=args.repro_dir,
        verify_determinism=not args.no_verify_determinism,
        max_events=args.max_events,
    )
    print(format_report(report), file=out)
    return 0 if not report["failures"] else 1


def cmd_verify(args, out) -> int:
    import os

    from .verify import DporExplorer, explore, standard_scenarios

    if args.repro is not None:
        return cmd_replay(args.repro, out)
    if args.mode == "random":
        report = explore(
            n_runs=args.runs,
            root_seed=args.seed,
            check_determinism=True,
            shuffle_ties=True,
            repro_dir=args.repro_dir,
        )
        print(report.summary(), file=out)
        return 0 if report.ok else 1
    scenarios = standard_scenarios()
    if args.scenario:
        scenarios = [
            sc for sc in scenarios
            if any(want in sc.name for want in args.scenario)
        ]
        if not scenarios:
            print(f"error: no scenario matches {args.scenario!r}", file=out)
            return 2
    # Test seam: lets the integration suite plant a schedule-dependent bug
    # and assert the whole find -> shrink -> reproduce pipeline end to end.
    inject = os.environ.get("REPRO_VERIFY_INJECT_BUG", "") not in ("", "0")
    exit_code = 0
    for scenario in scenarios:
        explorer = DporExplorer(
            scenario,
            seed=args.seed,
            latency=args.latency,
            prune=args.mode != "full",
            max_schedules=args.max_schedules,
            max_events=args.max_events,
            allow_pending_orphans=not args.strict_orphans,
            inject_bug=inject,
            repro_dir=args.repro_dir,
        )
        report = explorer.explore()
        print(report.summary(), file=out)
        if not report.ok:
            exit_code = 1
    return exit_code


def cmd_replay(path: str, out) -> int:
    """Replay a reproducer file (``chaos --repro`` and ``verify --repro``)."""
    from .verify import ReplayDivergence, replay

    try:
        run = replay(path)
    except (ValueError, ReplayDivergence) as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(f"reproducer {path}: {run!r}, {len(run.choices)} steps", file=out)
    if run.violations:
        print(f"failure: {run.violations}", file=out)
        return 1
    print("reproducer no longer fails", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.path, out)
    if args.command == "chaos":
        return cmd_chaos(args, out)
    if args.command == "verify":
        return cmd_verify(args, out)
    if args.command == "resume":
        return cmd_resume(args, out)
    return cmd_run(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
