"""The one checked run, its shrinker and its reproducer file.

Every harness is a campaign over :func:`check_run` — :func:`explore`,
:func:`repro.chaos.run_matrix` and
:class:`~repro.verify.dpor.DporExplorer`.  A run is one path through one
choice tree (every same-time tie and every drop/reorder fate is a choice
point of the :class:`~repro.verify.schedule.RecordingController`): the
DFS enumerates the tree, a :func:`walk` samples it from the run's seeded
streams, and either records the path it took.  :func:`check_run` records
in :attr:`Run.violations` a streaming invariant, a livelock (the event
budget ran out), a quiescent invariant, a twin-oracle workload's stuck
process, and an oracle mismatch — Boudol, Petri & Serpette's criterion,
that a speculative run is valid iff it commits what some normal-order
run commits: the scenario's decision-derived reference, its blocking
twin's ledger (``speculation=False``), or its fault-free twin's committed
multiset.  A failing run shrinks (:func:`shrink`) to the shortest prefix of its
choices that still fails with every later choice at its DFS default;
``repro verify --repro`` and ``repro chaos --repro`` both :func:`replay`
the file :func:`write_reproducer` stores.

A durable run (``durable_opts``) has one more choice point, a host crash
before each file operation of its store: it resumes from what the crash
leaves (:func:`crash_states`; :func:`sweep` tries them all), judged too.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..durable.codec import DurableError
from ..durable.store import DurableStore, HostCrash
from ..runtime import HopeSystem, ReliableConfig
from ..sim import ConstantLatency, EventLimitExceeded, FaultPlan, RandomStreams, Tracer
from .invariants import InvariantViolation, attach_monitors, check_quiescent
from .programs import Scenario, random_scenario, scenario_from_spec
from .schedule import RecordingController


def committed_state(ledgers) -> dict[str, tuple]:
    """Canonical committed-output multiset per process, from a
    ``{process: outputs}`` map or a :class:`HopeSystem`.

    Sorted because fault plans legitimately permute *when* outputs
    commit; the twin check compares *what* was committed.
    """
    if isinstance(ledgers, HopeSystem):
        ledgers = {n: ledgers.committed_outputs(n) for n in ledgers.process_names()}
    return {name: tuple(sorted(repr(v) for v in out)) for name, out in ledgers.items()}


#: A :class:`Run`'s configuration: :func:`check_run`'s keywords.
_CONFIG = ("seed", "latency", "faults", "reliable", "max_events",
           "allow_pending_orphans", "inject_bug", "fossil_interval", "durable_opts")


@dataclass(eq=False)
class Run:
    """One checked run: its configuration, what it did, what was found.

    The configuration fields are :func:`check_run`'s keywords (see
    :meth:`config`); ``max_drops`` is its controller's, and ``label`` is
    the campaign's name for the run (a fault plan, a schedule number).
    """

    scenario: Scenario
    seed: int = 0
    latency: float = 1.0
    faults: Optional[FaultPlan] = None
    reliable: Any = False
    max_events: int = 200_000
    allow_pending_orphans: bool = True
    inject_bug: bool = False
    fossil_interval: int = 64
    durable_opts: Optional[dict] = None
    max_drops: Optional[int] = None
    label: str = ""
    violations: list = field(default_factory=list)
    fingerprint: str = ""
    ledgers: dict = field(default_factory=dict)
    rollbacks: int = 0
    stats: dict = field(default_factory=dict)
    final_time: float = 0.0
    choices: list = field(default_factory=list)
    disk: tuple = ()    # a durable run's last leg, as crash_states() takes it

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failure(self) -> Optional[str]:
        return "; ".join(self.violations) or None

    @property
    def committed(self) -> dict[str, tuple]:
        return committed_state(self.ledgers)

    def config(self) -> dict:
        """The keywords that re-run this configuration with :func:`check_run`."""
        return {name: getattr(self, name) for name in _CONFIG}

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else f"FAIL({self.failure})"
        label = f" {self.label}" if self.label else ""
        return f"<Run {self.scenario.name} seed={self.seed}{label}: {verdict}>"


def check_run(scenario: Scenario, *, controller: Optional[RecordingController] = None,
              twin: Optional[Run] = None, label: str = "", disk: Optional[tuple] = None,
              **config) -> Run:
    """Build, run and judge one monitored run; never raises on a finding.

    ``config`` is the :class:`Run`'s configuration (:meth:`Run.config`;
    with ``durable_opts`` the run records into a scratch directory, and
    resumes from the crash state ``disk``, ``(files, sealed)``, if given).
    ``controller`` directs the run (``None``: the plain runtime).
    ``twin`` is the oracle's normal-order run (:func:`twin_of` computes
    it when needed and not given).  ``inject_bug`` misflags runs where an
    AID named ``y*`` is resolved first — a schedule-dependent "bug" that
    proves the find → shrink → reproduce pipeline end to end.
    """
    run = Run(scenario, label=label, **config,
              max_drops=controller.max_drops if controller is not None else None)
    if twin is None and (scenario.blocking_oracle or (
        scenario.reference is None and (run.faults is not None or controller is not None)
    )):
        twin = twin_of(run)
    _check(run, controller, twin, disk=disk)
    return run


def twin_of(run: Run) -> Optional[Run]:
    """The normal-order run ``run``'s oracle compares against, or None:
    the blocking twin (``speculation=False``) of a ``blocking_oracle``
    scenario, the fault-free undirected run of a twin-oracle workload."""
    blocking = run.scenario.blocking_oracle
    if not blocking and run.scenario.reference is not None:
        return None
    twin = Run(**{**run.config(), "faults": None, "inject_bug": False, "durable_opts": None},
               scenario=run.scenario, label="twin")
    _check(twin, None, None, speculation=not blocking)
    return twin


def _check(run: Run, controller, twin: Optional[Run], speculation: bool = True,
           disk: Optional[tuple] = None) -> None:
    """Run and judge ``run``: a durable one from the crash state ``disk``
    (``(files, sealed)``) if given, and on from each one a crash leaves."""
    tracer = Tracer()
    if controller is not None:
        controller.tracer = tracer
    violations = run.violations
    config = dict(
        seed=run.seed, latency=ConstantLatency(run.latency), trace=tracer,
        faults=run.faults, reliable=run.reliable,
        speculation=speculation, controller=controller, fossil_interval=run.fossil_interval,
        durable_opts=run.durable_opts,
    )
    durable = run.durable_opts is not None

    def build(system):
        attach_monitors(system)
        run.scenario.build(system)

    with tempfile.TemporaryDirectory(prefix="hope-crash-") if durable else nullcontext() as root:
        while True:
            leg, mark, system = disk or ({}, None), len(getattr(controller, "file_ops", ())), None
            try:
                if disk is None:
                    system = HopeSystem(durable_dir=root and os.path.join(root, "0"), **config)
                    build(system)
                else:
                    path = write_state(os.path.join(root, str(mark + 1)), disk[0])
                    system = HopeSystem.resume(path, build, **config)
                run.final_time = system.run(max_events=run.max_events)
            except DurableError as exc:
                where = "resume refused the crash state" if system is None else "durable store"
                violations.append(f"{where}: {exc}")
            except InvariantViolation as exc:
                violations.append(f"streaming invariant: {exc}")
            except EventLimitExceeded as exc:
                violations.append(f"livelock: {exc}")
            except HostCrash:               # building, resuming or running
                mode = controller.records[-1].chosen
                states = crash_states(leg[0], controller.file_ops[mark:], leg[1])
                disk = [state[2:] for state in states if state[1] == mode][-1]
                continue
            break
    if controller is not None:
        controller.finish()
        run.choices = [step.chosen for step in controller.records]
        run.disk = (leg[0], controller.file_ops[mark:], leg[1]) if durable else ()
    if system is None:
        return
    run.fingerprint = tracer.fingerprint()
    run.stats = system.stats()
    run.rollbacks = run.stats["rollbacks"]
    run.ledgers = {n: tuple(system.committed_outputs(n)) for n in system.process_names()}
    if violations:
        return
    if disk is not None:
        violations.extend(_recovery_violations(system, *disk))
    scenario = run.scenario
    try:
        check_quiescent(system, allow_pending_orphans=run.allow_pending_orphans)
    except InvariantViolation as exc:
        violations.append(f"quiescent invariant: {exc}")
    if scenario.reference is None:
        # A twin-oracle workload is built to finish: faults delay it and
        # roll it back, never hang it.
        stuck = sorted(n for n, p in system.procs.items() if not p.done and not p.crashed)
        if stuck:
            violations.append(f"stuck processes at quiescence: {stuck}")
    for process, expected in (scenario.reference or {}).items():
        actual = list(run.ledgers.get(process, ()))
        if actual != expected:
            violations.append(
                f"oracle mismatch for {process!r}: expected {expected!r}, "
                f"committed {actual!r}"
            )
    if twin is not None:
        if not twin.ok:
            violations.append(f"twin failed: {twin.failure}")
        elif scenario.reference is None:
            ours, theirs = run.committed, twin.committed
            if ours != theirs:
                diff = sorted(n for n in set(ours) | set(theirs) if ours.get(n) != theirs.get(n))
                violations.append(f"committed state diverged from fault-free twin for {diff}")
        else:
            if twin.rollbacks:
                violations.append("blocking oracle rolled back")
            for process in scenario.reference:
                ours, theirs = run.ledgers.get(process, ()), twin.ledgers.get(process, ())
                if ours != theirs:
                    violations.append(
                        f"speculative/blocking divergence for {process!r}: "
                        f"{list(ours)!r} vs {list(theirs)!r}"
                    )
    if run.inject_bug:
        for rec in tracer.records:
            aid = rec.detail.get("aid") if rec.category in ("affirm", "deny") else None
            if aid:
                if str(aid).startswith("y"):
                    violations.append(f"injected bug: AID {aid!r} resolved first")
                break


WRITTEN, LOST = 1, 2


def crash_states(files: dict, ops: list, sealed: Optional[tuple] = None) -> Iterator[tuple]:
    """Yield ``(k, mode, state, sealed)`` for a crash before each of ``ops``
    (:meth:`RecordingController.host_dies`'s record) on a disk durably
    holding ``files``.  ``state`` maps names to bytes: every earlier
    operation's (``WRITTEN``, a write's bytes too, as unbuffered), or what
    the POSIX loss model keeps (``LOST``: each file as of its last
    ``fsync``, each name as of the last directory ``fsync``).  ``sealed``
    is the ``(gen, frames)`` of the newest batch whose marker fsync completed."""
    names = {name: [data, data] for name, data in files.items()}   # [written, synced]
    durable = dict(names)
    for k, (op, name, arg, _step, now_sealed) in enumerate(ops):
        sealed = now_sealed or sealed
        yield k, WRITTEN, {n: f[0] for n, f in names.items()}, sealed
        yield k, LOST, {n: f[1] for n, f in durable.items()}, sealed
        file = names.get(name)
        if op == "open" and file is None:
            names[name] = [b"", b""]
        elif op == "open" and arg == "w":
            file[0] = b""
        elif op == "truncate":
            file[0] = file[0][:arg]
        elif op == "write":
            file[0] += arg
        elif op == "fsync":
            file[1] = file[0]
        elif op == "replace":
            names[arg] = names.pop(name)
        elif op == "unlink":
            names.pop(name, None)
        elif op == "dirsync":
            durable = dict(names)


def write_state(root: str, files: dict) -> str:
    """Lay a crash state out as the files of the directory ``root``."""
    os.makedirs(root, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(data)
    return root


def _recovery_violations(system: HopeSystem, files: dict, sealed: Optional[tuple]) -> list:
    """What a resume from ``files`` failed: the image check, counting each
    envelope and WAL record it skipped, restoring the batch ``sealed``."""
    recorder, found = system._durable, []
    try:
        recorder.check_image()
    except DurableError as exc:
        found.append(f"image check: {exc}")
    stats = recorder.stats
    gen, frames = stats["resumed_generation"], stats["frames_replayed"]
    with tempfile.TemporaryDirectory(prefix="hope-state-") as root:
        store = DurableStore(write_state(root, files))    # the state as found
        skipped = sum(1 for g in store.envelope_gens() if gen is None or g > gen)
        records, at, clean = 0, gen or 0, True
        while clean and at in store.wal_gens():     # the chain recovery walks
            kept, discarded, clean = store.scan_wal(at)
            records, at = records + len(kept) + discarded, at + 1
    counted = (stats["envelopes_rejected"], frames + stats["wal_records_discarded"])
    if counted != (skipped, records):
        found.append(f"{skipped} envelope(s) skipped and {records} WAL record(s) on "
                     f"the replay path, {counted[0]} and {counted[1]} counted")
    if sealed is not None and (gen is None or (gen, frames) < sealed):
        found.append(f"recovery reached WAL {gen} frame {frames}, short of the "
                     f"batch sealed at WAL {sealed[0]} frame {sealed[1]}")
    return found


@dataclass(eq=False)
class CrashSweep:
    """:func:`sweep`'s report: the swept run (``record.disk`` is the swept
    leg, of ``points`` crash points), the distinct crash states resumed,
    the failing runs and their reproducers."""

    record: Run
    points: int
    states: int = 0
    failures: list = field(default_factory=list)
    repro_files: list = field(default_factory=list)


def sweep(scenario: Scenario, *, prefix: list = (), repro_dir: Optional[str] = None,
          **config) -> CrashSweep:
    """Crash one durable run before each file operation of its last leg,
    as written and lost, and resume and judge each distinct state once.
    ``config`` is :func:`check_run`'s (by default ``fossil_interval=4``
    and an envelope every pass); a crash in ``prefix`` makes the swept
    leg a resumed one.  A failing state's choices replay every leg under
    a controller; they shrink into ``repro_dir``."""
    config = {"fossil_interval": 4, "durable_opts": {"snapshot_every": 1}, **config}
    record = Run(scenario, label="resumed" if prefix else "record", max_drops=1, **config)
    twin = twin_of(record)
    _check(record, RecordingController(prefix), twin)
    report, states = CrashSweep(record, len(record.disk[1])), {}
    if not record.ok:
        report.failures.append(record)
        return report
    for state in crash_states(*record.disk):    # judged by the newest batch sealed with it
        key = tuple(sorted(state[2].items()))
        if key not in states or (state[3] or ()) > (states[key][3] or ()):
            states[key] = state
    report.states = len(states)
    for k, mode, files, sealed in states.values():
        op, name, _arg, step, _ = record.disk[1][k]
        run = check_run(scenario, twin=twin, disk=(files, sealed), label=f"crash before "
                        f"{op} {name} (#{k}, {('as written', 'lost')[mode - 1]})", **config)
        if not run.ok:
            run.choices = record.choices[:step] + [mode] + run.choices
            report.failures.append(run)
            if repro_dir is not None:
                path = os.path.join(repro_dir, f"crash-{scenario.name}-seed{run.seed}-{k}-{mode}.json")
                report.repro_files.append(reproduce(run, path, twin=twin))
    return report


def walk(scenario: Scenario, *, shuffle: bool = False, **kwargs) -> Run:
    """One seeded walk of the choice tree (:func:`check_run`'s ``kwargs``):
    fates drawn as a plain run draws them, ties too when ``shuffle``."""
    seed = kwargs.get("seed", 0)
    controller = RecordingController(
        max_drops=None, walk=True, shuffle_seed=seed if shuffle else None
    )
    return check_run(scenario, controller=controller, **kwargs)


def shrink(run: Run, probe: Callable[[list], Run]) -> tuple[list, Run]:
    """The shortest failing prefix of a failing run's choices, and its run.

    ``probe(prefix)`` re-runs with ``prefix`` prescribed and every later
    choice at its DFS default (leftmost tie, no fault).  The binary search
    keeps the upper bound failing (the full sequence replays ``run``), so
    the prefix is verified-failing even if failure is not monotone.
    """
    first = probe([])
    if first.violations:
        return [], first
    choices, failing = run.choices, run
    lo, hi = 0, len(choices)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        candidate = probe(choices[:mid])
        if candidate.violations:
            hi, failing = mid, candidate
        else:
            lo = mid
    return choices[:hi], failing


def reproduce(run: Run, path: str, *, twin: Optional[Run] = None,
              probe: Optional[Callable[[list], Run]] = None, command: str = "verify") -> str:
    """Shrink a failing run and write its reproducer to ``path``."""
    if probe is None:
        def probe(prefix: list) -> Run:
            controller = RecordingController(prefix, max_drops=run.max_drops)
            return check_run(run.scenario, controller=controller, twin=twin, **run.config())
    prefix, failing = shrink(run, probe)
    return write_reproducer(path, failing, prefix, command)


# ---------------------------------------------------------------------------
# the reproducer file
# ---------------------------------------------------------------------------
def _config_json(value: Any) -> Any:
    """``reliable`` as JSON: a bool, or a custom config's fields."""
    if value is None or isinstance(value, bool):
        return bool(value)
    return {slot: getattr(value, slot) for slot in type(value).__slots__}


def write_reproducer(path: str, run: Run, choices: list, command: str = "verify") -> str:
    """Write one reproducer: ``run``'s configuration, the choice prefix
    that makes it fail, and what it found.  ``max_drops`` is ``null`` for
    a walk's file (fates drawn from the fault stream, see
    :class:`~repro.verify.schedule.RecordingController`)."""
    config = run.config()
    if run.durable_opts is None:        # only a durable run's file has these
        del config["fossil_interval"], config["durable_opts"]
    payload = {
        **config,
        "scenario": run.scenario.spec,
        "faults": run.faults.to_dict() if run.faults is not None else None,
        "reliable": _config_json(run.reliable),
        "max_drops": run.max_drops,
        "choices": choices,
        "failure": run.violations,
        "fingerprint": run.fingerprint,
        "command": f"python -m repro.cli {command} --repro {path}",
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _choices(values: list) -> list:
    if not all(type(c) is int and c >= 0 for c in values):
        raise ValueError("expected non-negative integers")
    return values


def _positive(value: int) -> int:
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


_REQUIRED = object()
#: Keys that configure nothing: what the run found, and what earlier
#: writers recorded besides (the DPOR explorer's own format, an event-queue
#: ``kernel``, the AID-task mode's ``control_latency``).
_INERT = frozenset(("failure", "fingerprint", "command", "kind", "scenario_name",
                    "original_choices", "shrink_runs", "kernel", "aid_mode",
                    "control_latency"))
#: A reproducer's fields: the JSON types accepted, the default when absent
#: (``_REQUIRED``: none), and how the value becomes :func:`check_run`'s.
_FIELDS = {
    "scenario": ((dict,), _REQUIRED, scenario_from_spec),
    "seed": ((int,), _REQUIRED, None),
    "latency": ((int, float), _REQUIRED, None),
    "faults": ((dict, type(None)), None, lambda d: None if d is None else FaultPlan.from_dict(d)),
    "reliable": ((bool, dict), False, lambda v: ReliableConfig(**v) if isinstance(v, dict) else v),
    "max_events": ((int,), _REQUIRED, None),
    "max_drops": ((int, type(None)), 1, None),
    "allow_pending_orphans": ((bool,), True, None),
    "inject_bug": ((bool,), False, None),
    "fossil_interval": ((int,), 64, _positive),
    "durable_opts": ((dict, type(None)), None, None),
    "choices": ((list,), _REQUIRED, _choices),
}


def load_reproducer(path: str) -> tuple[Scenario, dict, Optional[int], list]:
    """Parse and validate a reproducer file into ``(scenario, check_run
    keywords, max_drops, choices)``.  Every error names the offending
    field, so a hand-edited file fails with a pointer, not a stack trace.
    Files the DPOR explorer wrote before the reproducer was shared
    (``kind: "dpor"``, ``fault_plan``) still load, and so does a file that
    names an option since removed, if it has that option off."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if "scenario" not in payload and "workload" in payload:
        raise ValueError(
            f"{path}: field 'scenario' is missing: a {{workload, seed, plan}} chaos "
            "file does not record the configuration it failed under — re-run "
            "the matrix to write one that does"
        )
    # Files written while the engine had an AID-task mode carry this key.
    if payload.get("aid_mode", "registry") != "registry":
        raise ValueError(
            f"{path}: aid_mode={payload['aid_mode']!r} is not a runtime mode; the "
            "AID-task timing model is the AIDMODE experiment "
            "(experiments/test_aid_modes.py)"
        )
    if "fault_plan" in payload:
        payload["faults"] = payload.pop("fault_plan")
    for name in sorted(payload.keys() - _FIELDS.keys() - _INERT):
        # An option the runtime has since lost: a run with it off is the
        # same run without it, a run with it on cannot be replayed.
        if payload[name] not in (False, None):
            raise ValueError(
                f"{path}: field {name!r}: {payload[name]!r} turns on an option "
                "that was removed from the runtime; only a file with it false replays"
            )
    fields = {}
    for name, (kinds, default, parse) in _FIELDS.items():
        if name not in payload:
            if default is _REQUIRED:
                raise ValueError(f"{path}: field {name!r} is missing")
            fields[name] = default
            continue
        value = payload[name]
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            want = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ValueError(
                f"{path}: field {name!r}: expected {want}, got {type(value).__name__}"
            )
        try:
            fields[name] = parse(value) if parse is not None else value
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}: field {name!r}: {exc}") from None
    scenario, max_drops, choices = (fields.pop(k) for k in ("scenario", "max_drops", "choices"))
    return scenario, fields, max_drops, choices


def replay(path: str) -> Run:
    """Re-run a reproducer file (the expected-failing run)."""
    scenario, config, max_drops, choices = load_reproducer(path)
    controller = RecordingController(choices, max_drops=max_drops)
    return check_run(scenario, controller=controller, label="repro", **config)


# ---------------------------------------------------------------------------
# the randomized campaign
# ---------------------------------------------------------------------------
@dataclass
class ExplorationReport:
    """Aggregate of an exploration campaign."""

    runs: list = field(default_factory=list)
    repro_files: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [run for run in self.runs if not run.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        rollbacks = sum(run.rollbacks for run in self.runs)
        lines = [
            f"{len(self.runs)} runs, {len(self.failures)} failing, "
            f"{rollbacks} rollbacks exercised",
            *failure_lines(self.failures, lambda run: f"{run.scenario.name} seed={run.seed}"),
            *(f"  reproducer: {path}" for path in self.repro_files),
        ]
        return "\n".join(lines)


def failure_lines(failures: list, name: Callable[[Run], str]) -> list:
    """A report's lines for its first ten failing runs, and a count of the rest."""
    lines = [f"  FAIL {name(run)}: {run.violations}" for run in failures[:10]]
    if len(failures) > 10:
        lines.append(f"  (+{len(failures) - 10} more failures)")
    return lines


def explore(
    n_runs: int = 50,
    root_seed: int = 0,
    check_determinism: bool = False,
    shuffle_ties: bool = False,
    repro_dir: Optional[str] = None,
) -> ExplorationReport:
    """Walk ``n_runs`` random scenarios at random latencies.

    Latency and verification delays are drawn per run, which permutes
    message orders and verdict timings across runs; ``shuffle_ties``
    also draws every same-time tie.  ``check_determinism`` re-runs each
    walk and requires the same trace fingerprint.  Each failing walk
    shrinks to a reproducer in ``repro_dir``, if given.
    """
    picker = RandomStreams(root_seed)["scenario"]
    report = ExplorationReport()
    for _ in range(n_runs):
        scenario = random_scenario(picker)
        latency = picker.uniform(0.0, 5.0)
        # Per-run seeds come from the seeded stream, not arithmetic on
        # root_seed: ``root_seed * 10_007 + index`` collides across
        # campaigns (root r at index i equals root r+1 at i-10_007, so
        # any campaign longer than 10_007 runs replays its neighbor's
        # seeds) instead of widening coverage.
        config = dict(seed=picker.randint(0, 2**31 - 1), latency=latency, max_events=500_000)
        run = walk(scenario, shuffle=shuffle_ties, **config)
        if check_determinism and run.ok:
            if walk(scenario, shuffle=shuffle_ties, **config).fingerprint != run.fingerprint:
                run.violations.append("non-deterministic trace for equal seed")
        if run.violations and repro_dir is not None:
            path = os.path.join(repro_dir, f"repro-walk-{scenario.name}-seed{run.seed}.json")
            report.repro_files.append(reproduce(run, path))
        report.runs.append(run)
    return report
