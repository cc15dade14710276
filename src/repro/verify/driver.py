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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..runtime import DetectorConfig, HopeSystem, ReliableConfig
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
    detector: Any = False
    max_events: int = 200_000
    allow_pending_orphans: bool = True
    inject_bug: bool = False
    max_drops: Optional[int] = None
    label: str = ""
    violations: list = field(default_factory=list)
    fingerprint: str = ""
    ledgers: dict = field(default_factory=dict)
    rollbacks: int = 0
    stats: dict = field(default_factory=dict)
    final_time: float = 0.0
    choices: list = field(default_factory=list)

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
        return {
            "seed": self.seed, "latency": self.latency, "faults": self.faults,
            "reliable": self.reliable, "detector": self.detector,
            "max_events": self.max_events,
            "allow_pending_orphans": self.allow_pending_orphans,
            "inject_bug": self.inject_bug,
        }

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else f"FAIL({self.failure})"
        label = f" {self.label}" if self.label else ""
        return f"<Run {self.scenario.name} seed={self.seed}{label}: {verdict}>"


def check_run(
    scenario: Scenario,
    *,
    seed: int = 0,
    latency: float = 1.0,
    faults: Optional[FaultPlan] = None,
    reliable: Any = False,
    detector: Any = False,
    controller: Optional[RecordingController] = None,
    max_events: int = 200_000,
    allow_pending_orphans: bool = True,
    inject_bug: bool = False,
    twin: Optional[Run] = None,
    label: str = "",
) -> Run:
    """Build, run and judge one monitored run; never raises on a finding.

    ``controller`` directs the run (``None``: the plain runtime).
    ``twin`` is the oracle's normal-order run (:func:`twin_of` computes
    it when needed and not given).  ``inject_bug`` misflags runs where an
    AID named ``y*`` is resolved first — a schedule-dependent "bug" that
    proves the find → shrink → reproduce pipeline end to end.
    """
    run = Run(
        scenario, seed, latency, faults, reliable, detector, max_events,
        allow_pending_orphans, inject_bug, label=label,
        max_drops=controller.max_drops if controller is not None else None,
    )
    if twin is None and (scenario.blocking_oracle or (
        scenario.reference is None and (faults is not None or controller is not None)
    )):
        twin = twin_of(run)
    _check(run, controller, twin)
    return run


def twin_of(run: Run) -> Optional[Run]:
    """The normal-order run ``run``'s oracle compares against, or None:
    the blocking twin (``speculation=False``) of a ``blocking_oracle``
    scenario, the fault-free undirected run of a twin-oracle workload."""
    blocking = run.scenario.blocking_oracle
    if not blocking and run.scenario.reference is not None:
        return None
    twin = Run(**{**run.config(), "faults": None, "inject_bug": False},
               scenario=run.scenario, label="twin")
    _check(twin, None, None, speculation=not blocking)
    return twin


def _check(run: Run, controller, twin: Optional[Run], speculation: bool = True) -> None:
    tracer = Tracer()
    if controller is not None:
        controller.tracer = tracer
    system = HopeSystem(
        seed=run.seed,
        latency=ConstantLatency(run.latency),
        trace=tracer,
        faults=run.faults,
        reliable=run.reliable,
        failure_detector=run.detector,
        speculation=speculation,
        controller=controller,
    )
    attach_monitors(system)
    scenario = run.scenario
    scenario.build(system)
    violations = run.violations
    try:
        run.final_time = system.run(max_events=run.max_events)
    except InvariantViolation as exc:
        violations.append(f"streaming invariant: {exc}")
    except EventLimitExceeded as exc:
        violations.append(f"livelock: {exc}")
    if controller is not None:
        controller.finish()
        run.choices = [step.chosen for step in controller.records]
    run.fingerprint = tracer.fingerprint()
    run.stats = system.stats()
    run.rollbacks = run.stats["rollbacks"]
    run.ledgers = {n: tuple(system.committed_outputs(n)) for n in system.process_names()}
    if violations:
        return
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
    """``reliable`` / ``detector`` as JSON: a bool, or a custom config's fields."""
    if value is None or isinstance(value, bool):
        return bool(value)
    return {slot: getattr(value, slot) for slot in type(value).__slots__}


def write_reproducer(path: str, run: Run, choices: list, command: str = "verify") -> str:
    """Write one reproducer: ``run``'s configuration, the choice prefix
    that makes it fail, and what it found.  ``max_drops`` is ``null`` for
    a walk's file (fates drawn from the fault stream, see
    :class:`~repro.verify.schedule.RecordingController`)."""
    payload = {
        **run.config(),
        "scenario": run.scenario.spec,
        "faults": run.faults.to_dict() if run.faults is not None else None,
        "reliable": _config_json(run.reliable),
        "detector": _config_json(run.detector),
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


_REQUIRED = object()
#: A reproducer's fields: the JSON types accepted, the default when absent
#: (``_REQUIRED``: none), and how the value becomes :func:`check_run`'s.
_FIELDS = {
    "scenario": ((dict,), _REQUIRED, scenario_from_spec),
    "seed": ((int,), _REQUIRED, None),
    "latency": ((int, float), _REQUIRED, None),
    "faults": ((dict, type(None)), None, lambda d: None if d is None else FaultPlan.from_dict(d)),
    "reliable": ((bool, dict), False, lambda v: ReliableConfig(**v) if isinstance(v, dict) else v),
    "detector": ((bool, dict), False, lambda v: DetectorConfig(**v) if isinstance(v, dict) else v),
    "max_events": ((int,), _REQUIRED, None),
    "max_drops": ((int, type(None)), 1, None),
    "allow_pending_orphans": ((bool,), True, None),
    "inject_bug": ((bool,), False, None),
    "choices": ((list,), _REQUIRED, _choices),
}


def load_reproducer(path: str) -> tuple[Scenario, dict, Optional[int], list]:
    """Parse and validate a reproducer file into ``(scenario, check_run
    keywords, max_drops, choices)``.  Every error names the offending
    field, so a hand-edited file fails with a pointer, not a stack trace.
    Files the DPOR explorer wrote before the reproducer was shared
    (``kind: "dpor"``, ``fault_plan``) still load."""
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
) -> ExplorationReport:
    """Walk ``n_runs`` random scenarios at random latencies.

    Latency and verification delays are drawn per run, which permutes
    message orders and verdict timings across runs; ``shuffle_ties``
    also draws every same-time tie.  ``check_determinism`` re-runs each
    walk and requires the same trace fingerprint.
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
        report.runs.append(run)
    return report
