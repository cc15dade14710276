"""Stateless model checking with dynamic partial-order reduction.

The randomized explorer (:mod:`repro.verify.explorer`) samples schedules;
this module *enumerates* them.  A DFS driver replays choice prefixes
through fresh :class:`~repro.runtime.HopeSystem` instances (stateless
model checking — no state snapshots, only re-execution), directing every
same-virtual-time tie and every fault fate through the simulator's
controller seam (:class:`~repro.verify.schedule.RecordingController`).

Reduction is the classic DPOR recipe (Flanagan & Godefroid) adapted to a
discrete-event world:

* **Only same-time events commute.**  Virtual-time order is semantic in
  a DES — an event at t=1 can never fire after one at t=2 — so the
  reorderable pairs are exactly the members of one tie batch, and
  backtracking points are computed only between steps sharing a virtual
  time.
* **Independence is footprint disjointness.**  Each executed step's
  footprint (process names plus AID keys touched, extracted from the
  trace slice it produced) is recorded; two same-time steps with
  disjoint footprints commute, so neither needs to be reordered before
  the other.
* **Sleep sets** prune branches that would only replay a commuted
  permutation of an already-explored one.  Filtering uses footprints
  observed in earlier executions (unknown footprint = conservatively
  dependent, so the set only under-prunes at bootstrap); because
  footprints are *observed*, not statically derived, the unpruned
  ``prune=False`` mode doubles as the soundness oracle — tests assert
  both modes reach the same set of distinct outcomes.

Every complete execution runs the full monitor stack from
:mod:`repro.verify.invariants` plus the scenario's decision-derived
reference oracle (and, for ``blocking_oracle`` scenarios, ledger
equality with a once-computed pessimistic run of the same program).  A
violation is shrunk to the minimal failing choice prefix and written as
a JSON reproducer in the chaos-harness format (same writer), replayable
with :func:`run_dpor_reproducer` or ``repro verify --repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..runtime import HopeSystem
from ..sim import ConstantLatency, Tracer
from ..sim.faults import FaultPlan
from ..sim.kernel import SimulationError
from .invariants import InvariantViolation, attach_monitors, check_quiescent
from .programs import (
    Scenario,
    chain_scenario,
    diamond_scenario,
    free_of_scenario,
    orphan_scenario,
    scenario_from_spec,
    two_aid_scenario,
)
from .schedule import RecordingController, ReplayDivergence


class _Node:
    """One choice point on the DFS stack.

    ``started`` lists the branch indices explored so far, in order (the
    last entry is the branch the current path goes through).
    ``backtrack`` is the DPOR backtracking set: branches that *must* be
    explored because some later dependent step could be reordered here.
    """

    __slots__ = ("kind", "time", "keys", "started", "backtrack", "footprint")

    def __init__(self, kind, time, keys, chosen, footprint, backtrack):
        self.kind = kind
        self.time = time
        self.keys = keys
        self.started = [chosen]
        self.backtrack = set(backtrack)
        self.footprint = footprint

    @property
    def chosen(self) -> int:
        return self.started[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Node {self.kind} t={self.time:g} {len(self.keys)} options "
            f"started={self.started} backtrack={sorted(self.backtrack)}>"
        )


@dataclass
class DporRun:
    """One executed schedule and everything checked about it."""

    index: int
    choices: list
    fingerprint: str = ""
    violations: list = field(default_factory=list)
    rollbacks: int = 0
    sleep_blocked: bool = False
    steps: int = 0
    committed: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class DporReport:
    """Aggregate of one exhaustive exploration."""

    scenario: str
    prune: bool
    sleep_sets: bool
    runs: list = field(default_factory=list)
    complete: bool = False
    sleep_pruned: int = 0
    shrink_runs: int = 0
    reproducer: Optional[str] = None

    @property
    def schedules(self) -> int:
        return len(self.runs)

    @property
    def failures(self) -> list:
        return [run for run in self.runs if not run.ok]

    @property
    def ok(self) -> bool:
        return self.complete and not self.failures

    def outcomes(self) -> set:
        """The distinct committed end states reached across all schedules."""
        return {run.committed for run in self.runs}

    def summary(self) -> str:
        mode = "dpor" if self.prune else "full"
        if self.prune and self.sleep_sets:
            mode += "+sleep"
        status = "complete" if self.complete else "BUDGET EXHAUSTED"
        lines = [
            f"{self.scenario}: {self.schedules} schedules explored ({mode}, "
            f"{status}), {len(self.failures)} failing, "
            f"{len(self.outcomes())} distinct outcome(s), "
            f"{self.sleep_pruned} sleep-pruned"
        ]
        for run in self.failures[:10]:
            lines.append(f"  FAIL schedule #{run.index}: {run.violations}")
        extra = len(self.failures) - 10
        if extra > 0:
            lines.append(f"  (+{extra} more failures)")
        if self.reproducer:
            lines.append(f"  reproducer: {self.reproducer}")
        return "\n".join(lines)


class DporExplorer:
    """DFS over the schedule tree of one scenario.

    Parameters
    ----------
    scenario:
        The workload plus reference oracle (:mod:`repro.verify.programs`).
    seed, latency:
        Forwarded to every :class:`HopeSystem` replay — held fixed so the
        controller's choices are the *only* source of divergence.
    prune:
        ``True`` (default) computes DPOR backtracking sets; ``False``
        enumerates every permutation of every tie batch — exponentially
        larger, used as the reduction-soundness oracle in tests.
    sleep_sets:
        Layer sleep-set pruning on top of DPOR (ignored when
        ``prune=False``: the oracle mode must stay exhaustive).
    max_schedules:
        Execution budget; exploration that exhausts it reports
        ``complete=False``.
    fault_plan:
        Optional chaos-harness plan whose drop/reorder fates become
        explored choice points (see
        :class:`~repro.verify.schedule.RecordingController`); a plan
        with drops requires ``reliable`` so the reference oracle still
        applies (losses are masked by resend, not observable), and one
        with duplicates or jitter is refused.
    max_drops:
        Per-execution bound on explored message drops.
    allow_pending_orphans:
        Forwarded to :func:`check_quiescent` after every execution.
    inject_bug:
        Deliberately misflag executions where an AID named ``y*`` is the
        first to be resolved — a schedule-dependent "bug" only some
        interleavings reach, used end-to-end to prove the explorer finds,
        shrinks, and reproduces ordering bugs.
    repro_dir:
        When set, the first failure writes a JSON reproducer here.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        latency: float = 0.5,
        prune: bool = True,
        sleep_sets: bool = True,
        max_schedules: int = 2000,
        max_events: int = 200_000,
        fault_plan: Optional[FaultPlan] = None,
        max_drops: int = 1,
        reliable: object = False,
        allow_pending_orphans: bool = True,
        inject_bug: bool = False,
        repro_dir: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.latency = latency
        self.prune = prune
        self.sleep_sets = sleep_sets and prune
        self.max_schedules = max_schedules
        self.max_events = max_events
        self.fault_plan = fault_plan
        self.max_drops = max_drops
        self.reliable = reliable
        self.allow_pending_orphans = allow_pending_orphans
        self.inject_bug = inject_bug
        self.repro_dir = repro_dir
        if fault_plan is not None:
            links = [fault_plan.default, *fault_plan.links.values()]
            if any(f.duplicate > 0.0 or f.jitter > 0.0 for f in links):
                raise SimulationError(
                    "DPOR explores drop/reorder fates only; duplicate/jitter "
                    "have no finite choice-point analog"
                )
            if not reliable and any(f.drop > 0.0 for f in links):
                raise ValueError(
                    "exploring drop fates without reliable delivery makes "
                    "the reference oracle unsound — pass reliable=True"
                )
        #: Footprints observed per event key across all executions — the
        #: independence oracle shared with every RecordingController.
        self.known: dict = {}
        self._nodes: list[_Node] = []
        self._blocking: Optional[dict] = None
        self._blocking_violation: Optional[str] = None

    # ------------------------------------------------------------------
    # single execution + per-run checks
    # ------------------------------------------------------------------
    def execute(
        self, prescribed: Sequence[int] = (), initial_sleep: frozenset = frozenset()
    ) -> tuple[RecordingController, DporRun]:
        """Replay one choice prefix to completion and check everything."""
        tracer = Tracer()
        controller = RecordingController(
            prescribed, tracer, initial_sleep, self.known, self.max_drops
        )
        system = HopeSystem(
            seed=self.seed,
            latency=ConstantLatency(self.latency),
            trace=tracer,
            reliable=self.reliable,
            faults=self.fault_plan,
            controller=controller,
        )
        attach_monitors(system)
        self.scenario.build(system)
        run = DporRun(index=0, choices=[])
        try:
            system.run(max_events=self.max_events)
        except InvariantViolation as exc:
            run.violations.append(f"streaming invariant: {exc}")
        controller.finish()
        run.choices = [step.chosen for step in controller.records]
        run.steps = len(controller.records)
        run.sleep_blocked = controller.sleep_blocked
        run.fingerprint = tracer.fingerprint()
        if run.violations:
            return controller, run
        run.rollbacks = system.stats()["rollbacks"]
        try:
            check_quiescent(system, allow_pending_orphans=self.allow_pending_orphans)
        except InvariantViolation as exc:
            run.violations.append(f"quiescent invariant: {exc}")
        for process, expected in self.scenario.reference.items():
            actual = system.committed_outputs(process)
            if actual != expected:
                run.violations.append(
                    f"oracle mismatch for {process!r}: expected {expected!r}, "
                    f"committed {actual!r}"
                )
        if self.scenario.blocking_oracle and self._blocking is not None:
            for process in self.scenario.reference:
                speculative = system.committed_outputs(process)
                blocking = self._blocking[process]
                if speculative != blocking:
                    run.violations.append(
                        f"speculative/blocking divergence for {process!r}: "
                        f"{speculative!r} vs {blocking!r}"
                    )
        if self.inject_bug:
            for rec in tracer.records:
                if rec.category in ("affirm", "deny") and rec.detail.get("aid"):
                    if str(rec.detail["aid"]).startswith("y"):
                        run.violations.append(
                            "injected bug: AID "
                            f"{rec.detail['aid']!r} resolved first"
                        )
                    break
        run.committed = tuple(
            sorted(
                (name, tuple(repr(v) for v in system.committed_outputs(name)))
                for name in system.process_names()
            )
        )
        return controller, run

    # ------------------------------------------------------------------
    # the DFS
    # ------------------------------------------------------------------
    def explore(self) -> DporReport:
        """Enumerate inequivalent schedules until the tree (or budget) is done."""
        report = DporReport(
            scenario=self.scenario.name, prune=self.prune, sleep_sets=self.sleep_sets
        )
        self._nodes = []
        if self.scenario.blocking_oracle:
            self._compute_blocking_reference()
        prescribed: list = []
        initial_sleep: frozenset = frozenset()
        while len(report.runs) < self.max_schedules:
            controller, run = self.execute(prescribed, initial_sleep)
            run.index = len(report.runs)
            if self._blocking_violation and not run.violations:
                run.violations.append(self._blocking_violation)
            report.runs.append(run)
            if run.violations and self.repro_dir and report.reproducer is None:
                report.reproducer = self._write_reproducer(run, report)
            self._absorb(controller.records)
            if self.prune:
                self._add_backtracks(controller.records)
            nxt = self._select_next(report)
            if nxt is None:
                report.complete = True
                break
            prescribed, initial_sleep = nxt
        return report

    def _compute_blocking_reference(self) -> None:
        """The pessimistic twin: same program text, guesses block.

        Computed once per exploration — the blocking run has no
        speculation to reorder, so a single canonical schedule suffices
        as the comparison ledger for every explored speculative one.
        """
        system = HopeSystem(
            seed=self.seed,
            latency=ConstantLatency(self.latency),
            speculation=False,
        )
        self.scenario.build(system)
        system.run(max_events=self.max_events)
        if system.stats()["rollbacks"] != 0:
            self._blocking_violation = "blocking oracle rolled back"
        self._blocking = {
            p: system.committed_outputs(p) for p in self.scenario.reference
        }

    def _absorb(self, steps) -> None:
        """Fold one execution's step records into the DFS node stack."""
        nodes = self._nodes
        for k, step in enumerate(steps):
            if k < len(nodes):
                node = nodes[k]
                if node.keys != step.keys:
                    raise ReplayDivergence(
                        f"step {k} batch changed across replays of one prefix: "
                        f"{node.keys!r} -> {step.keys!r}"
                    )
                node.footprint = step.footprint
            else:
                if step.kind == "fate" or not self.prune:
                    backtrack = range(len(step.keys))
                else:
                    backtrack = (step.chosen,)
                nodes.append(
                    _Node(
                        step.kind, step.time, step.keys, step.chosen,
                        step.footprint, backtrack,
                    )
                )
        # A violation can abort a run mid-prefix; drop stack entries the
        # execution never reached (their subtrees hang off a failing path).
        del nodes[len(steps):]

    def _add_backtracks(self, steps) -> None:
        """The DPOR pass: schedule reorderings of dependent same-time pairs.

        For each executed tie step *j*, every earlier tie step *i* at the
        same virtual time whose footprint intersects *j*'s gets a
        backtracking point: the branch that fires *j*'s event at *i* if it
        was co-enabled there, else (conservatively) every branch.
        """
        nodes = self._nodes
        for j, sj in enumerate(steps):
            if sj.kind != "tie" or not sj.footprint:
                continue
            for i in range(j - 1, -1, -1):
                si = steps[i]
                if si.kind != "tie":
                    continue
                if si.time != sj.time:
                    break  # tie times are non-decreasing: no older peer ties
                if si.footprint.isdisjoint(sj.footprint):
                    continue
                node = nodes[i]
                if sj.chosen_key in node.keys:
                    node.backtrack.add(node.keys.index(sj.chosen_key))
                else:
                    node.backtrack.update(range(len(node.keys)))

    def _sleep_at(self, k: int) -> set:
        """The sleep set in force when node *k* starts its next branch.

        Walks the current path applying Godefroid's rule: a finished
        sibling branch's event goes to sleep, and sleeping events wake as
        soon as a dependent (footprint-intersecting, or unknown) step
        executes below them.
        """
        known = self.known
        sleep: set = set()
        for i in range(k):
            node = self._nodes[i]
            if node.kind != "tie":
                continue
            for s in node.started[:-1]:
                sleep.add(node.keys[s])
            if sleep:
                footprint = node.footprint
                sleep = {
                    key
                    for key in sleep
                    if known.get(key) is not None
                    and known[key].isdisjoint(footprint)
                }
        node = self._nodes[k]
        if node.kind == "tie":
            for s in node.started:
                sleep.add(node.keys[s])
        return sleep

    def _select_next(self, report: DporReport) -> Optional[tuple]:
        """Deepest unexplored backtracking point → next (prefix, sleep)."""
        nodes = self._nodes
        while nodes:
            k = len(nodes) - 1
            node = nodes[k]
            pending = sorted(node.backtrack - set(node.started))
            sleep_now = self._sleep_at(k) if self.sleep_sets else set()
            chosen = None
            for c in pending:
                if node.kind == "tie" and node.keys[c] in sleep_now:
                    continue  # provably redundant from this state — skip
                chosen = c
                break
            if chosen is None:
                if self.sleep_sets:
                    report.sleep_pruned += len(pending)
                nodes.pop()
                continue
            node.started.append(chosen)
            prescribed = [n.chosen for n in nodes[:k]] + [chosen]
            del nodes[k + 1:]
            return prescribed, frozenset(sleep_now)
        return None

    # ------------------------------------------------------------------
    # reproducers
    # ------------------------------------------------------------------
    def _shrink_choices(self, choices: list, report: DporReport) -> list:
        """Minimal failing prefix: defaults beyond it must still fail.

        Binary search over prefix lengths, maintaining the invariant that
        the upper bound fails (the full sequence does, by construction) —
        so the returned prefix is verified-failing even if failure is not
        monotone in prefix length.
        """

        def fails(prefix: list) -> bool:
            report.shrink_runs += 1
            _controller, run = self.execute(prefix, frozenset())
            return bool(run.violations)

        if fails([]):
            return []
        lo, hi = 0, len(choices)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fails(choices[:mid]):
                hi = mid
            else:
                lo = mid
        return choices[:hi]

    def _write_reproducer(self, run: DporRun, report: DporReport) -> str:
        import os

        from ..chaos import write_reproducer  # late: chaos imports this package

        shrunk = self._shrink_choices(run.choices, report)
        path = os.path.join(
            self.repro_dir, f"repro-dpor-{self.scenario.name}-{run.index}.json"
        )
        # Scenario names carry parens/commas; keep the filename shell-safe.
        path = "".join(ch if ch.isalnum() or ch in "-_./" else "_" for ch in path)
        payload = {
            "kind": "dpor",
            "scenario": self.scenario.spec,
            "scenario_name": self.scenario.name,
            "seed": self.seed,
            "latency": self.latency,
            "max_events": self.max_events,
            "reliable": bool(self.reliable),
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan is not None else None
            ),
            "max_drops": self.max_drops,
            "allow_pending_orphans": self.allow_pending_orphans,
            "inject_bug": self.inject_bug,
            "choices": shrunk,
            "original_choices": run.choices,
            "shrink_runs": report.shrink_runs,
            "failure": run.violations,
            "fingerprint": run.fingerprint,
            "command": f"python -m repro.cli verify --repro {path}",
        }
        return write_reproducer(path, payload)


def run_dpor_reproducer(path: str) -> DporRun:
    """Replay a DPOR reproducer file; returns the (expected-failing) run."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("kind") != "dpor":
        raise ValueError(f"{path} is not a DPOR reproducer (kind={payload.get('kind')!r})")
    # Files written while the engine had an AID-task mode carry this key.
    if payload.get("aid_mode", "registry") != "registry":
        raise ValueError(
            f"{path}: aid_mode={payload['aid_mode']!r} is not a runtime mode; the "
            "AID-task timing model is the AIDMODE experiment "
            "(experiments/test_aid_modes.py)"
        )
    explorer = DporExplorer(
        scenario_from_spec(payload["scenario"]),
        seed=payload["seed"],
        latency=payload["latency"],
        max_events=payload["max_events"],
        fault_plan=(
            FaultPlan.from_dict(payload["fault_plan"])
            if payload.get("fault_plan")
            else None
        ),
        max_drops=payload.get("max_drops", 1),
        reliable=payload.get("reliable", False),
        allow_pending_orphans=payload.get("allow_pending_orphans", True),
        inject_bug=payload.get("inject_bug", False),
    )
    if explorer.scenario.blocking_oracle:
        explorer._compute_blocking_reference()
    _controller, run = explorer.execute(payload["choices"], frozenset())
    return run


def standard_scenarios() -> list:
    """The bounded scenario matrix `repro verify` and the CI smoke sweep."""
    return [
        chain_scenario(1, True, 0.75),
        chain_scenario(1, False, 0.75),
        # dx=dy=0.75 lands both verdicts in one tie batch *after* the
        # worker guessed both AIDs — the dependent pair DPOR must reorder.
        two_aid_scenario(True, True, 0.75, 0.75),
        two_aid_scenario(True, False, 0.75, 0.75),
        two_aid_scenario(False, False, 0.75, 0.75),
        diamond_scenario(True, 0.75),
        diamond_scenario(False, 0.75),
        free_of_scenario(False),
        free_of_scenario(True),
        orphan_scenario(True),
    ]
