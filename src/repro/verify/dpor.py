"""Stateless model checking with dynamic partial-order reduction.

A :func:`~repro.verify.driver.walk` samples one path of a run's choice
tree; this module *enumerates* the tree.  A DFS replays choice prefixes
through fresh :func:`~repro.verify.driver.check_run` runs (stateless
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

Every execution is one :func:`~repro.verify.driver.check_run` (the
blocking twin is computed once per exploration); the first violation
is shrunk and written by :func:`~repro.verify.driver.reproduce`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..sim.faults import FaultPlan
from ..sim.kernel import SimulationError
from .driver import Run, check_run, failure_lines, reproduce, twin_of
from .programs import (
    Scenario,
    chain_scenario,
    diamond_scenario,
    free_of_scenario,
    orphan_scenario,
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
        return {
            tuple(sorted((n, tuple(map(repr, out))) for n, out in run.ledgers.items()))
            for run in self.runs
        }

    def summary(self) -> str:
        mode = "dpor" if self.prune else "full"
        if self.prune and self.sleep_sets:
            mode += "+sleep"
        status = "complete" if self.complete else "BUDGET EXHAUSTED"
        lines = [
            f"{self.scenario}: {self.schedules} schedules explored ({mode}, "
            f"{status}), {len(self.failures)} failing, "
            f"{len(self.outcomes())} distinct outcome(s), "
            f"{self.sleep_pruned} sleep-pruned",
            *failure_lines(self.failures, lambda run: f"schedule {run.label}"),
        ]
        if self.reproducer:
            lines.append(f"  reproducer: {self.reproducer}")
        return "\n".join(lines)


class DporExplorer:
    """DFS over the schedule tree of one scenario.

    Parameters
    ----------
    scenario:
        The workload plus reference oracle (:mod:`repro.verify.programs`).
    seed, latency, max_events, reliable, allow_pending_orphans, inject_bug:
        :func:`~repro.verify.driver.check_run`'s, for every execution —
        held fixed so the controller's choices are the *only* source of
        divergence.
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
        A plan whose drop/reorder fates become explored choice points; one
        with drops requires ``reliable`` so the reference oracle still
        applies (losses are masked by resend), and one with duplicates or
        jitter is refused.
    max_drops:
        Per-execution bound on explored message drops.
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
        self.prune = prune
        self.sleep_sets = sleep_sets and prune
        self.max_schedules = max_schedules
        self.max_drops = max_drops
        self.repro_dir = repro_dir
        #: :func:`check_run`'s keywords for every execution.
        self.config = dict(
            seed=seed, latency=latency, faults=fault_plan, reliable=reliable,
            max_events=max_events, allow_pending_orphans=allow_pending_orphans,
            inject_bug=inject_bug,
        )
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
        self._twin: Optional[Run] = None

    def execute(
        self, prescribed: Sequence[int] = (), initial_sleep: frozenset = frozenset()
    ) -> tuple[RecordingController, Run]:
        """Replay one choice prefix to completion and check everything."""
        controller = RecordingController(
            prescribed, initial_sleep, self.known, self.max_drops
        )
        run = check_run(self.scenario, controller=controller, twin=self._twin, **self.config)
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
        self._twin = twin_of(Run(self.scenario, **self.config))
        prescribed: list = []
        initial_sleep: frozenset = frozenset()
        while len(report.runs) < self.max_schedules:
            controller, run = self.execute(prescribed, initial_sleep)
            run.label = f"#{len(report.runs)}"
            report.runs.append(run)
            if run.violations and self.repro_dir and report.reproducer is None:
                report.reproducer = self._reproduce(run, report)
            self._absorb(controller.records)
            if self.prune:
                self._add_backtracks(controller.records)
            nxt = self._select_next(report)
            if nxt is None:
                report.complete = True
                break
            prescribed, initial_sleep = nxt
        return report

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

    def _reproduce(self, run: Run, report: DporReport) -> str:
        def probe(prefix: list) -> Run:
            report.shrink_runs += 1
            return self.execute(prefix)[1]

        path = os.path.join(self.repro_dir, f"repro-dpor-{self.scenario.name}-{run.label[1:]}.json")
        # Scenario names carry parens/commas; keep the filename shell-safe.
        path = "".join(ch if ch.isalnum() or ch in "-_./" else "_" for ch in path)
        return reproduce(run, path, probe=probe)


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
