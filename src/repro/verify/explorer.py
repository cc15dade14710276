"""Randomized schedule exploration: the model-checking harness.

For every explored run the harness asserts:

1. the machine's set-algebra invariants hold (Lemma 5.1, Theorem 5.1
   chain, IS/I consistency) — continuously, via the monitors;
2. no rollback ever discards a definite interval (Theorem 5.2);
3. committed outputs only grow (output-commit monotonicity);
4. the final committed ledger of every process equals the scenario's
   decision-derived reference — the observable-equivalence oracle: a HOPE
   execution must commit exactly what the pessimistic serial execution of
   the same decisions would produce;
5. determinism: re-running the same seed reproduces the same trace
   fingerprint.

This is bounded model checking by randomized scheduling: latency and
verification delays are drawn per run, which permutes message orders and
verdict timings across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..runtime import HopeSystem
from ..sim import ConstantLatency, RandomStreams, Tracer
from .invariants import InvariantViolation, attach_monitors, check_quiescent
from .programs import Scenario, random_scenario


@dataclass
class RunOutcome:
    """One explored run: what happened and whether it conformed."""

    scenario: str
    seed: int
    latency: float
    violations: list = field(default_factory=list)
    rollbacks: int = 0
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


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
        total = len(self.runs)
        rollbacks = sum(run.rollbacks for run in self.runs)
        lines = [
            f"{total} runs, {len(self.failures)} failing, "
            f"{rollbacks} rollbacks exercised"
        ]
        for run in self.failures[:10]:
            lines.append(f"  FAIL {run.scenario} seed={run.seed}: {run.violations}")
        extra = len(self.failures) - 10
        if extra > 0:
            lines.append(f"  (+{extra} more failures)")
        return "\n".join(lines)


def run_scenario(
    scenario: Scenario,
    seed: int,
    latency: float,
    check_determinism: bool = False,
    shuffle_ties: bool = False,
) -> RunOutcome:
    """Execute one scenario under one schedule and check everything.

    ``shuffle_ties`` additionally permutes same-virtual-time event
    orderings (seeded) — interleaving-level exploration on top of the
    latency-level randomization.
    """
    outcome = RunOutcome(scenario=scenario.name, seed=seed, latency=latency)

    def execute(speculation: bool = True) -> tuple[HopeSystem, str]:
        tracer = Tracer()
        system = HopeSystem(
            seed=seed,
            latency=ConstantLatency(latency),
            trace=tracer,
            speculation=speculation,
            shuffle_ties=shuffle_ties,
        )
        attach_monitors(system)
        scenario.build(system)
        system.run(max_events=500_000)
        return system, tracer.fingerprint()

    try:
        system, fingerprint = execute()
    except InvariantViolation as exc:
        outcome.violations.append(f"streaming invariant: {exc}")
        return outcome
    outcome.fingerprint = fingerprint
    outcome.rollbacks = system.stats()["rollbacks"]
    try:
        check_quiescent(system)
    except InvariantViolation as exc:
        outcome.violations.append(f"quiescent invariant: {exc}")
    for process, expected in scenario.reference.items():
        actual = system.committed_outputs(process)
        if actual != expected:
            outcome.violations.append(
                f"oracle mismatch for {process!r}: expected {expected!r}, "
                f"committed {actual!r}"
            )
    if check_determinism:
        _system2, fingerprint2 = execute()
        if fingerprint2 != fingerprint:
            outcome.violations.append("non-deterministic trace for equal seed")
    if scenario.blocking_oracle:
        # The strongest oracle: the same program text, run pessimistically
        # (speculation=False: guesses block for their verdicts), must
        # commit the identical ledger.
        blocking_system, _fp = execute(speculation=False)
        if blocking_system.stats()["rollbacks"] != 0:
            outcome.violations.append("blocking oracle rolled back")
        for process in scenario.reference:
            speculative = system.committed_outputs(process)
            blocking = blocking_system.committed_outputs(process)
            if speculative != blocking:
                outcome.violations.append(
                    f"speculative/blocking divergence for {process!r}: "
                    f"{speculative!r} vs {blocking!r}"
                )
    return outcome


def explore(
    n_runs: int = 50,
    root_seed: int = 0,
    check_determinism: bool = False,
    shuffle_ties: bool = False,
) -> ExplorationReport:
    """Run ``n_runs`` random scenarios under random schedules."""
    streams = RandomStreams(root_seed)
    picker = streams["scenario"]
    report = ExplorationReport()
    for index in range(n_runs):
        scenario = random_scenario(picker)
        latency = picker.uniform(0.0, 5.0)
        # Per-run seeds come from the seeded stream, not arithmetic on
        # root_seed: ``root_seed * 10_007 + index`` collides across
        # campaigns (root r at index i equals root r+1 at i-10_007, so
        # any campaign longer than 10_007 runs replays its neighbor's
        # seeds) instead of widening coverage.
        outcome = run_scenario(
            scenario,
            seed=picker.randint(0, 2**31 - 1),
            latency=latency,
            check_determinism=check_determinism,
            shuffle_ties=shuffle_ties,
        )
        report.runs.append(outcome)
    return report
