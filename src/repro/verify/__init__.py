"""Verification harness: invariants, scenarios, one checked run, model checking.

The paper proves its theorems over the abstract machine; this package
checks the same properties hold *system-wide* over real HOPE programs,
plus the observable-equivalence oracle the paper implies but never
states: what an optimistic program commits equals what its pessimistic
counterpart would print.  One driver, :func:`check_run`
(:mod:`repro.verify.driver`), builds, runs and judges every run, and one
shrinker and one reproducer serve its four campaigns: :func:`explore`
(randomized walks), :class:`DporExplorer` (the DPOR-reduced DFS through
the controller seam of :mod:`repro.verify.schedule`),
:func:`repro.chaos.run_matrix` (seeded walks over seeds x fault plans)
and :func:`sweep` (a host crash before each durable file operation).
"""

from .dpor import DporExplorer, DporReport, standard_scenarios
from .driver import (
    ExplorationReport,
    Run,
    check_run,
    explore,
    replay,
    reproduce,
    sweep,
    walk,
)
from .invariants import (
    DefiniteSafetyMonitor,
    InvariantViolation,
    LedgerMonitor,
    attach_monitors,
    check_quiescent,
)
from .programs import (
    FACTORIES,
    Scenario,
    chain_scenario,
    diamond_scenario,
    free_of_scenario,
    orphan_scenario,
    random_scenario,
    scenario_from_spec,
    two_aid_scenario,
)
from .schedule import (
    RecordingController,
    ReplayDivergence,
    ScheduleController,
)

__all__ = [
    "Run",
    "check_run",
    "walk",
    "sweep",
    "reproduce",
    "replay",
    "explore",
    "ExplorationReport",
    "DporExplorer",
    "DporReport",
    "standard_scenarios",
    "Scenario",
    "chain_scenario",
    "two_aid_scenario",
    "diamond_scenario",
    "free_of_scenario",
    "orphan_scenario",
    "random_scenario",
    "scenario_from_spec",
    "FACTORIES",
    "InvariantViolation",
    "LedgerMonitor",
    "DefiniteSafetyMonitor",
    "attach_monitors",
    "check_quiescent",
    "ScheduleController",
    "RecordingController",
    "ReplayDivergence",
]
