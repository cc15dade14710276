"""Verification harness: invariants, scenarios, randomized + exhaustive model checking.

The paper proves its theorems over the abstract machine; this package
checks the same properties hold *system-wide* over real HOPE programs,
plus the observable-equivalence oracle the paper implies but never
states: what an optimistic program commits equals what its pessimistic
counterpart would print.  Two drivers share the scenario/oracle stack:

* :mod:`repro.verify.explorer` — randomized schedule sampling (latency
  draws plus seeded tie shuffles through a
  :class:`~repro.verify.schedule.RandomTies` controller);
* :mod:`repro.verify.dpor` — exhaustive enumeration of inequivalent
  interleavings via dynamic partial-order reduction with sleep sets,
  driven through the simulator's controller seam
  (:mod:`repro.verify.schedule`).
"""

from .dpor import (
    DporExplorer,
    DporReport,
    DporRun,
    run_dpor_reproducer,
    standard_scenarios,
)
from .explorer import ExplorationReport, RunOutcome, explore, run_scenario
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
    RandomTies,
    RecordingController,
    ReplayDivergence,
    ScheduleController,
    StepRecord,
)

__all__ = [
    "explore",
    "run_scenario",
    "ExplorationReport",
    "RunOutcome",
    "DporExplorer",
    "DporReport",
    "DporRun",
    "run_dpor_reproducer",
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
    "RandomTies",
    "RecordingController",
    "StepRecord",
    "ReplayDivergence",
]
