"""The HOPE abstract machine: the paper's §4–5 semantics, executable.

``Machine`` is pure bookkeeping over processes, intervals, and assumption
identifiers; it performs no I/O and has no clock.  The simulator-embedded
runtime (:mod:`repro.runtime`) drives one ``Machine`` instance and turns
its events into task restarts and message retraction.
"""

from .aid import AidStatus, AssumptionId
from .errors import (
    FinalizePreconditionError,
    HopeError,
    IntervalStateError,
    MachineInvariantError,
    ResolutionConflictError,
    UnknownAidError,
    UnknownProcessError,
)
from .events import (
    AffirmEvent,
    DenyEvent,
    FinalizeEvent,
    GuessEvent,
    GuessSkippedEvent,
    MachineEvent,
    RollbackEvent,
)
from .fossil import FossilStats
from .history import HistoryEntry, ProcessRecord
from .interval import Interval, IntervalState
from .machine import Machine

__all__ = [
    "Machine",
    "AssumptionId",
    "AidStatus",
    "Interval",
    "IntervalState",
    "ProcessRecord",
    "HistoryEntry",
    "FossilStats",
    "HopeError",
    "UnknownAidError",
    "UnknownProcessError",
    "ResolutionConflictError",
    "FinalizePreconditionError",
    "IntervalStateError",
    "MachineInvariantError",
    "MachineEvent",
    "GuessEvent",
    "GuessSkippedEvent",
    "AffirmEvent",
    "DenyEvent",
    "FinalizeEvent",
    "RollbackEvent",
]
