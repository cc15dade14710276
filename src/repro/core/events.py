"""Machine event notifications, for observers.

The abstract machine is pure bookkeeping.  Observers — metrics, the
``repro.verify`` monitors, tests — ``Machine.subscribe`` to these events;
an event is built only while one is subscribed.  The embedding runtime
does not observe: its effects (releasing messages on a finalize,
restarting a task and retracting its sends on a rollback) run from the
``Machine.on_finalize`` / ``on_rollback`` hooks, before any observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .aid import AssumptionId
    from .interval import Interval


@dataclass(frozen=True)
class MachineEvent:
    """Base class for all machine notifications."""

    pid: str


@dataclass(frozen=True)
class GuessEvent(MachineEvent):
    """A new speculative interval was created (Eq 1-6)."""

    interval: "Interval"


@dataclass(frozen=True)
class GuessSkippedEvent(MachineEvent):
    """A guess on an already-resolved AID returned immediately."""

    aid: "AssumptionId"
    value: bool


@dataclass(frozen=True)
class AffirmEvent(MachineEvent):
    """An affirm was executed; ``definite`` distinguishes Eq 7-9 from Eq 10-14."""

    aid: "AssumptionId"
    definite: bool


@dataclass(frozen=True)
class DenyEvent(MachineEvent):
    """A deny was executed; speculative denies are parked in IHD (Eq 16)."""

    aid: "AssumptionId"
    definite: bool


@dataclass(frozen=True)
class FinalizeEvent(MachineEvent):
    """An interval became definite (Eq 20-23)."""

    interval: "Interval"


@dataclass(frozen=True)
class RollbackEvent(MachineEvent):
    """A process was rolled back to an interval's guess point (Eq 24).

    ``resume_interval`` is the interval whose checkpoint the process
    resumes from (its guess now returns False); ``discarded`` lists every
    interval destroyed by the history truncation, oldest first.
    """

    resume_interval: "Interval"
    discarded: tuple = field(default_factory=tuple)
    cause: Optional["AssumptionId"] = None
