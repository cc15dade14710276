"""Assumption identifiers (AIDs) — Definition 4.2.

An AID is a first-class reference to an optimistic assumption.  Its one
control variable is ``DOM`` ("Depends On Me"): the set of intervals whose
fate is tied to the assumption.  DOM is invisible to the programmer "in
the same sense that program counters are invisible" (§4); it is exposed
here (read-only by convention) because the verification harness checks
Lemma 5.1 symmetry directly against it.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .interval import Interval


class AidStatus(enum.Enum):
    """Lifecycle of an assumption identifier.

    PENDING   — created by aid_init, not yet resolved.
    AFFIRMED  — definitively confirmed true.
    DENIED    — definitively found false.

    A *speculative* affirm or deny does not change the status: it only
    manipulates the dependency sets (affirm) or is parked in the asserting
    interval's IHD (deny) until that interval is finalized or rolled back.
    """

    PENDING = "pending"
    AFFIRMED = "affirmed"
    DENIED = "denied"


_aid_serial = itertools.count(1)

#: The DOM of every *settled* AID (resolved, no speculative affirmer, no
#: parked deny), installed by the fossil pass that finds it so: nothing can
#: depend on it again (Lemma 5.1, Eq 7-9 / 15), and a frozenset fails an ``add``.
SETTLED_DOM: frozenset = frozenset()


class AssumptionId:
    """One optimistic assumption, with its DOM dependency set.

    ``name`` is user-chosen and need not be unique; ``serial`` is.  The
    string form (used in message tags and traces) includes both.
    """

    __slots__ = (
        "name", "serial", "key", "dom", "status", "resolved_by",
        "speculative_affirmer", "parked_denies", "handles",
    )

    def __init__(self, name: str, serial: Optional[int] = None) -> None:
        self.name = name
        self.serial = serial if serial is not None else next(_aid_serial)
        #: Globally unique string identity, safe to put in message tags.
        #: Formatted once: name and serial never change.
        self.key = f"{name}#{self.serial}"
        #: X.DOM — intervals that depend on this assumption (Def 4.2).
        self.dom: set["Interval"] = set()
        self.status = AidStatus.PENDING
        #: Diagnostic: which process performed the definite resolution.
        self.resolved_by: Optional[str] = None
        #: The live speculative interval whose affirm(X) emptied DOM, if
        #: any.  Needed so a rollback of that interval can release the AID
        #: back to PENDING (footnote 2: rollback of a speculative affirm is
        #: a conservative deny; the re-execution may then resolve X
        #: afresh).  Cleared when the interval finalizes or rolls back, so
        #: an AID never reaches an interval behind the commit frontier.
        self.speculative_affirmer: Optional["Interval"] = None
        #: How many live speculative intervals hold a deny of X parked in
        #: their IHD (Eq 16).  Such an AID is about to change status at a
        #: finalize, so fossil collection must not retire it yet.
        self.parked_denies = 0
        #: One weak reference per live handle object that names this AID
        #: (:meth:`Machine.hold`), or None.  They keep a *pending* AID
        #: from retiring — it may yet be guessed and become a message tag,
        #: which resolves by key.  The pass that finds the AID settled
        #: points the live ones at its shared verdict (:data:`VERDICTS`)
        #: and drops them: the AID retires whatever handles are alive.
        self.handles: Optional[list] = None

    @property
    def pending(self) -> bool:
        return self.status is AidStatus.PENDING

    @property
    def affirmed(self) -> bool:
        return self.status is AidStatus.AFFIRMED

    @property
    def denied(self) -> bool:
        return self.status is AidStatus.DENIED

    def __repr__(self) -> str:
        return f"<AID {self.key} {self.status.value} |DOM|={len(self.dom)}>"


def settled(key: str, status: AidStatus) -> AssumptionId:
    """A settled AID named ``key``: what a late primitive through a handle
    holding a shared verdict hands the machine, so its rows name the key."""
    name, serial = key.rsplit("#", 1)
    aid = AssumptionId(name, int(serial))
    aid.status, aid.dom = status, SETTLED_DOM
    return aid


#: The shared verdicts (serial 0) a settling pass points live handles at.
VERDICTS = {s: settled(f"{s.value}#0", s) for s in (AidStatus.AFFIRMED, AidStatus.DENIED)}
