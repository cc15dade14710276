"""Intervals — Definitions 4.3 and 4.4.

An interval is the smallest granularity of rollback: the stretch of a
process history between two guess points.  Each interval carries the
paper's control-variable tuple:

* ``PS``  — Previous State: the checkpoint taken at the guess (Eq 1);
* ``IDO`` — I Depend On: the assumption identifiers this interval's fate
  rides on (Eq 3);
* ``IHD`` — I Have Denied: speculative denies parked until finalize (Eq 16);
* ``PID`` — the owning process (Eq 2).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .aid import AssumptionId


class IntervalState(enum.Enum):
    """An interval is speculative until finalized or rolled back (Def 4.4)."""

    SPECULATIVE = "speculative"
    DEFINITE = "definite"
    ROLLED_BACK = "rolled_back"


_interval_serial = itertools.count(1)

#: A.IHD of every interval that has parked no deny (shared, immutable).
NO_DENIES: frozenset = frozenset()


class Interval:
    """One rollback unit in a process history.

    ``ps`` is opaque to the machine: the pure abstract machine stores a
    history index, while the runtime stores a replay checkpoint.  ``aid``
    is the assumption guessed at this interval's head (None for the
    merged implicit-guess interval created by a tagged receive, which may
    introduce several AIDs at once).
    """

    __slots__ = (
        "serial",
        "pid",
        "ps",
        "ido",
        "ihd",
        "aid",
        "parent",
        "start_index",
        "state",
        "spec_affirms",
        "sent",
        "received",
        "_label",
    )

    def __init__(
        self,
        pid: str,
        ps: Any,
        start_index: int,
        aid: Optional["AssumptionId"] = None,
        parent: Optional["Interval"] = None,
        serial: Optional[int] = None,
    ) -> None:
        self.serial = serial if serial is not None else next(_interval_serial)
        self.pid = pid                      # A.PID (Eq 2)
        self.ps = ps                        # A.PS  (Eq 1)
        #: A.IDO (Eq 3): a ``frozenset`` the machine sets at creation.  The
        #: Eq 8/12 updates replace the binding rather than mutating, so a
        #: held reference is always a consistent snapshot.
        self.ido: "frozenset[AssumptionId]" = frozenset()
        #: A.IHD (Eq 16): :data:`NO_DENIES` until a deny parks, then a set.
        self.ihd: "set[AssumptionId] | frozenset" = NO_DENIES
        self.aid = aid
        self.parent = parent
        self.start_index = start_index
        self.state = IntervalState.SPECULATIVE
        #: AIDs this interval speculatively affirmed — used at rollback to
        #: release them back to PENDING (footnote 2 handling).  The shared
        #: ``()`` until the first, and again once a rollback releases them.
        self.spec_affirms: "list[AssumptionId] | tuple" = ()
        #: For the embedding runtime: the deliveries a rollback retracts
        #: and the messages it un-receives, each ``()`` until first used.
        self.sent: "list | tuple" = ()
        self.received: "list | tuple" = ()
        self._label: Optional[str] = None

    @property
    def speculative(self) -> bool:
        return self.state is IntervalState.SPECULATIVE

    @property
    def definite(self) -> bool:
        return self.state is IntervalState.DEFINITE

    @property
    def rolled_back(self) -> bool:
        return self.state is IntervalState.ROLLED_BACK

    @property
    def label(self) -> str:
        """Display name, formatted on first use: pid, serial and head AID
        never change, and a run that keeps no history or trace never asks."""
        label = self._label
        if label is None:
            head = self.aid.key if self.aid is not None else "recv"
            label = self._label = f"{self.pid}/I{self.serial}({head})"
        return label
