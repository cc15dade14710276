"""Process histories — Definition 4.1.

An execution history is a sequence of states separated by events.  The
machine records one :class:`HistoryEntry` per state transition; rollback
implements ``Del(H, A)`` (§4) by cutting every entry from A's start index
onward off the tail — Theorem 5.1 guarantees the deletion is always a
suffix.  :meth:`ProcessRecord.append` keeps the history index-ordered as
it grows and :meth:`ProcessRecord.truncate_from` checks the cut.

The semantics only ever reads the *index clock* (where the next entry
would go, where the retained history starts); the entries themselves are
a ledger for people.  A record built with ``keeps_history=False`` runs
the same clock and materialises no entry: its ``history`` is the shared
empty tuple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .errors import MachineInvariantError
from .interval import Interval, IntervalState

_SPECULATIVE = IntervalState.SPECULATIVE
_ROLLED_BACK = IntervalState.ROLLED_BACK
#: S.IS = ∅ before the first guess: one shared, immutable empty set.
NO_INTERVALS: frozenset = frozenset()

if TYPE_CHECKING:  # pragma: no cover
    from .aid import AssumptionId


class HistoryEntry:
    """One event in a process history: ``S_i E_i S_{i+1}``.

    ``index`` is the position in the (never-reindexed) history; after a
    rollback new entries continue from the truncation point, so indices
    stay comparable with interval start indices.
    """

    __slots__ = ("index", "kind", "detail", "interval", "g")

    def __init__(
        self,
        index: int,
        kind: str,
        interval: Optional[Interval],
        g: Optional[bool],
        detail: dict,
    ) -> None:
        self.index = index
        self.kind = kind
        self.interval = interval
        self.g = g
        self.detail = detail

    def __repr__(self) -> str:
        iv = self.interval.label if self.interval is not None else "-"
        fields = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"H[{self.index}] {self.kind:<10} I={iv} G={self.g} {fields}"


class ProcessRecord:
    """Per-process machine state: history, intervals, and the S.I/S.IS/S.G variables."""

    __slots__ = (
        "name", "history", "intervals", "current", "speculative", "g",
        "_next_index", "_floor_index", "rollback_count", "order", "changed",
        "_changed_sink", "reclaimable", "_reclaimable_sink", "keeps_history",
    )

    def __init__(
        self,
        name: str,
        order: int = 0,
        changed_sink: Optional[list] = None,
        keeps_history: bool = True,
        reclaimable_sink: Optional[list] = None,
    ) -> None:
        self.name = name
        #: False: :meth:`append` only advances the index clock.
        self.keeps_history = keeps_history
        #: Creation rank within the owning machine (stable visiting order).
        self.order = order
        #: True from a change until the next visit by a fossil pass; the
        #: record then has a place in ``_changed_sink``, the owning
        #: machine's first-come queue of records that merely changed.
        #: None (false, but not False): visited out of turn since, place
        #: kept — the queue never holds a record twice.
        self.changed: Optional[bool] = False
        self._changed_sink = changed_sink if changed_sink is not None else []
        #: True while queued in ``_reclaimable_sink``, the machine's list
        #: of records a pass has something to reclaim from.
        self.reclaimable = False
        self._reclaimable_sink = (
            reclaimable_sink if reclaimable_sink is not None else []
        )
        self.history: "list[HistoryEntry] | tuple" = [] if keeps_history else ()
        #: Intervals not yet fossil (dead ones too); ``()`` while there are none.
        self.intervals: "list[Interval] | tuple" = ()
        #: S.I — the current interval; None encodes the paper's I = ∅.
        self.current: Optional[Interval] = None
        #: S.IS — speculative intervals leading to the current state.  The
        #: shared empty set until the first guess and again once a pass
        #: finds it emptied (a definite process owns none); the machine
        #: swaps in a real one to add.
        self.speculative: "set[Interval] | frozenset" = NO_INTERVALS
        #: S.G — result of the most recent guess (None before any guess).
        self.g: Optional[bool] = None
        self._next_index = 0
        #: Lowest index not yet fossilized (the retained history starts here).
        self._floor_index = 0
        self.rollback_count = 0

    # ------------------------------------------------------------------
    # history bookkeeping
    # ------------------------------------------------------------------
    def append(self, kind: str, **detail: Any) -> Optional[HistoryEntry]:
        """Record a state transition (HP ← HP · S, the Eq 6 pattern).

        Returns the new entry, or None when this record keeps no history
        (the transition still takes its index)."""
        if not self.keeps_history:
            self.tick()
            return None
        if not self.changed:
            self.mark_changed()
        history = self.history
        index = self._next_index
        if history and history[-1].index >= index:
            raise MachineInvariantError(
                f"history of {self.name!r} is not strictly index-ordered: "
                f"entry {index} would follow entry {history[-1].index}"
            )
        entry = HistoryEntry(index, kind, self.current, self.g, detail)
        self._next_index = index + 1
        history.append(entry)
        return entry

    def tick(self) -> None:
        """Give a state transition its index without recording an entry.

        What :meth:`append` does on a record that keeps no history; a
        caller whose entry details cost something to build checks
        ``keeps_history`` and calls this instead of building them."""
        if not self.changed:
            self.mark_changed()
        self._next_index += 1

    def mark_changed(self) -> None:
        """Queue this record for the next fossil pass (idempotent).

        Every history append does this; an embedding runtime calls it for
        changes the machine cannot see (its own per-process tables)."""
        if not self.changed:
            if self.changed is False:
                self._changed_sink.append(self)
            self.changed = True

    def mark_reclaimable(self) -> None:
        """Queue this record for the next fossil pass as one it can reclaim
        something from (idempotent): the machine calls it when one of the
        record's intervals finalizes or rolls back, an embedding runtime
        for what it will be able to drop itself (a log prefix behind a
        new commit point).  A pass visits every such record; one that
        merely :meth:`mark_changed` waits its turn."""
        if not self.reclaimable:
            self.reclaimable = True
            self._reclaimable_sink.append(self)

    def truncate_from(self, start_index: int) -> "list[HistoryEntry] | tuple":
        """Del(H, A): discard the history suffix from ``start_index`` on.

        Returns the removed entries, at a cost proportional to their
        number.  Indices are handed out consecutively and only ever cut
        off the tail (here) or the head (:meth:`fossilize_before`), so
        the entries at or after ``start_index`` must be exactly the last
        ``_next_index - start_index`` (all of them, if the cut reaches
        below a fossilized prefix); if the tail scan finds another count,
        one of them is stranded behind an older entry and the removal
        would not be a contiguous suffix (Theorem 5.1).
        """
        history = self.history
        cut = len(history)
        while cut and history[cut - 1].index >= start_index:
            cut -= 1
        drop = history[cut:]
        expected = min(max(self._next_index - start_index, 0), len(history))
        if len(drop) != expected:
            raise MachineInvariantError(
                f"history of {self.name!r} is not strictly index-ordered; "
                "a deletion would not be a contiguous suffix"
            )
        if drop:
            del history[cut:]
        self._next_index = start_index
        if start_index < self._floor_index:
            self._floor_index = start_index
        return drop

    def fossilize_before(self, index: Optional[int] = None) -> tuple[int, int]:
        """Drop the committed prefix: history entries and dead intervals
        strictly below ``index`` (default: the commit frontier itself,
        what a fossil pass does with every record it visits), and an
        emptied S.IS set or interval list for the shared empty one.

        The inverse of :meth:`truncate_from` — a *prefix* drop, sound only
        when ``index`` is at or below the process's commit frontier
        (Theorem 6.1: finalized intervals never roll back, so no future
        ``Del(H, A)`` can reach below it).  Indices are never reassigned,
        so the surviving suffix stays comparable with interval start
        indices.  Returns ``(entries_dropped, intervals_dropped)``; the
        entries are counted as indices passed (they are consecutive), so
        the count is the same whether or not the record keeps them.
        """
        if not self.speculative:
            self.speculative = NO_INTERVALS
        frontier = self.frontier_index()
        if index is None:
            index = frontier
        elif index > frontier:
            raise MachineInvariantError(
                f"fossilize_before({index}) on {self.name!r} would cross the "
                f"commit frontier at {frontier}"
            )
        passed = index - self._floor_index
        if passed > 0:
            self._floor_index = index
            if self.history:
                self.history = [e for e in self.history if e.index >= index]
        else:
            passed = 0
        intervals = self.intervals
        if not intervals:
            return (passed, 0)
        # An interval is fossil once it can never matter again: finalized
        # and started before the drop point, or rolled back (a terminal
        # state wherever it sits — truncation already rewound the index
        # clock past it, so the position test would miss it).  Severing
        # ``parent`` keeps a surviving child from pinning a dropped
        # ancestor chain.
        keep: list[Interval] = []
        current = self.current
        for iv in intervals:
            state = iv.state
            if state is not _ROLLED_BACK and (
                state is _SPECULATIVE or iv is current or iv.start_index >= index
            ):
                keep.append(iv)
        dropped = len(intervals) - len(keep)
        if dropped:
            self.intervals = keep or ()
            for iv in keep:
                parent = iv.parent
                if parent is not None and parent.state is not _SPECULATIVE:
                    iv.parent = None
        return (passed, dropped)

    def frontier_index(self) -> int:
        """This process's commit frontier: the start index of its oldest
        still-speculative interval, or ``_next_index`` when definite.

        Everything strictly below is committed — Theorem 6.1 means no
        rollback can ever truncate into it.
        """
        if not self.speculative:
            return self._next_index
        return min(iv.start_index for iv in self.speculative)

    # ------------------------------------------------------------------
    # interval queries
    # ------------------------------------------------------------------
    @property
    def is_definite(self) -> bool:
        """True when S.I = ∅: nothing this process does can be undone."""
        return self.current is None
