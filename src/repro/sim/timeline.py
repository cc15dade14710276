"""Per-process busy/idle accounting.

The paper's argument for optimism is entirely about *idle time*: a 100 MIPS
CPU wastes 3 million instructions waiting on a coast-to-coast RPC.  The
timeline records, for each process, spans of busy (computing), blocked
(waiting on a message), and wasted (rolled-back) virtual time, so the
benchmarks can report utilization and wasted-work fractions alongside raw
completion times.
"""

from __future__ import annotations

from array import array
from typing import Optional


class Span:
    """A closed, half-open span ``[start, end)`` of one kind of activity."""

    __slots__ = ("kind", "start", "end")

    BUSY = "busy"
    BLOCKED = "blocked"
    WASTED = "wasted"

    def __init__(self, kind: str, start: float, end: float) -> None:
        self.kind = kind
        self.start = start
        self.end = end


#: The slot of :class:`ProcessTimeline` a span kind's folded total lives in.
_FOLDED = {Span.BUSY: "_busy", Span.BLOCKED: "_blocked", Span.WASTED: "_wasted"}
#: A retired track's open-span kinds: kind ``i > 0`` folds into column ``i - 1``.
_OPEN = (None, Span.BUSY, Span.BLOCKED, Span.WASTED)


class ProcessTimeline:
    """Spans for one process, built by ``mark_*`` calls as the run proceeds:
    the closed ones in :attr:`spans` (``()`` until one closes), the open one in
    :attr:`open_kind` (None if none) and :attr:`open_start`."""

    __slots__ = ("name", "spans", "open_kind", "open_start", "_busy", "_blocked", "_wasted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: "list[Span] | tuple" = ()
        self.open_kind: Optional[str] = None
        self.open_start = 0.0
        #: Durations folded out of :attr:`spans` by :meth:`compact_before`,
        #: one slot per span kind (see _FOLDED).  ``total`` adds them back.
        self._busy = self._blocked = self._wasted = 0.0

    def compact_before(self, cutoff: float) -> int:
        """Fold spans that end at or before ``cutoff`` into base totals.

        Only sound for ``cutoff`` values no later than any future
        ``reclassify_since`` start time — i.e. the commit frontier:
        rollback can only reclassify work done since a still-speculative
        guess, and the frontier is at or before every such guess.
        Returns the number of spans dropped.
        """
        # Spans are appended in time order (see reclassify_since), so the
        # ones to fold are a prefix: stop at the first that is not.
        spans = self.spans
        dropped = 0
        for span in spans:
            end = span.end
            if end > cutoff:
                break
            slot = _FOLDED[span.kind]
            setattr(self, slot, getattr(self, slot) + (end - span.start))
            dropped += 1
        if dropped:
            del spans[:dropped]
        return dropped

    def mark(self, kind: str, now: float) -> None:
        """Close the open span at ``now`` and open a new one of ``kind``."""
        if self.open_kind != kind:
            self.close(now)
            self.open_kind = kind
            self.open_start = now

    def close(self, now: float) -> None:
        if self.open_kind is not None:
            span = Span(self.open_kind, self.open_start, now)
            if self.spans:
                self.spans.append(span)
            else:
                self.spans = [span]
            self.open_kind = None

    def reclassify_since(self, start_time: float, kind: str, now: float) -> float:
        """Re-label all activity in ``[start_time, now)`` as ``kind``.

        Rollback calls this with ``kind=WASTED``: everything the process did
        since the guess point was thrown away.  Returns the *newly*
        re-labelled duration — spans already of ``kind`` (a deeper rollback
        sweeping over an earlier rollback's window) count zero, so the
        per-call returns sum exactly to ``aggregate(kind)``.

        Spans are appended in time order, so only the tail that ends
        after ``start_time`` is touched — the cost follows the window
        undone, not the length of the run.
        """
        self.close(now)
        spans = self.spans
        cut = len(spans)
        while cut and spans[cut - 1].end > start_time:
            cut -= 1
        if cut == len(spans):
            return 0.0
        tail = spans[cut:]
        del spans[cut:]
        wasted = 0.0
        for span in tail:
            start = span.start
            if start < start_time:
                # straddles the boundary: split
                spans.append(Span(span.kind, start, start_time))
                start = start_time
            if span.kind != kind:
                wasted += span.end - start
            spans.append(Span(kind, start, span.end))
        return wasted

    def base_totals(self) -> dict[str, float]:
        """Durations folded out of :attr:`spans` by :meth:`compact_before`.

        Returns a new dict of the non-zero ones, keyed by span kind.
        Renderers use this to keep a process visible after all of its
        spans were compacted away.
        """
        folded = {kind: getattr(self, slot) for kind, slot in _FOLDED.items()}
        return {kind: total for kind, total in folded.items() if total}

    def total(self, kind: str, now: Optional[float] = None) -> float:
        """Total duration of spans of ``kind`` (open span measured to ``now``)."""
        out = getattr(self, _FOLDED[kind])
        for span in self.spans:
            if span.kind == kind:
                out += span.end - span.start
        if now is not None and self.open_kind == kind:
            out += now - self.open_start
        return out


class Timeline:
    """Timelines for all processes in a run, plus aggregate statistics.

    Every process ever spawned has an entry, in spawn order: its track,
    or once :meth:`retire` has folded that, its row number.  A track
    exists once :meth:`spawn` has created it; every read of an unknown
    name raises instead of adding a phantom process.
    """

    def __init__(self) -> None:
        self._processes: dict[str, "ProcessTimeline | int"] = {}
        #: Per row: busy, blocked and wasted totals, and the open span's
        #: start; and the open span's kind, as an index into _OPEN.
        self._rows = array("d")
        self._open = bytearray()

    def spawn(self, name: str) -> ProcessTimeline:
        """Create the track of a new process."""
        if name in self._processes:
            raise ValueError(f"timeline already has a process {name!r}")
        tl = self._processes[name] = ProcessTimeline(name)
        return tl

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    def __iter__(self):
        """Every process ever spawned, in spawn order."""
        return iter(self._processes)

    def retire(self, name: str) -> None:
        """Fold the track of a process that will never run again into a
        row: its closed spans in order, as the track's totals would fold
        them; its open span stays open until :meth:`close_all`."""
        tl = self._processes[name]
        tl.compact_before(float("inf"))
        self._processes[name] = len(self._open)
        self._rows.extend((tl._busy, tl._blocked, tl._wasted, tl.open_start))
        self._open.append(_OPEN.index(tl.open_kind))

    def row(self, name: str) -> Optional[int]:
        """The row of retired ``name`` (None while it is live)."""
        tl = self._processes[name]
        return tl if type(tl) is int else None

    def revive(self, name: str) -> ProcessTimeline:
        """Make the track of retired ``name`` live again."""
        tl = self._processes[name] = self.process(name)
        return tl

    def process(self, name: str) -> ProcessTimeline:
        """The track of ``name``: a retired one's is rebuilt from its row."""
        tl = self._processes.get(name)
        if tl is None:
            raise KeyError(
                f"no process {name!r} on the timeline (known: {', '.join(self.names())})"
            )
        if type(tl) is int:
            row, tl = tl, ProcessTimeline(name)
            tl._busy, tl._blocked, tl._wasted, tl.open_start = self._rows[4 * row : 4 * row + 4]
            tl.open_kind = _OPEN[self._open[row]]
        return tl

    def close_all(self, now: float) -> None:
        rows, kinds = self._rows, self._open
        for tl in self._processes.values():
            if type(tl) is not int:
                tl.close(now)
            elif kinds[tl]:
                rows[4 * tl + kinds[tl] - 1] += now - rows[4 * tl + 3]
                kinds[tl] = 0

    def compact_before(self, cutoff: float) -> int:
        """Fold committed spans into base totals across all processes."""
        return sum(tl.compact_before(cutoff) for tl in self._processes.values()
                   if type(tl) is not int)

    def aggregate(self, kind: str, now: Optional[float] = None) -> float:
        """Sum of :meth:`ProcessTimeline.total` over every process, in
        spawn order; a retired row adds as its track did, its folded total
        and then its open span."""
        rows, kinds, code = self._rows, self._open, _OPEN.index(kind)

        def total(tl: "ProcessTimeline | int") -> float:
            if type(tl) is not int:
                return tl.total(kind, now)
            out = rows[4 * tl + code - 1]
            if now is not None and kinds[tl] == code:
                out += now - rows[4 * tl + 3]
            return out

        return sum(map(total, self._processes.values()))

    def utilization(self, name: str, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the process spent busy."""
        if horizon <= 0:
            return 0.0
        return self.process(name).total(Span.BUSY) / horizon

    def names(self) -> list[str]:
        return sorted(self._processes)
