"""Structured tracing of simulation runs.

Every interesting action (send, receive, guess, rollback, ...) is recorded
as a :class:`TraceRecord`.  Traces serve three purposes:

* debugging — ``tracer.format()`` is a readable timeline;
* determinism tests — two runs with the same seed must produce identical
  traces (``tracer.fingerprint()``);
* verification — the model checker in :mod:`repro.verify` replays traces
  against the abstract machine oracle.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Optional


class TraceRecord:
    """One timestamped event: ``(time, category, process, detail)``."""

    __slots__ = ("time", "category", "process", "detail")

    def __init__(self, time: float, category: str, process: str, detail: dict) -> None:
        self.time = time
        self.category = category
        self.process = process
        self.detail = detail

    def as_tuple(self) -> tuple:
        return (self.time, self.category, self.process, tuple(sorted(self.detail.items())))

    def __repr__(self) -> str:
        fields = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.4f}] {self.category:<12} {self.process:<14} {fields}"


class Tracer:
    """Collects :class:`TraceRecord` objects; optionally filtered and bounded.

    ``categories`` restricts recording to the given set (None = record
    all).  ``max_records`` bounds memory on long benchmark runs — when the
    bound trips, the oldest records are dropped and ``truncated`` is set.
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        max_records: Optional[int] = None,
    ) -> None:
        self._categories = frozenset(categories) if categories is not None else None
        #: categories=() means "record nothing": every record() call is
        #: pure overhead.  The engine reads this to skip its hot-path
        #: record calls entirely, and record() itself returns immediately
        #: when it *is* called (no counting).
        self._disabled = self._categories is not None and not self._categories
        self._max_records = max_records
        self.records: list[TraceRecord] = []
        self.truncated = False
        self.counts: dict[str, int] = {}

    def record(self, time: float, category: str, process: str, **detail: Any) -> None:
        """Append one record (subject to category filter and size bound).

        A disabled tracer (``categories=()``) records nothing and counts
        nothing: ``record()`` is a pure no-op, matching the engine's
        skip-wholesale fast path.
        """
        if self._disabled:
            return
        self.counts[category] = self.counts.get(category, 0) + 1
        if self._categories is not None and category not in self._categories:
            return
        self.records.append(TraceRecord(time, category, process, detail))
        if self._max_records is not None and len(self.records) > self._max_records:
            del self.records[0 : len(self.records) - self._max_records]
            self.truncated = True

    def fingerprint(self, allow_truncated: bool = False) -> str:
        """Stable hash of the whole trace; equal traces ⇒ equal fingerprints.

        A truncated trace no longer *is* the whole trace: hashing the
        surviving suffix silently compares windows whose start points
        depend on when the bound tripped.  That is how determinism checks
        go green on garbage, so by default this raises once ``truncated``
        is set.  Pass ``allow_truncated=True`` to hash the retained
        suffix anyway (only meaningful when both sides share the same
        ``max_records``).
        """
        if self.truncated and not allow_truncated:
            raise ValueError(
                "trace was truncated by max_records; fingerprint() would "
                "hash an arbitrary suffix — raise max_records or pass "
                "allow_truncated=True"
            )
        h = hashlib.sha256()
        for rec in self.records:
            h.update(repr(rec.as_tuple()).encode("utf-8"))
        return h.hexdigest()

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace (last ``limit`` records)."""
        records = self.records if limit is None else self.records[-limit:]
        return "\n".join(repr(r) for r in records)
