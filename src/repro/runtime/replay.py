"""Replay-based checkpointing: the effect log.

The paper's prototype takes state checkpoints at every guess ("simple and
fairly portable, but not particularly efficient", §7).  Python generators
cannot be snapshotted mid-frame, so we substitute *deterministic replay*:
the engine logs every effect result; a checkpoint is just an index into
that log.  Restoring a checkpoint = restarting the process function and
feeding it the logged results up to the index — the process deterministically
re-reaches the exact pre-guess state without touching the outside world.

The substitution is behaviour-preserving because a HOPE process's state is
a pure function of its effect results (all nondeterminism — time, messages,
randomness — flows through effects).  It is also *measurable*: the CKPT
benchmark charges real wall-clock for replays, matching the paper's remark
that their checkpointing is the inefficiency to optimize.

Replaying from entry 0 makes a restart cost the whole run so far.  A body
that declares commit points (``p.commit_point(state)``) bounds it instead:
at a fossil pass the newest :class:`RebasePoint` behind the commit
frontier becomes the log's base, the prefix is dropped,
and a restart calls ``body(resume=state)`` and replays only the entries
since — O(speculative window), not O(full history).  That is the one
rollback path; see docs/PERFORMANCE.md §3.  A body that returns has
declared its last commit point (:class:`Exited`): once everything it did
is committed its whole log is prefix, so a run keeps the logs of the
processes still running, not of every process it ever ran (§14).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, NamedTuple

from ..core.errors import HopeError


class ReplayDivergenceError(HopeError):
    """The re-executed process yielded a different effect than the log.

    This means the process body is not deterministic given its effect
    results (e.g. it consulted global mutable state or an unlogged RNG) —
    replay-based rollback is unsound for such a process, so we fail loudly.
    """


class LogEntry(NamedTuple):
    """One performed effect and its result.

    A ``NamedTuple`` rather than a slotted class: one entry is appended
    per effect on the hot path, and tuple allocation is markedly cheaper
    than instance creation + two attribute stores.
    """

    kind: str
    result: Any

    def __repr__(self) -> str:
        return f"LogEntry({self.kind}, {self.result!r})"


#: C-level LogEntry constructor: ``tuple.__new__`` pre-bound to the class
#: via partial, skipping both the generated namedtuple ``__new__`` frame
#: and the ``_make`` classmethod wrapper frame — two entries are appended
#: per message round-trip and the extra frames were measurable.
_make_entry = partial(tuple.__new__, LogEntry)


class Checkpoint:
    """A guess-point checkpoint: a log position plus the virtual time.

    Stored in the interval's ``A.PS`` slot (Eq 1).  ``log_index`` is the
    number of log entries that precede the guess — replay feeds exactly
    that many results, then the process re-executes live from the guess
    statement.
    """

    __slots__ = ("log_index", "time")

    def __init__(self, log_index: int, time: float) -> None:
        self.log_index = log_index
        self.time = time

    def __repr__(self) -> str:
        return f"Checkpoint(log_index={self.log_index}, t={self.time:.4f})"


class RebasePoint:
    """A committed restart state: ``body(resume=state)`` reproduces the
    process as it stood just after log entry ``log_index - 1``.

    Captured by a :class:`~repro.runtime.effects.CommitPointEffect`
    (``log_index`` is the log length *after* the commit entry, so a
    resumed incarnation's first yield lines up with ``entries[log_index]``).
    Once the commit frontier passes ``log_index``, fossil collection
    promotes the point to be the log's base and drops the prefix.
    """

    __slots__ = ("log_index", "state", "time")

    def __init__(self, log_index: int, state: Any, time: float) -> None:
        self.log_index = log_index
        self.state = state
        self.time = time

    def __repr__(self) -> str:
        return f"RebasePoint(log_index={self.log_index}, t={self.time:.4f})"


class Exited(NamedTuple):
    """The state of a *terminal* :class:`RebasePoint`: the body returned
    ``result``.  Exit is the last commit point — a terminated process is a
    value, with no context left to restore — so the engine records one at
    the end of the log when a body returns, and once the commit frontier
    reaches it the whole log is prefix.  An incarnation started from this
    point replays nothing and returns the result (only a durable resume
    ever starts one)."""

    result: Any

    def body(self) -> Generator:
        """The whole remaining program of an exited process."""
        return self.result
        yield  # unreachable: makes this a generator function


class EffectLog:
    """The per-process effect journal with a replay cursor.

    Live execution appends entries; after a rollback the engine truncates
    to the checkpoint and the new incarnation consumes entries via
    :meth:`feed` until the cursor reaches the end, at which point the
    process is live again.

    All indices (``cursor``, checkpoint/truncation/replay positions) are
    **absolute** journal positions, stable across fossil collection.
    ``base`` counts entries dropped from the front by :meth:`drop_prefix`
    — physically, ``entries`` holds positions ``[base, base+len(entries))``.
    A fresh incarnation replays from ``base`` (the engine rebuilds the
    pre-base state from the promoted :class:`RebasePoint`), so dropping
    the prefix is only sound once a rebase point at ``base`` exists.
    """

    __slots__ = (
        "entries",
        "base",
        "cursor",
        "pending",
        "replay_count",
        "replayed_entries_total",
        "fossil_dropped_total",
    )

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        #: Absolute position of ``entries[0]`` (entries dropped in front).
        self.base = 0
        self.cursor = 0
        #: Entries still to be re-fed before the process is live again —
        #: always ``base + len(entries) - cursor``, maintained explicitly
        #: because the engine consults it once per live effect (the replay
        #: fast-forward guard) and the three-load arithmetic was
        #: measurable there.
        self.pending = 0
        self.replay_count = 0
        self.replayed_entries_total = 0
        #: Entries dropped from the front by fossil collection.
        self.fossil_dropped_total = 0

    # ------------------------------------------------------------------
    # live side
    # ------------------------------------------------------------------
    def append(self, kind: str, result: Any) -> None:
        self.entries.append(_make_entry((kind, result)))
        # Live appends keep the cursor at the tail (the live-side
        # invariant ``cursor == base + len(entries)``, so += 1 suffices);
        # only begin_replay rewinds it.
        self.cursor += 1

    def __len__(self) -> int:
        """Absolute journal length (including the dropped prefix)."""
        return self.base + len(self.entries)

    def entry_at(self, index: int) -> LogEntry:
        """The entry at absolute position ``index``."""
        return self.entries[index - self.base]

    # ------------------------------------------------------------------
    # replay side
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        return self.pending > 0

    def begin_replay(self) -> None:
        """Reset the cursor for a fresh incarnation.

        The incarnation starts at ``base``: positions below it were
        fossil-collected, and the engine reconstructs that prefix from
        the promoted rebase state instead of re-feeding it.
        """
        self.cursor = self.base
        self.pending = len(self.entries)
        if self.entries:
            self.replay_count += 1

    def feed(self, kind: str) -> Any:
        """Return the logged result for the next effect, checking its kind."""
        entry = self.entries[self.cursor - self.base]
        if entry.kind != kind:
            if self.cursor == self.base > 0:
                # The very first effect of an incarnation resumed from a
                # rebase point: what a misplaced commit point looks like.
                raise ReplayDivergenceError(
                    f"replay divergence at entry {self.cursor}, the first "
                    f"after a promoted commit point: the resumed body "
                    f"yielded {kind!r} but the log recorded {entry.kind!r} — "
                    "the resumed body's first effect must be the one "
                    "following the commit entry, i.e. the state passed to "
                    "commit_point must be the state *after* the commit point"
                )
            raise ReplayDivergenceError(
                f"replay divergence at entry {self.cursor}: process yielded "
                f"{kind!r} but the log recorded {entry.kind!r} — the process "
                "body is not deterministic in its effect results"
            )
        self.cursor += 1
        self.pending -= 1
        self.replayed_entries_total += 1
        return entry.result

    def truncate(self, index: int) -> int:
        """Drop entries from absolute position ``index`` on.

        Returns how many were dropped.  ``index == 0`` is a crash-style
        full reset and also clears the fossil base (the restarted
        incarnation begins at program entry; any rebase state is volatile
        and the engine discards it alongside).  A truncation *into* the
        dropped prefix otherwise is impossible — it would mean a rollback
        crossed the commit frontier, contradicting Theorem 6.1.
        """
        if index == 0:
            dropped = self.base + len(self.entries)
            self.entries.clear()
            self.base = 0
            self.cursor = 0
            self.pending = 0
            return dropped
        if index < self.base:
            raise HopeError(
                f"log truncation at {index} crosses the fossil base "
                f"{self.base} — rollback behind the commit frontier"
            )
        dropped = self.base + len(self.entries) - index
        if dropped < 0:
            raise HopeError(
                f"log truncation index {index} beyond log length {len(self)}"
            )
        del self.entries[index - self.base :]
        if self.cursor > index:
            self.cursor = index
        self.pending = self.base + len(self.entries) - self.cursor
        return dropped

    def drop_prefix(self, index: int) -> int:
        """Fossil-collect entries below absolute position ``index``.

        The caller must hold a :class:`RebasePoint` at exactly ``index``
        and must not drop past the replay cursor (an in-flight replay
        still needs those entries).  Returns the number dropped.
        """
        if index <= self.base:
            return 0
        if index > self.cursor:
            raise HopeError(
                f"drop_prefix({index}) past the replay cursor {self.cursor}"
            )
        dropped = index - self.base
        del self.entries[:dropped]
        self.base = index
        self.fossil_dropped_total += dropped
        return dropped

    def __repr__(self) -> str:
        return (
            f"<EffectLog {self.cursor}/{len(self)} base={self.base} "
            f"replays={self.replay_count}>"
        )
